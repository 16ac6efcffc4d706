"""Guarded least-squares fitting over a basis-function set.

Implements the paper's curve-fitting step: given measured
``(block size, seconds)`` pairs, find coefficients ``a_i`` minimising
``sum_j (y_j - sum_i a_i f_i(x_j / x_scale))^2`` and report the
coefficient of determination R² the algorithm's 0.7 acceptance
threshold is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import FitError
from repro.modeling.basis import BasisFunction

__all__ = [
    "FitResult",
    "check_fit_inputs",
    "fit_basis_model",
    "gram_factor",
    "gram_scale",
    "gram_solve",
    "r_squared",
    "weighted_lstsq",
    "_relative_rmse",
]

#: Smallest Cholesky pivot (of the unit-diagonal, column-scaled Gram
#: matrix) :func:`gram_factor` accepts.  The normal equations square the
#: design's condition number; below this pivot even a refinement step
#: does not recover ``lstsq``'s accuracy, so that path is used instead.
_MIN_PIVOT = 1e-3


def _relative_rmse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """RMS residual divided by the mean target magnitude."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    denom = float(np.mean(np.abs(y)))
    if denom == 0.0:
        return 0.0 if float(np.max(np.abs(y - y_hat), initial=0.0)) == 0.0 else float("inf")
    return float(np.sqrt(np.mean((y - y_hat) ** 2))) / denom


def r_squared(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Coefficient of determination of predictions ``y_hat`` against ``y``.

    A constant target with zero residuals scores 1.0; a constant target
    with residuals scores 0.0 (the conventional degenerate-case choices).
    """
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    ss_res = float(np.sum((y - y_hat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-24 else 0.0
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class FitResult:
    """A fitted basis-expansion model ``F[x] = sum_i a_i f_i(x/x_scale)``.

    Attributes
    ----------
    basis:
        The basis functions used (in coefficient order).
    coefficients:
        Fitted ``a_i``.
    x_scale:
        The raw-coordinate scale; predictions evaluate the basis at
        ``x / x_scale``.
    r2:
        Coefficient of determination on the training points.
    n_points:
        How many observations supported the fit.
    x_max:
        Largest raw x observed (extrapolation beyond it is permitted —
        the paper extrapolates — but flagged by :meth:`in_fitted_range`).
    """

    basis: tuple[BasisFunction, ...]
    coefficients: np.ndarray = field(repr=False)
    x_scale: float
    r2: float
    n_points: int
    x_max: float
    #: root-mean-square residual relative to the mean target — a fit
    #: quality measure that, unlike R², stays meaningful when the target
    #: is nearly constant (R² compares against the mean predictor, which
    #: is unbeatable on flat data).
    rel_rmse: float = float("inf")

    @property
    def names(self) -> tuple[str, ...]:
        """Names of the basis terms, in coefficient order."""
        return tuple(b.name for b in self.basis)

    def _u(self, x: np.ndarray | float) -> np.ndarray:
        return np.asarray(x, dtype=float) / self.x_scale

    def predict(self, x: np.ndarray | float) -> np.ndarray | float:
        """Model value at raw block size(s) ``x``."""
        u = self._u(x)
        out = sum(a * b.f(u) for a, b in zip(self.coefficients, self.basis))
        return float(out) if np.isscalar(x) else np.asarray(out)

    def derivative(self, x: np.ndarray | float) -> np.ndarray | float:
        """dF/dx at raw block size(s) ``x`` (chain rule over the scale)."""
        u = self._u(x)
        out = sum(a * b.df(u) for a, b in zip(self.coefficients, self.basis))
        out = out / self.x_scale
        return float(out) if np.isscalar(x) else np.asarray(out)

    def second_derivative(self, x: np.ndarray | float) -> np.ndarray | float:
        """d²F/dx² at raw block size(s) ``x``."""
        u = self._u(x)
        out = sum(a * b.d2f(u) for a, b in zip(self.coefficients, self.basis))
        out = out / self.x_scale**2
        return float(out) if np.isscalar(x) else np.asarray(out)

    def in_fitted_range(self, x: float, *, slack: float = 4.0) -> bool:
        """Whether ``x`` lies within ``slack`` times the profiled range."""
        return 0.0 <= x <= self.x_max * slack

    def describe(self) -> str:
        """Human-readable model formula."""
        terms = [
            f"{a:+.4g}*{b.name}" for a, b in zip(self.coefficients, self.basis)
        ]
        return f"F[x] = {' '.join(terms)}  (u=x/{self.x_scale:.4g}, R2={self.r2:.3f})"


def check_fit_inputs(
    x: Sequence[float],
    y: Sequence[float],
    *,
    weights: Sequence[float] | None,
    x_scale: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, float]:
    """Validated ``(x, y, weights, x_scale)`` of a fit, as arrays.

    ``x_scale`` defaults to ``max(x)``.

    Raises
    ------
    FitError
        On shape mismatches, no points, non-positive sizes, non-finite
        values, negative weights or a non-positive scale.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or xa.shape != ya.shape:
        raise FitError(f"x and y must be equal-length 1-D, got {xa.shape}, {ya.shape}")
    if xa.size == 0:
        raise FitError("cannot fit a model to zero points")
    if np.any(xa <= 0.0):
        raise FitError(f"block sizes must be positive, got {xa.min()}")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise FitError("x and y must be finite")
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != xa.shape or np.any(w < 0):
            raise FitError("weights must be non-negative and match x")
    scale = float(x_scale) if x_scale is not None else float(xa.max())
    if scale <= 0.0:
        raise FitError(f"x_scale must be positive, got {scale}")
    return xa, ya, w, scale


def fit_basis_model(
    x: Sequence[float],
    y: Sequence[float],
    basis: Sequence[BasisFunction],
    *,
    x_scale: float | None = None,
    weights: Sequence[float] | None = None,
) -> FitResult:
    """Least-squares fit of ``y`` against the basis expansion at ``x``.

    Parameters
    ----------
    x, y:
        Raw block sizes (positive) and measured seconds.
    basis:
        Basis functions to combine linearly.
    x_scale:
        Coordinate scale; defaults to ``max(x)`` so the basis sees
        ``u in (0, 1]``.
    weights:
        Optional per-point weights (e.g. to downweight stale probe
        rounds after a rebalance).

    Raises
    ------
    FitError
        If fewer points than coefficients are supplied, sizes are
        non-positive, or the numerical solve fails.
    """
    xa, ya, w, scale = check_fit_inputs(x, y, weights=weights, x_scale=x_scale)
    nb = len(basis)
    if nb == 0:
        raise FitError("basis must be non-empty")
    if xa.size < nb:
        raise FitError(
            f"{xa.size} points cannot determine {nb} coefficients"
        )
    u = xa / scale
    coef = weighted_lstsq(np.column_stack([b.f(u) for b in basis]), ya, w)
    y_hat = np.asarray(sum(a * b.f(u) for a, b in zip(coef, basis)))
    return FitResult(
        basis=tuple(basis),
        coefficients=np.asarray(coef, dtype=float),
        x_scale=scale,
        r2=r_squared(ya, y_hat),
        n_points=int(xa.size),
        x_max=float(xa.max()),
        rel_rmse=_relative_rmse(ya, y_hat),
    )


def weighted_lstsq(
    design: np.ndarray, target: np.ndarray, weights: np.ndarray | None
) -> np.ndarray:
    """Weighted least-squares coefficients of ``target`` on ``design``'s columns.

    Raises
    ------
    FitError
        If the numerical solve fails.
    """
    if weights is not None:
        w = np.sqrt(weights)
        design = design * w[:, None]
        target = target * w
    # Column scaling keeps mixed-magnitude bases (e^u vs u^3) conditioned.
    col_norms = np.linalg.norm(design, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    try:
        coef_scaled, *_ = np.linalg.lstsq(design / col_norms, target, rcond=None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - lstsq rarely raises
        raise FitError(f"least-squares solve failed: {exc}") from exc
    return coef_scaled / col_norms


def gram_scale(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stack of weighted Gram matrices ``XᵀWX`` scaled to unit diagonal.

    ``gram`` has shape ``(k, s, s)``.  Each matrix's columns are scaled
    to unit norm, as :func:`fit_basis_model` scales its design; a zero
    column keeps norm 1.  Returns ``(scaled, norms)``.  A principal
    submatrix of a scaled matrix is the scaled submatrix, so one scaling
    serves every candidate drawn from the same columns.
    """
    norms = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1))
    norms = np.where(norms == 0.0, 1.0, norms)
    return gram / (norms[:, :, None] * norms[:, None, :]), norms


def gram_factor(scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse Cholesky factors of a stack of :func:`gram_scale` matrices.

    ``scaled`` has shape ``(k, s, s)``.  Returns ``(inverse factors,
    ok)`` for :func:`gram_solve` (the systems are at most 9×9, so
    applying explicit inverses beats two triangular solves per
    right-hand side).  ``ok[i]`` is False when system ``i`` is too ill
    conditioned for the normal equations; its factor is the identity and
    the caller refits it with :func:`weighted_lstsq`.

    The stack is factored in one batched call.  One system that is not
    positive definite fails that call; :func:`_pivots_ok` then flags the
    failing systems, vectorised over the stack, and the rest are
    factored in one call again.  No system is factored on its own.
    """
    try:
        chol = np.linalg.cholesky(scaled)
        ok = np.ones(len(scaled), dtype=bool)
    except np.linalg.LinAlgError:
        ok = _pivots_ok(scaled)
        chol = np.zeros_like(scaled)
        if ok.any():
            chol[ok] = np.linalg.cholesky(scaled[ok])
    ok &= np.all(np.diagonal(chol, axis1=-2, axis2=-1) >= _MIN_PIVOT, axis=-1)
    if ok.all():
        return np.linalg.inv(chol), ok
    inv_chol = np.broadcast_to(np.eye(scaled.shape[-1]), scaled.shape).copy()
    if ok.any():
        inv_chol[ok] = np.linalg.inv(chol[ok])
    return inv_chol, ok


def _pivots_ok(scaled: np.ndarray) -> np.ndarray:
    """Which unit-diagonal matrices of a stack have every Cholesky pivot >= :data:`_MIN_PIVOT`.

    A column loop of the factorisation, vectorised over the stack.  The
    systems are independent, so one that fails (a negative or tiny
    pivot) runs on to NaN or inf without touching the others.
    """
    work = scaled.copy()
    ok = np.ones(len(work), dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(work.shape[-1]):
            pivot = np.sqrt(work[:, j, j])
            ok &= pivot >= _MIN_PIVOT
            if not ok.any():
                break
            row = work[:, j, j:] / pivot[:, None]
            # the trailing block stays symmetric: row j holds column j
            work[:, j:, j:] -= row[:, :, None] * row[:, None, :]
    return ok


def gram_solve(inv_chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``scaled @ z = rhs`` for each system of a :func:`gram_factor` stack.

    ``rhs`` has shape ``(k, s)``: ``XᵀWy / norms``, or ``XᵀWr / norms``
    for a refinement step on residuals ``r``; the coefficients are
    ``z / norms``.  Systems that are not ``ok`` get meaningless values.
    """
    half = inv_chol @ rhs[:, :, None]
    return (np.swapaxes(inv_chol, -1, -2) @ half)[:, :, 0]
