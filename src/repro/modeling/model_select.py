"""Model selection over the candidate basis subsets.

The paper fits "a curve that best represents the measured times" from
the eq. (1) family and accepts it once R² >= 0.7.  Fitting all eight
family members to the four initial probe points would interpolate
exactly (8 coefficients, 4 points) and report a meaningless R² = 1, so —
like any careful implementation — we fit a ladder of candidate subsets
(:data:`repro.modeling.basis.CANDIDATE_MODELS`), skip candidates with
more coefficients than points, and select by *adjusted* R², which
penalises extra terms and prevents overfitting (the stated purpose of
the paper's 0.7 threshold).

All candidates are subsets of one basis family, so one fit shares one
design: the union's columns are evaluated once, the weighted Gram
matrix ``XᵀWX`` and ``XᵀWy`` are formed once, and each candidate is
solved from its Gram submatrix by Cholesky, plus one refinement step
(:mod:`repro.modeling.least_squares`).  Residuals and the sanity checks
of every candidate are then a few matrix products.  A candidate whose
Gram submatrix is too ill conditioned for Cholesky is refitted by
``lstsq`` instead.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import FitError
from repro.modeling.basis import CANDIDATE_MODELS, BasisFunction
from repro.modeling.least_squares import (
    FitResult,
    check_fit_inputs,
    fit_basis_model,
    gram_factor,
    gram_solve,
    weighted_lstsq,
)

__all__ = ["select_model", "adjusted_r2"]

#: Adjusted-R² window within which a smaller model beats a bigger one.
PARSIMONY_TOL = 1e-3

#: Assignments may extrapolate this far past the profiled range; the
#: sanity check spans it.
EXTRAPOLATION_SLACK = 4.0

#: The sanity-check grid in units of ``x_max``, plus ``x_max`` itself last.
_GRID = np.append(np.linspace(1e-3, EXTRAPOLATION_SLACK, 65), 1.0)


def adjusted_r2(r2: float, n_points: int, n_params: int) -> float:
    """Adjusted coefficient of determination.

    ``1 - (1 - r2) * (n - 1) / (n - p - 1)``; falls back to plain R²
    when the correction is undefined (``n <= p + 1``).
    """
    if n_points <= n_params + 1:
        return r2
    return 1.0 - (1.0 - r2) * (n_points - 1) / (n_points - n_params - 1)


def _is_sane(fit: FitResult) -> bool:
    """Reject physically implausible execution-time curves.

    A real execution-time model is positive, non-decreasing in block
    size, and grows at most polynomially-gently: processing k times the
    data takes at most ~k² as long (cache falloff is bounded; nothing in
    a data-parallel kernel is exponential in the *block size*).
    Flexible candidates (cubics, exponentials) can match the training
    points perfectly yet swing negative, downward, or astronomically
    upward just beyond them, which would poison the block-size solver;
    those are filtered here.  The check spans the fitted range plus the
    extrapolation slack the selection phase is allowed to use
    (:data:`EXTRAPOLATION_SLACK`).
    """
    coef = np.asarray(fit.coefficients, dtype=float)[:, None]
    return bool(_sane_columns(coef, _plan([fit.basis]), fit.x_max, fit.x_scale)[0])


def _clamped_linear_fit(
    xa: np.ndarray, ya: np.ndarray, x_scale: float | None
) -> FitResult | None:
    """Non-negative least squares over inherently monotone bases.

    Any non-negative combination of ``{1, x, x^2, x^3, sqrt x}`` is
    positive and non-decreasing on (0, inf), so this fit is sane by
    construction — the safety net when every unconstrained candidate
    fails the physical-sanity check (typical for strongly convex CPU
    cache-pressure curves, whose best affine fit has a negative
    intercept).
    """
    from scipy.optimize import nnls

    from repro.modeling.basis import CONSTANT, CUBE, LINEAR, SQRT, SQUARE
    from repro.modeling.least_squares import _relative_rmse, r_squared

    basis = (CONSTANT, LINEAR, SQUARE, CUBE, SQRT)
    scale = float(x_scale) if x_scale is not None else float(xa.max())
    if scale <= 0.0 or np.any(xa <= 0.0):
        return None
    u = xa / scale
    design = np.column_stack([b.f(u) for b in basis])
    col_norms = np.linalg.norm(design, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    try:
        coef_scaled, _ = nnls(design / col_norms, ya)
    except Exception:
        return None
    coef = coef_scaled / col_norms
    if not np.any(coef > 0.0):
        # degenerate all-zero model: use the mean as a constant floor
        coef = np.zeros(len(basis))
        coef[0] = max(float(ya.mean()), 1e-12)
    y_hat = design @ coef
    return FitResult(
        basis=basis,
        coefficients=coef,
        x_scale=scale,
        r2=r_squared(ya, y_hat),
        n_points=int(xa.size),
        x_max=float(xa.max()),
        rel_rmse=_relative_rmse(ya, y_hat),
    )


class _Plan(NamedTuple):
    """What a candidate set's fits share, whatever the data."""

    #: every basis function the candidates use, in first-use order
    union: tuple[BasisFunction, ...]
    #: ``(candidate indices, their columns in the union)`` per term
    #: count, so one stacked solve handles every candidate of a size
    groups: list[tuple[np.ndarray, np.ndarray]]
    #: :func:`_grid_tables` of the union for ``x_scale = x_max``
    grid: tuple[np.ndarray, np.ndarray]
    #: number of candidates
    size: int


def _grid_tables(
    union: tuple[BasisFunction, ...], ratio: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Basis values and u-derivatives on the sanity grid, ``u = ratio * _GRID``.

    ``ratio`` is ``x_max / x_scale``.
    """
    u = _GRID * ratio
    return (
        np.column_stack([b.f(u) for b in union]),
        np.column_stack([b.df(u) for b in union]),
    )


def _plan(candidates: Sequence[Sequence[BasisFunction]]) -> _Plan:
    union = tuple(dict.fromkeys(b for cand in candidates for b in cand))
    if not union:
        raise FitError("every candidate model is empty")
    column = {b: j for j, b in enumerate(union)}
    cols = [[column[b] for b in cand] for cand in candidates]
    groups = []
    for size in sorted({len(c) for c in cols if c}):
        members = [k for k, c in enumerate(cols) if len(c) == size]
        groups.append((np.array(members), np.array([cols[k] for k in members])))
    return _Plan(union, groups, _grid_tables(union), len(cols))


@functools.cache
def _default_plan() -> _Plan:
    # built on first use, not at import: it costs the CLI's start-up
    return _plan(CANDIDATE_MODELS)


def _sane_columns(
    coef: np.ndarray, plan: _Plan, x_max: float, scale: float
) -> np.ndarray:
    """:func:`_is_sane` for every column of ``coef`` (union × candidates).

    The same checks on the same grid, as matrix products: positive
    values, slopes no more negative than floating-point noise, and
    growth over the extrapolation slack bounded by its square.
    """
    if x_max == scale:
        values, slopes = plan.grid
    else:
        values, slopes = _grid_tables(plan.union, x_max / scale)
    # a basis column that is non-finite on the grid fails exactly the
    # candidates that use it
    bad = ~(np.isfinite(values).all(axis=0) & np.isfinite(slopes).all(axis=0))
    if bad.any():
        values = np.where(bad, 0.0, values)
        slopes = np.where(bad, 0.0, slopes)
    f = values @ coef
    at_edge, f = f[-1], f[:-1]
    df = (slopes[:-1] @ coef) / scale
    sane = ~(coef[bad] != 0.0).any(axis=0)
    sane &= np.isfinite(f).all(axis=0) & (f > 0.0).all(axis=0)
    tol = -1e-9 * np.maximum(np.abs(f).max(axis=0), 1.0) / max(x_max, 1.0)
    sane &= (df >= tol).all(axis=0)
    # growth bound: F(slack * x_max) <= slack^2 * F(x_max)
    sane &= ~((at_edge > 0.0) & (f[-1] > EXTRAPOLATION_SLACK**2 * at_edge))
    return sane


def _candidate_fits(
    xa: np.ndarray, ya: np.ndarray, w: np.ndarray | None, scale: float, plan: _Plan
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares fit of every candidate with fewer terms than points.

    Returns the fitted candidates' indices, the design over the basis
    union and the coefficient matrix (union × fitted candidates, zero
    off each candidate's own terms).
    """
    design = np.column_stack([b.f(xa / scale) for b in plan.union])
    finite = np.isfinite(design).all(axis=0)
    design = np.where(finite, design, 0.0)
    weighted = design if w is None else design * w[:, None]
    gram = design.T @ weighted
    rhs = weighted.T @ ya

    coef = np.zeros((len(plan.union), plan.size))
    fitted = np.zeros(plan.size, dtype=bool)
    solves = []
    for members, cols in plan.groups:
        keep = finite[cols].all(axis=1) & (cols.shape[1] < xa.size)
        members, cols = members[keep], cols[keep]
        if members.size:
            factor = gram_factor(gram[cols[:, :, None], cols[:, None, :]])
            coef[cols, members[:, None]] = gram_solve(factor, rhs[cols])
            fitted[members] = True
            solves.append((members, cols, factor))
    # One refinement step on the residuals, taken in data space, wins
    # back the accuracy the normal equations lose by squaring the
    # condition number.
    gradient = weighted.T @ (ya[:, None] - design @ coef)
    for members, cols, factor in solves:
        coef[cols, members[:, None]] += gram_solve(factor, gradient[cols, members[:, None]])
        ok = factor[2]
        for k, kcols in zip(members[~ok], cols[~ok]):
            try:
                coef[kcols, k] = weighted_lstsq(design[:, kcols], ya, w)
            except FitError:
                coef[kcols, k] = 0.0
                fitted[k] = False
    fitted_idx = np.flatnonzero(fitted)
    return fitted_idx, design, coef[:, fitted_idx]


def select_model(
    x: Sequence[float],
    y: Sequence[float],
    *,
    candidates: Sequence[Sequence[BasisFunction]] = CANDIDATE_MODELS,
    weights: Sequence[float] | None = None,
    x_scale: float | None = None,
    require_sane: bool = True,
) -> FitResult:
    """Fit every supportable candidate and return the best.

    "Best" is the highest adjusted R² among *sane* candidates (positive
    and non-decreasing over the usable range — see :func:`_is_sane`);
    ties (within 1e-9) go to the candidate with fewer coefficients.  If
    no candidate is sane the best insane one is returned rather than
    failing (the R² threshold loop in Algorithm 1 will keep probing).
    Requires at least two points.

    Raises
    ------
    FitError
        If no candidate can be fitted (fewer than 2 points, or every
        candidate larger than the point count).
    """
    xa, ya, w, scale = check_fit_inputs(x, y, weights=weights, x_scale=x_scale)
    if xa.size < 2:
        raise FitError(f"model selection needs >= 2 points, got {xa.size}")
    plan = _default_plan() if candidates is CANDIDATE_MODELS else _plan(candidates)
    # Strictly require n_points > n_params for selection candidates so the
    # reported R2 reflects generalisation, not interpolation.  (A 2-term
    # candidate therefore needs 3 points; with exactly 2 points we fall
    # back to the interpolating linear fit below.)
    fitted, design, coef = _candidate_fits(xa, ya, w, scale, plan)
    x_max = float(xa.max())
    residuals = ya[:, None] - design @ coef
    ss_res = np.sum(residuals**2, axis=0)
    ss_tot = float(np.sum((ya - ya.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = np.where(ss_res < 1e-24, 1.0, 0.0)
    else:
        r2 = 1.0 - ss_res / ss_tot
    denom = float(np.mean(np.abs(ya)))
    if denom == 0.0:
        rel_rmse = np.where(np.abs(residuals).max(axis=0) == 0.0, 0.0, np.inf)
    else:
        rel_rmse = np.sqrt(np.mean(residuals**2, axis=0)) / denom
    sane = (
        _sane_columns(coef, plan, x_max, scale)
        if require_sane
        else np.ones(len(fitted), dtype=bool)
    )

    def result(j: int) -> FitResult:
        cand = tuple(candidates[fitted[j]])
        return FitResult(
            basis=cand,
            coefficients=coef[[plan.union.index(b) for b in cand], j],
            x_scale=scale,
            r2=float(r2[j]),
            n_points=int(xa.size),
            x_max=x_max,
            rel_rmse=float(rel_rmse[j]),
        )

    scores = [
        adjusted_r2(float(r2[j]), int(xa.size), len(candidates[k]))
        for j, k in enumerate(fitted)
    ]
    sane_fits = [j for j in range(len(fitted)) if sane[j]]
    if sane_fits:
        # Parsimony window: flexible candidates (cubics, exponentials)
        # routinely edge out the true model by a hair of adjusted R2 while
        # extrapolating far worse, so among candidates within
        # PARSIMONY_TOL of the best score we keep the smallest model.
        top = max(scores[j] for j in sane_fits)
        near_best = [j for j in sane_fits if scores[j] >= top - PARSIMONY_TOL]
        near_best.sort(key=lambda j: (len(candidates[fitted[j]]), -scores[j]))
        return result(near_best[0])
    if fitted.size:
        # Every candidate is unphysical somewhere in the usable range
        # (e.g. strongly convex data pushes every affine fit's intercept
        # negative).  A coefficient-clamped linear model is always sane
        # and beats handing the solver a curve that goes negative.
        clamped = _clamped_linear_fit(xa, ya, x_scale)
        if clamped is not None:
            return clamped
        # the first of the best-scoring insane candidates
        return result(int(np.argmax(scores)))
    # Too few points for any strict candidate: fall back to the
    # smallest candidate that is exactly determined (interpolation),
    # flagged by r2 of the interpolating fit.
    for cand in sorted(candidates, key=len):
        if len(cand) > xa.size:
            continue
        try:
            return fit_basis_model(x, y, cand, weights=weights, x_scale=x_scale)
        except FitError:
            continue
    raise FitError(
        f"no candidate model supportable with {xa.size} points"
    )
