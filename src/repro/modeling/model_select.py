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
design, and a group of fits shares one pass: :func:`select_models`
stacks the members' union columns into a padded design ``(D, n_max,
s)``, forms the weighted Gram stack ``XᵀWX`` once, and solves every
candidate of every member from its Gram submatrix by Cholesky, plus one
refinement step (:mod:`repro.modeling.least_squares`).  The candidates
of one term count are factored in one batched call over all members.
Residuals, R², the sanity checks and the selection of every member are
then a few stacked products.  A candidate whose Gram submatrix is too
ill conditioned for Cholesky is refitted by ``lstsq`` instead.
:func:`select_model` is the one-member case.
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
    gram_scale,
    gram_solve,
    weighted_lstsq,
)

__all__ = ["select_model", "select_models", "adjusted_r2"]

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
    coef = np.asarray(fit.coefficients, dtype=float)[None, :, None]
    x_max, scale = np.array([fit.x_max]), np.array([fit.x_scale])
    return bool(_sane_columns(coef, _plan([fit.basis]), x_max, scale)[0, 0])


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
    #: for every member
    groups: list[tuple[np.ndarray, np.ndarray]]
    #: ``(K, s)``: each candidate's union columns, padded with column 0,
    #: and whether each position is one of its terms
    cols: np.ndarray
    own: np.ndarray
    #: ``(K,)`` term count of each candidate
    sizes: np.ndarray
    #: :func:`_grid_tables` of the union for ``x_scale = x_max``
    grid: tuple[np.ndarray, np.ndarray]


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
    sizes = np.array([len(c) for c in cols])
    padded = np.zeros((len(cols), len(union)), dtype=int)
    own = np.arange(len(union)) < sizes[:, None]
    padded[own] = [j for c in cols for j in c]
    return _Plan(union, groups, padded, own, sizes, _grid_tables(union))


@functools.cache
def _default_plan() -> _Plan:
    # built on first use, not at import: it costs the CLI's start-up
    return _plan(CANDIDATE_MODELS)


def _sane_columns(
    coef: np.ndarray, plan: _Plan, x_max: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """:func:`_is_sane` for every candidate of every member, ``(D, K)``.

    ``coef`` is ``(D, s, K)``: each member's union coefficients, one
    column per candidate.  The same checks on the same grid, as stacked
    matrix products: positive values, slopes no more negative than
    floating-point noise, and growth over the extrapolation slack
    bounded by its square.
    """
    ratio = x_max / scale
    if np.all(ratio == 1.0):
        values, slopes = plan.grid
    else:
        tables = [plan.grid if r == 1.0 else _grid_tables(plan.union, r) for r in ratio]
        values = np.stack([t[0] for t in tables])
        slopes = np.stack([t[1] for t in tables])
    # a basis column that is non-finite on the grid fails exactly the
    # candidates that use it
    bad = ~(np.isfinite(values).all(axis=-2) & np.isfinite(slopes).all(axis=-2))
    if bad.any():
        values = np.where(bad[..., None, :], 0.0, values)
        slopes = np.where(bad[..., None, :], 0.0, slopes)
        bad = np.broadcast_to(bad, coef.shape[:2])
    f = values @ coef
    at_edge, f = f[:, -1], f[:, :-1]
    df = (slopes[..., :-1, :] @ coef) / scale[:, None, None]
    sane = np.isfinite(f).all(axis=1) & (f > 0.0).all(axis=1)
    tol = -1e-9 * np.maximum(np.abs(f).max(axis=1), 1.0) / np.maximum(x_max, 1.0)[:, None]
    sane &= (df >= tol[:, None, :]).all(axis=1)
    # growth bound: F(slack * x_max) <= slack^2 * F(x_max)
    sane &= ~((at_edge > 0.0) & (f[:, -1] > EXTRAPOLATION_SLACK**2 * at_edge))
    if bad.any():
        sane &= ~((coef != 0.0) & bad[:, :, None]).any(axis=1)
    return sane


class _Member(NamedTuple):
    """One validated fit input of a stacked selection."""

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray | None
    #: the caller's ``x_scale`` (None: ``max(x)``) and the resolved one
    x_scale: float | None
    scale: float


def _select_stack(
    members: Sequence[_Member],
    candidates: Sequence[Sequence[BasisFunction]],
    plan: _Plan,
    require_sane: bool,
) -> list[FitResult | FitError]:
    """Fit every candidate of every member in one pass and select per member.

    The members' union columns go into one padded design stack
    ``(D, n_max, s)``; padded rows are zero, so the Gram stack ``XᵀWX``
    and every residual sum see only each member's own rows.
    Coefficients are kept in union order, ``(D, s, K)``, zero off each
    candidate's own terms.  A candidate is fitted where its columns are
    finite and it has fewer terms than the member has points.

    Every coefficient is bitwise the one a one-member pass computes:
    each candidate's system is factored at its own size (the candidates
    of one term count are stacked over all members), and the right-hand
    sides, whose matrix-vector products would round differently over
    padded rows, are formed per member.
    """
    d = len(members)
    n = np.array([m.x.size for m in members])
    rows = np.arange(n.max()) < n[:, None]
    u = np.ones(rows.shape)
    u[rows] = np.concatenate([m.x for m in members]) / np.repeat(
        [m.scale for m in members], n
    )
    y = np.zeros(rows.shape)
    y[rows] = np.concatenate([m.y for m in members])
    w = rows.astype(float)
    for i, m in enumerate(members):
        if m.weights is not None:
            w[i, : n[i]] = m.weights
    design = np.stack([b.f(u) for b in plan.union], axis=-1)
    # padded rows evaluate the basis at u = 1 and are zeroed with any
    # non-finite column
    finite = (np.isfinite(design) | ~rows[:, :, None]).all(axis=1)
    design = np.where(finite[:, None, :] & rows[:, :, None], design, 0.0)
    weighted = design * w[:, :, None]
    weighted_t = np.swapaxes(weighted, 1, 2)
    gram = np.swapaxes(design, 1, 2) @ weighted
    rhs = np.stack([weighted_t[i, :, : n[i]] @ m.y for i, m in enumerate(members)])

    scaled, norms = gram_scale(gram)
    rhs = rhs / norms
    norms = norms[:, :, None]  # divides (D, s, K) union coefficients
    fitted = (finite[:, plan.cols] | ~plan.own).all(axis=2)
    fitted &= (plan.sizes > 0) & (plan.sizes < n[:, None])
    # Every (member, candidate) system of a term count in one batched
    # factorisation; each solution is scattered into its candidate's
    # union columns.
    solved = np.zeros((d, len(plan.union), len(plan.sizes)))
    factors = []
    for ks, cols in plan.groups:
        g, s = cols.shape
        if fitted[:, ks].any():
            systems = scaled[:, cols[:, :, None], cols[:, None, :]].reshape(-1, s, s)
            inv_chol, ok = gram_factor(systems)
            step = gram_solve(inv_chol, rhs[:, cols].reshape(-1, s))
            solved[:, cols, ks[:, None]] = step.reshape(d, g, s)
            factors.append((ks, cols, inv_chol, ok.reshape(d, g)))
    coef = np.where(fitted[:, None, :], solved / norms, 0.0)
    # One refinement step on the residuals, taken in data space, wins
    # back the accuracy the normal equations lose by squaring the
    # condition number.
    gradient = (weighted_t @ (y[:, :, None] - design @ coef)) / norms
    for ks, cols, inv_chol, _ in factors:
        g, s = cols.shape
        step = gram_solve(inv_chol, gradient[:, cols, ks[:, None]].reshape(-1, s))
        solved[:, cols, ks[:, None]] = step.reshape(d, g, s)
    coef += solved / norms
    for ks, cols, _, ok in factors:
        for i, j in zip(*np.nonzero(fitted[:, ks] & ~ok)):
            m, c, k = members[i], cols[j], ks[j]
            try:
                coef[i, c, k] = weighted_lstsq(design[i, : n[i]][:, c], m.y, m.weights)
            except FitError:
                fitted[i, k] = False
    coef = np.where(fitted[:, None, :], coef, 0.0)

    sizes = plan.sizes
    residuals = y[:, :, None] - design @ coef
    ss_res = np.sum(residuals**2, axis=1)
    ss_tot = np.sum(np.where(rows, y - (y.sum(axis=1) / n)[:, None], 0.0) ** 2, axis=1)[:, None]
    denom = (np.abs(y).sum(axis=1) / n)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ss_tot == 0.0, np.where(ss_res < 1e-24, 1.0, 0.0), 1.0 - ss_res / ss_tot)
        rel_rmse = np.where(
            denom == 0.0,
            np.where(np.abs(residuals).max(axis=1) == 0.0, 0.0, np.inf),
            np.sqrt(ss_res / n[:, None]) / denom,
        )
        # adjusted R², plain where the correction is undefined
        nn = n[:, None]
        scores = np.where(
            nn <= sizes + 1, r2, 1.0 - (1.0 - r2) * (nn - 1) / (nn - sizes - 1)
        )
    x_max = np.array([m.x.max() for m in members])
    sane = fitted
    if require_sane:
        sane = sane & _sane_columns(coef, plan, x_max, np.array([m.scale for m in members]))
    # Parsimony window: flexible candidates (cubics, exponentials)
    # routinely edge out the true model by a hair of adjusted R2 while
    # extrapolating far worse, so among sane candidates within
    # PARSIMONY_TOL of the best score we keep the smallest model, then
    # the best scoring, then the first.
    top = np.where(sane, scores, -np.inf).max(axis=1)
    near = sane & (scores >= top[:, None] - PARSIMONY_TOL)
    near &= sizes == np.where(near, sizes, sizes.max()).min(axis=1)[:, None]
    best = np.where(near, scores, -np.inf).max(axis=1)
    pick = np.where(
        sane.any(axis=1),
        np.argmax(near & (scores == best[:, None]), axis=1),
        # no sane candidate: the first of the best-scoring insane ones
        np.argmax(np.where(fitted, scores, -np.inf), axis=1),
    )

    results: list[FitResult | FitError] = []
    for i, m in enumerate(members):
        if not fitted[i].any():
            results.append(_interpolate(m, candidates))
            continue
        if not sane[i].any():
            # Every candidate is unphysical somewhere in the usable range
            # (e.g. strongly convex data pushes every affine fit's
            # intercept negative).  A coefficient-clamped linear model is
            # always sane and beats handing the solver a curve that goes
            # negative.
            clamped = _clamped_linear_fit(m.x, m.y, m.x_scale)
            if clamped is not None:
                results.append(clamped)
                continue
        k = pick[i]
        results.append(
            FitResult(
                basis=tuple(candidates[k]),
                coefficients=coef[i, plan.cols[k, : sizes[k]], k],
                x_scale=m.scale,
                r2=float(r2[i, k]),
                n_points=int(n[i]),
                x_max=float(x_max[i]),
                rel_rmse=float(rel_rmse[i, k]),
            )
        )
    return results


def _interpolate(
    m: _Member, candidates: Sequence[Sequence[BasisFunction]]
) -> FitResult | FitError:
    """The smallest exactly determined candidate, for too few points.

    With too few points for any strict candidate, the interpolating fit
    is the answer, flagged by its own R².
    """
    for cand in sorted(candidates, key=len):
        if len(cand) > m.x.size:
            continue
        try:
            return fit_basis_model(m.x, m.y, cand, weights=m.weights, x_scale=m.x_scale)
        except FitError:
            continue
    return FitError(f"no candidate model supportable with {m.x.size} points")


def select_models(
    xs: Sequence[Sequence[float]],
    ys: Sequence[Sequence[float]],
    *,
    weights: Sequence[Sequence[float] | None] | None = None,
    x_scales: Sequence[float | None] | None = None,
    candidates: Sequence[Sequence[BasisFunction]] = CANDIDATE_MODELS,
    require_sane: bool = True,
) -> list[FitResult | FitError]:
    """:func:`select_model` for a group of fit inputs, in one stacked pass.

    ``xs[i]``, ``ys[i]``, ``weights[i]`` and ``x_scales[i]`` are member
    ``i``'s arguments to :func:`select_model`.  Returns one entry per
    member: its selected :class:`FitResult`, or the :class:`FitError`
    that member alone raises (a failing member never fails the group).
    """
    count = len(xs)
    weights = [None] * count if weights is None else weights
    x_scales = [None] * count if x_scales is None else x_scales
    if not len(ys) == len(weights) == len(x_scales) == count:
        raise FitError("every member needs x, y, weights and x_scale")
    results: list[FitResult | FitError | None] = [None] * count
    members, where = [], []
    for i in range(count):
        try:
            x, y, w, scale = check_fit_inputs(
                xs[i], ys[i], weights=weights[i], x_scale=x_scales[i]
            )
            if x.size < 2:
                raise FitError(f"model selection needs >= 2 points, got {x.size}")
        except FitError as exc:
            results[i] = exc
            continue
        members.append(_Member(x, y, w, x_scales[i], scale))
        where.append(i)
    if members:
        plan = _default_plan() if candidates is CANDIDATE_MODELS else _plan(candidates)
        # Strictly require n_points > n_params for selection candidates
        # so the reported R2 reflects generalisation, not interpolation.
        # (A 2-term candidate therefore needs 3 points; with exactly 2
        # points the interpolating linear fit is the answer.)
        for i, fit in zip(where, _select_stack(members, candidates, plan, require_sane)):
            results[i] = fit
    return results


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
    Requires at least two points.  This is the one-member case of
    :func:`select_models`.

    Raises
    ------
    FitError
        If no candidate can be fitted (fewer than 2 points, or every
        candidate larger than the point count).
    """
    (fit,) = select_models(
        [x],
        [y],
        weights=[weights],
        x_scales=[x_scale],
        candidates=candidates,
        require_sane=require_sane,
    )
    if isinstance(fit, FitError):
        raise fit
    return fit
