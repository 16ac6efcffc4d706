"""The shared-design fit in ``select_model`` against the per-candidate lstsq fit.

``select_model`` evaluates the basis union once, forms one weighted Gram
matrix and solves every candidate from its submatrix by Cholesky.  The
reference below is the per-candidate path it replaces: one
:func:`fit_basis_model` (column-scaled ``lstsq``) and one sanity grid per
candidate.  Every fit must pick the same basis with coefficients equal to
1e-9 relative.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.modeling.perf_profile as perf_profile
from repro.errors import FitError
from repro.modeling.basis import CANDIDATE_MODELS, CONSTANT, CUBE, LINEAR, SQRT, SQUARE
from repro.modeling.least_squares import FitResult, fit_basis_model
from repro.modeling.model_select import (
    PARSIMONY_TOL,
    _clamped_linear_fit,
    adjusted_r2,
    select_model,
)

#: The NNLS fallback's basis.
CLAMPED_BASIS = (CONSTANT, LINEAR, SQUARE, CUBE, SQRT)


def _reference_sane(fit: FitResult, slack: float = 4.0) -> bool:
    grid = np.linspace(fit.x_max * 1e-3, fit.x_max * slack, 65)
    values = np.asarray(fit.predict(grid))
    if np.any(~np.isfinite(values)) or np.any(values <= 0.0):
        return False
    slopes = np.asarray(fit.derivative(grid))
    tol = -1e-9 * max(abs(values).max(), 1.0) / max(fit.x_max, 1.0)
    if not np.all(slopes >= tol):
        return False
    at_edge = float(fit.predict(fit.x_max))
    at_far = float(fit.predict(fit.x_max * slack))
    return not (at_edge > 0.0 and at_far > slack**2 * at_edge)


def reference_select(x, y, weights=None) -> FitResult:
    """Per-candidate selection: one lstsq fit and one sanity grid each."""
    xa = np.asarray(x, dtype=float)
    sane_fits, fallback, fallback_score = [], None, -np.inf
    for cand in CANDIDATE_MODELS:
        if len(cand) >= xa.size:
            continue
        fit = fit_basis_model(x, y, cand, weights=weights)
        score = adjusted_r2(fit.r2, fit.n_points, len(cand))
        if not _reference_sane(fit):
            if score > fallback_score:
                fallback, fallback_score = fit, score
            continue
        sane_fits.append((score, fit))
    if sane_fits:
        top = max(score for score, _ in sane_fits)
        near = [sf for sf in sane_fits if sf[0] >= top - PARSIMONY_TOL]
        near.sort(key=lambda sf: (len(sf[1].basis), -sf[0]))
        return near[0][1]
    if fallback is not None:
        return _clamped_linear_fit(xa, np.asarray(y, dtype=float), None) or fallback
    for cand in sorted(CANDIDATE_MODELS, key=len):
        if len(cand) <= xa.size:
            return fit_basis_model(x, y, cand, weights=weights)
    raise FitError("no candidate")


def assert_same_fit(x, y, weights=None) -> FitResult:
    got = select_model(x, y, weights=weights)
    want = reference_select(x, y, weights=weights)
    assert got.names == want.names
    a = np.asarray(got.coefficients)
    b = np.asarray(want.coefficients)
    assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))
    # absolute: near-flat data puts R² close to 0 with ss_tot ~ 1e-11
    assert got.r2 == pytest.approx(want.r2, rel=0, abs=1e-9)
    assert got.rel_rmse == pytest.approx(want.rel_rmse, rel=1e-6, abs=1e-12)
    assert (got.x_scale, got.x_max, got.n_points) == (
        want.x_scale,
        want.x_max,
        want.n_points,
    )
    return got


def decay_weights(n: int, decay: float) -> np.ndarray:
    """``PerfProfile.fit``'s recency weights."""
    return decay ** np.arange(n - 1, -1, -1, dtype=float)


def record_fits(monkeypatch) -> list:
    """Capture every ``(x, y, weights)`` a ``PerfProfile.fit`` selects on."""
    calls = []
    original = perf_profile.select_model

    def recording(x, y, **kwargs):
        weights = kwargs.get("weights")
        calls.append((np.array(x), np.array(y), None if weights is None else np.array(weights)))
        return original(x, y, **kwargs)

    monkeypatch.setattr(perf_profile, "select_model", recording)
    return calls


@pytest.fixture(scope="module")
def serve_fits():
    """Profile sets a short seeded serve episode fits on."""
    from repro.service import ArrivalSpec, ClusterService, ServiceConfig

    with pytest.MonkeyPatch.context() as mp:
        calls = record_fits(mp)
        ClusterService(
            ServiceConfig(
                arrivals=ArrivalSpec(rate=16, duration=20),
                machines=2,
                policy="plb-hec",
                queue_limit=64,
                shed_policy="reject",
                seed=0,
            )
        ).run()
    assert len(calls) > 50
    return calls


@pytest.fixture(scope="module")
def batch_fits():
    """Weighted fits (decay 0.97 and, after a transient, 0.6) of batch PLB-HeC."""
    from repro.cluster import GroundTruth, paper_cluster
    from repro.experiments.runner import FIXED_OVERHEAD_S, make_application, make_policy
    from repro.runtime import Runtime
    from repro.runtime.sim_executor import TransientFailure

    app = make_application("matmul", 2048)
    cluster = paper_cluster(2)
    with pytest.MonkeyPatch.context() as mp:
        calls = record_fits(mp)
        policy = make_policy(
            "plb-hec",
            ground_truth=GroundTruth(cluster, app.kernel_characteristics()),
            fixed_overhead_s=FIXED_OVERHEAD_S,
        )
        Runtime(
            cluster,
            app.codelet(),
            seed=0,
            transients=(TransientFailure("B.gpu0", 0.05, 0.02),),
        ).run(policy, app.total_units, app.default_initial_block_size())
    decays = {
        round(float(w[-2]), 6) for _, _, w in calls if w is not None and w.size > 1
    }
    assert decays == {0.97, 0.6}
    return calls


class TestAgainstLstsqReference:
    def test_fig1_profiles(self, monkeypatch):
        from repro.experiments.fig1_models import run_fig1

        calls = record_fits(monkeypatch)
        run_fig1(devices=("A.cpu", "A.gpu0", "B.cpu", "B.gpu0"))
        assert len(calls) == 8
        for x, y, w in calls:
            assert_same_fit(x, y, w)

    @pytest.mark.parametrize(
        "x, y",
        [
            ([8.0, 16.0, 64.0, 256.0, 1024.0], [0.5 + 0.01 * u for u in (8, 16, 64, 256, 1024)]),
            ([8.0, 16.0, 64.0, 256.0, 512.0, 1024.0],
             [0.5 + 0.01 * u + 2e-5 * u * u for u in (8, 16, 64, 256, 512, 1024)]),
            ([1.0, 2.0, 4.0, 8.0], [1.0, 1.001, 1.002, 1.004]),
            ([1.0, 10.0, 50.0, 100.0], [1.0 + 0.1 * u + 0.001 * u * u for u in (1, 10, 50, 100)]),
            ([1.0, 5.0, 20.0, 60.0, 100.0], [1.0 + u - 1e-4 * u**3 for u in (1, 5, 20, 60, 100)]),
            ([10.0, 20.0], [1.0, 2.0]),
            ([10.0, 20.0, 40.0], [1.0, 2.0, 4.5]),
        ],
    )
    def test_modeling_fixtures(self, x, y):
        assert_same_fit(x, y)

    def test_noisy_linear_fixture(self):
        rng = np.random.default_rng(0)
        x = np.array([8.0, 16.0, 64.0, 256.0, 512.0, 1024.0])
        assert_same_fit(x, (0.5 + 0.01 * x) * np.exp(rng.normal(0, 0.01, x.size)))

    def test_explicit_weights_fixture(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        y = np.array([1.0, 2.0, 4.0, 8.0, 100.0])
        assert_same_fit(x, y, np.array([1, 1, 1, 1, 1e-12]))

    @pytest.mark.parametrize("power", [2.5, 3.0])
    def test_nnls_clamped_fallback(self, power):
        # strongly convex data: every unconstrained candidate goes
        # negative near zero or grows past the bound, so both paths take
        # the NNLS fallback.  (Exact x^2 data is avoided: its quadratic
        # fit sits exactly on the growth bound, where rounding decides.)
        x = np.array([100.0, 200.0, 400.0, 800.0])
        fit = assert_same_fit(x, 1e-6 * x**power)
        assert fit.basis == CLAMPED_BASIS

    @given(
        st.lists(st.integers(1, 100_000), min_size=3, max_size=12, unique=True),
        st.floats(1e-6, 1e2),
        st.floats(0.0, 10.0),
        st.floats(0.0, 0.05),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_noisy_affine(self, sizes, slope, b, sigma, seed):
        rng = np.random.default_rng(seed)
        x = np.array(sorted(sizes), dtype=float)
        assert_same_fit(x, (b + 1e-3 + slope * x) * np.exp(rng.normal(0, sigma, x.size)))

    def test_serve_episode_profiles(self, serve_fits):
        for x, y, w in serve_fits:
            assert_same_fit(x, y, w)

    @pytest.mark.parametrize("decay", [0.97, 0.6])
    def test_serve_profiles_weighted(self, serve_fits, decay):
        for x, y, _ in serve_fits[::4]:
            assert_same_fit(x, y, decay_weights(x.size, decay))

    def test_batch_weighted_fits(self, batch_fits):
        for x, y, w in batch_fits:
            assert_same_fit(x, y, w)
