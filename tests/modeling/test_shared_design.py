"""The shared-design fit in ``select_model`` against the per-candidate lstsq fit.

``select_model`` evaluates the basis union once, forms one weighted Gram
matrix and solves every candidate from its submatrix by Cholesky.  The
reference below is the per-candidate path it replaces: one
:func:`fit_basis_model` (column-scaled ``lstsq``) and one sanity grid per
candidate.  Every fit must pick the same basis with coefficients equal to
1e-9 relative.

``select_models`` stacks a group of fit inputs into one pass;
``select_model`` is its one-member case.  A group's results must equal
each member's own fit: the same basis, coefficients, R² and relative
RMSE equal to 1e-9, and a member that cannot be fitted fails alone.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.modeling.perf_profile as perf_profile
from repro.errors import FitError
from repro.modeling.basis import (
    ALL_BASIS,
    CANDIDATE_MODELS,
    CONSTANT,
    CUBE,
    LINEAR,
    SQRT,
    SQUARE,
)
from repro.modeling.least_squares import (
    FitResult,
    fit_basis_model,
    gram_factor,
    gram_scale,
    gram_solve,
)
from repro.modeling.model_select import (
    PARSIMONY_TOL,
    _clamped_linear_fit,
    adjusted_r2,
    select_model,
    select_models,
)
from repro.modeling.perf_profile import PerfProfile, ProfileGroup

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
    original = perf_profile.select_models

    def recording(xs, ys, **kwargs):
        for x, y, w in zip(xs, ys, kwargs["weights"]):
            calls.append((np.array(x), np.array(y), None if w is None else np.array(w)))
        return original(xs, ys, **kwargs)

    monkeypatch.setattr(perf_profile, "select_models", recording)
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


def assert_close_fit(got: FitResult, want: FitResult) -> None:
    """Same basis; coefficients, R² and relative RMSE equal to 1e-9."""
    assert got.names == want.names
    a = np.asarray(got.coefficients)
    b = np.asarray(want.coefficients)
    assert np.max(np.abs(a - b)) <= 1e-9 * max(np.max(np.abs(b)), 1e-300)
    assert got.r2 == pytest.approx(want.r2, rel=0, abs=1e-9)
    assert got.rel_rmse == pytest.approx(want.rel_rmse, rel=1e-9, abs=1e-12)
    assert (got.x_scale, got.x_max, got.n_points) == (
        want.x_scale,
        want.x_max,
        want.n_points,
    )


def assert_stack_matches(xs, ys, weights=None, x_scales=None, candidates=CANDIDATE_MODELS):
    """``select_models`` on the group equals ``select_model`` per member."""
    count = len(xs)
    weights = [None] * count if weights is None else weights
    x_scales = [None] * count if x_scales is None else x_scales
    stacked = select_models(
        xs, ys, weights=weights, x_scales=x_scales, candidates=candidates
    )
    assert len(stacked) == count
    for x, y, w, s, got in zip(xs, ys, weights, x_scales, stacked):
        try:
            want = select_model(x, y, weights=w, x_scale=s, candidates=candidates)
        except FitError as exc:
            assert isinstance(got, FitError)
            assert str(got) == str(exc)
            continue
        assert isinstance(got, FitResult)
        assert_close_fit(got, want)
    return stacked


#: member data families: affine, convex, concave and log-like timing curves
FAMILIES = (
    lambda x: 0.5 + 0.01 * x,
    lambda x: 0.1 + 1e-3 * x + 2e-7 * x * x,
    lambda x: 0.2 + 0.05 * np.sqrt(x),
    lambda x: 1.0 + 0.3 * np.log(x),
    lambda x: 1e-6 * x**2.5,
)


@st.composite
def fit_groups(draw):
    """1–8 members of differing lengths, some weighted, some explicitly scaled."""
    members = []
    for _ in range(draw(st.integers(1, 8))):
        sizes = draw(st.lists(st.integers(1, 50_000), min_size=2, max_size=40, unique=True))
        x = np.array(sizes, dtype=float)
        family = FAMILIES[draw(st.integers(0, len(FAMILIES) - 1))]
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        y = family(x) * np.exp(rng.normal(0.0, draw(st.floats(0.0, 0.05)), x.size))
        decay = draw(st.sampled_from([1.0, 0.97, 0.6]))
        weights = None if decay == 1.0 else decay_weights(x.size, decay)
        x_scale = draw(st.sampled_from([None, None, float(x.max()), 2.0 * float(x.max())]))
        members.append((x, y, weights, x_scale))
    return [list(column) for column in zip(*members)]


class TestStackedGroupFit:
    """One stacked pass over a group equals each member's own fit."""

    @given(fit_groups())
    @settings(max_examples=60, deadline=None)
    def test_property_groups(self, group):
        xs, ys, weights, x_scales = group
        assert_stack_matches(xs, ys, weights, x_scales)

    def test_differing_lengths_and_decay(self):
        rng = np.random.default_rng(1)
        xs = [np.sort(rng.choice(np.arange(1, 5000), n, replace=False)).astype(float)
              for n in (3, 9, 17, 64, 200)]
        ys = [(0.3 + 2e-3 * x) * np.exp(rng.normal(0, 0.02, x.size)) for x in xs]
        assert_stack_matches(xs, ys)
        assert_stack_matches(xs, ys, [decay_weights(x.size, 0.6) for x in xs])

    def test_explicit_x_scale(self):
        x = np.array([8.0, 16.0, 64.0, 256.0, 1024.0])
        y = 0.5 + 0.01 * x
        assert_stack_matches([x, x, x * 2], [y, y * 1.5, y], x_scales=[2048.0, None, 100.0])

    def test_two_point_members_interpolate(self):
        # too few points for any strict candidate: the exactly determined
        # (1, x) fit, member by member
        xs = [np.array([10.0, 20.0]), np.array([8.0, 16.0, 64.0, 256.0]), np.array([5.0, 50.0])]
        ys = [np.array([1.0, 2.0]), 0.5 + 0.01 * xs[1], np.array([3.0, 3.5])]
        fits = assert_stack_matches(xs, ys)
        assert fits[0].names == ("1", "x") and fits[2].names == ("1", "x")

    def test_two_point_members_raise_alone(self):
        # with no candidate of two terms, a 2-point member has no model;
        # its FitError is its own and the rest of the group still fits
        candidates = [(CONSTANT, LINEAR, SQUARE), (CONSTANT, LINEAR, SQRT)]
        xs = [np.array([10.0, 20.0]), np.array([8.0, 16.0, 64.0, 256.0, 1024.0]), np.array([1.0])]
        ys = [np.array([1.0, 2.0]), 0.5 + 0.01 * xs[1], np.array([1.0])]
        fits = assert_stack_matches(xs, ys, candidates=candidates)
        assert isinstance(fits[0], FitError) and isinstance(fits[2], FitError)
        assert isinstance(fits[1], FitResult)

    def test_all_insane_group_takes_nnls(self):
        x = np.array([100.0, 200.0, 400.0, 800.0])
        xs = [x, x * 2, x * 3]
        ys = [1e-6 * xs[0] ** 2.5, 3e-6 * xs[1] ** 3.0, 2e-6 * xs[2] ** 2.5]
        for fit in assert_stack_matches(xs, ys):
            assert fit.basis == CLAMPED_BASIS

    def test_ill_conditioned_all_basis(self, monkeypatch):
        # many points on (0, 1]: the 9-term union's Gram system is flagged
        # and refitted by lstsq, in the stacked pass as alone
        import repro.modeling.model_select as model_select

        refits = []
        original = model_select.weighted_lstsq

        def counting(design, target, weights):
            refits.append(design.shape[1])
            return original(design, target, weights)

        monkeypatch.setattr(model_select, "weighted_lstsq", counting)
        rng = np.random.default_rng(3)
        xs = [np.linspace(100.0, 20_000.0, n) for n in (30, 45, 60)]
        ys = [(0.2 + 1e-4 * x) * np.exp(rng.normal(0, 0.01, x.size)) for x in xs]
        assert_stack_matches(xs, ys)
        assert len(ALL_BASIS) in refits

    def test_serve_profiles_bitwise(self, serve_fits):
        # the stacked pass factors each candidate at its own size, so a
        # group's coefficients are the one-member fit's, bit for bit
        for start in range(0, len(serve_fits), 4):
            xs, ys, ws = (list(column) for column in zip(*serve_fits[start : start + 4]))
            for got, x, y, w in zip(select_models(xs, ys, weights=ws), xs, ys, ws):
                want = select_model(x, y, weights=w)
                assert got.names == want.names
                assert np.array_equal(got.coefficients, want.coefficients)


class TestGramFactor:
    def spd_stack(self, count, size, seed=0):
        rng = np.random.default_rng(seed)
        design = rng.normal(size=(count, size + 6, size)) * rng.uniform(0.1, 10.0, size)
        return np.swapaxes(design, 1, 2) @ design

    def test_one_non_pd_system_flags_only_itself(self):
        scaled, norms = gram_scale(self.spd_stack(6, 4))
        scaled[3] = np.eye(4)
        scaled[3, 0, 1] = scaled[3, 1, 0] = 2.0  # unit diagonal, indefinite
        inv_chol, ok = gram_factor(scaled)
        assert ok.tolist() == [True, True, True, False, True, True]
        rhs = np.arange(1.0, 5.0)
        for i in (0, 1, 2, 4, 5):
            alone, _ = gram_factor(scaled[i : i + 1])
            assert np.array_equal(inv_chol[i], alone[0])
            z = gram_solve(inv_chol[i : i + 1], rhs[None])
            assert np.allclose(scaled[i] @ z[0], rhs, rtol=1e-9)
        assert np.array_equal(inv_chol[3], np.eye(4))

    def test_ill_conditioned_pd_system_flagged(self):
        stack = self.spd_stack(3, 3, seed=1)
        u = np.linspace(0.01, 1.0, 40)
        design = np.column_stack([u, u + 1e-9 * u**2, np.ones_like(u)])
        stack[1] = design.T @ design  # positive definite, tiny pivot
        _, ok = gram_factor(gram_scale(stack)[0])
        assert ok.tolist() == [True, False, True]

    def test_all_systems_failing(self):
        indefinite = np.eye(3)
        indefinite[0, 2] = indefinite[2, 0] = 3.0
        inv_chol, ok = gram_factor(np.stack([np.ones((3, 3)), indefinite]))
        assert not ok.any()
        assert np.array_equal(inv_chol, np.broadcast_to(np.eye(3), (2, 3, 3)))


class TestProfileGroupFit:
    def profiles(self, group):
        rng = np.random.default_rng(7)
        out = []
        for i, n in enumerate((5, 12, 30)):
            prof = PerfProfile(f"d{i}", group=group)
            for u in np.sort(rng.choice(np.arange(10, 20_000), n, replace=False)):
                u = float(u)
                prof.add(u, (0.1 + 1e-3 * i + 2e-4 * u) * rng.uniform(0.98, 1.02), 1e-6 * u + 0.01)
            out.append(prof)
        return out

    @pytest.mark.parametrize("decay", [1.0, 0.6])
    def test_group_equals_alone(self, decay):
        grouped = self.profiles(ProfileGroup())
        alone = self.profiles(None)
        for g, a in zip(grouped, alone):
            got, want = g.fit(recency_decay=decay), a.fit(recency_decay=decay)
            assert_close_fit(got.exec_fit, want.exec_fit)
            assert got.transfer_fit == want.transfer_fit

    def test_first_fit_does_the_group(self, monkeypatch):
        group = ProfileGroup()
        profiles = self.profiles(group)
        calls = record_fits(monkeypatch)
        models = [p.fit() for p in profiles]
        assert len(calls) == len(profiles)  # one stacked pass, every member
        assert [p.fit() for p in profiles] == models  # then cache hits
        assert len(calls) == len(profiles)
        # a new point makes one member stale; only it is refitted
        profiles[1].add(777.0, 0.3, 0.01)
        refit = [p.fit() for p in profiles]
        assert len(calls) == len(profiles) + 1
        assert refit[0] is models[0] and refit[2] is models[2]
        assert refit[1] is not models[1]

    def test_failing_member_raises_alone(self):
        group = ProfileGroup()
        good = self.profiles(group)[0]
        short = PerfProfile("short", group=group)
        short.add(10.0, 1.0, 0.0)
        with pytest.raises(FitError, match=">= 2"):
            short.fit()
        assert good.fit().exec_fit.n_points == 5
        broken = PerfProfile("broken", group=group)
        broken.add(10.0, 1.0, 0.0)
        broken.add(20.0, float("inf"), 0.0)
        good.add(40.0, 0.2, 0.01)
        with pytest.raises(FitError, match="finite"):
            broken.fit()
        assert good.fit().exec_fit.n_points == 6
        with pytest.raises(FitError, match="finite"):
            broken.fit()
