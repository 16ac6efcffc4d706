"""Tests for repro.solver.reduction (waterfilling)."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SolverError
from repro.modeling.perf_profile import PerfProfile
from repro.solver.reduction import waterfill_partition


def model(device_id, slope, intercept=0.1, sizes=(10, 100, 1000, 5000)):
    prof = PerfProfile(device_id)
    for u in sizes:
        prof.add(u, intercept + slope * u, 1e-6 * u)
    return prof.fit()


class TestWaterfill:
    def test_equal_devices_split_equally(self):
        models = [model(f"d{i}", 0.01) for i in range(4)]
        units, t = waterfill_partition(models, 8000.0)
        assert units.sum() == pytest.approx(8000.0)
        assert np.allclose(units, 2000.0, rtol=0.01)

    def test_faster_device_gets_more(self):
        fast = model("fast", 0.001)
        slow = model("slow", 0.01)
        units, _ = waterfill_partition([fast, slow], 5000.0)
        assert units[0] > units[1] * 5

    def test_times_equalised(self):
        models = [model("a", 0.001), model("b", 0.004), model("c", 0.016)]
        units, t = waterfill_partition(models, 6000.0)
        times = [float(m.E(u)) for m, u in zip(models, units) if u > 1]
        spread = (max(times) - min(times)) / max(times)
        assert spread < 0.02

    def test_expensive_intercept_device_dropped(self):
        # device whose fixed cost exceeds the common finish time gets 0
        cheap = [model(f"d{i}", 0.001, intercept=0.01) for i in range(3)]
        pricey = model("x", 0.001, intercept=1e3)
        units, t = waterfill_partition(cheap + [pricey], 3000.0)
        assert units[3] == 0.0
        assert units.sum() == pytest.approx(3000.0)

    def test_caps_respected(self):
        models = [model("a", 0.001), model("b", 0.001)]
        units, _ = waterfill_partition(models, 1000.0, caps=[100.0, 1000.0])
        assert units[0] <= 100.0 + 1e-6
        assert units.sum() == pytest.approx(1000.0)

    def test_caps_below_quantum_rejected(self):
        models = [model("a", 0.001)]
        with pytest.raises(ConfigurationError, match="infeasible"):
            waterfill_partition(models, 1000.0, caps=[10.0])

    def test_nonpositive_caps_rejected(self):
        models = [model("a", 0.001), model("b", 0.001)]
        with pytest.raises(ConfigurationError):
            waterfill_partition(models, 10.0, caps=[0.0, 100.0])

    def test_single_device_gets_everything(self):
        units, t = waterfill_partition([model("a", 0.01)], 500.0)
        assert units[0] == pytest.approx(500.0)

    def test_empty_models_rejected(self):
        with pytest.raises(ConfigurationError):
            waterfill_partition([], 100.0)

    def test_non_finite_times_rejected(self):
        class Overflowing:
            def E(self, x):
                return np.where(np.asarray(x) > 50.0, np.inf, 1.0 + np.asarray(x))

        with pytest.raises(SolverError, match="bracket"):
            waterfill_partition([model("a", 0.01), Overflowing()], 100.0)

    def test_nonpositive_quantum_rejected(self):
        with pytest.raises(ConfigurationError):
            waterfill_partition([model("a", 0.01)], 0.0)

    def test_sum_always_exact(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            models = [
                model(f"d{i}", float(rng.uniform(1e-4, 1e-1)))
                for i in range(rng.integers(2, 6))
            ]
            q = float(rng.uniform(100, 50_000))
            units, _ = waterfill_partition(models, q)
            assert units.sum() == pytest.approx(q, rel=1e-9)
            assert np.all(units >= 0.0)


def bisection_waterfill(models, total_units, caps=None, iterations=200, rel_tol=0.0):
    """The bisection on T the closed form replaced, as the reference.

    It ran 100 steps to a relative tolerance of 1e-10 on T.  A device
    whose time curve is nearly flat turns that tolerance into a large
    error in its units, so the reference bisects to floating-point
    convergence instead.
    """
    q = float(total_units)
    cap_arr = np.full(len(models), q) if caps is None else np.minimum(np.asarray(caps, float), q)
    grid_n = 513
    tables = []
    for m, c in zip(models, cap_arr):
        xs = np.linspace(0.0, float(c), grid_n)
        ys = np.concatenate([[0.0], np.maximum.accumulate(np.asarray(m.E(xs[1:]), float))])
        tables.append((xs, ys))

    def assigned(t):
        out = np.empty(len(models))
        for i, (xs, ys) in enumerate(tables):
            idx = int(np.searchsorted(ys, t, side="right")) - 1
            if idx <= 0:
                out[i] = 0.0
            elif idx >= grid_n - 1:
                out[i] = xs[-1]
            else:
                y0, y1 = ys[idx], ys[idx + 1]
                frac = (t - y0) / (y1 - y0) if y1 > y0 else 0.0
                out[i] = xs[idx] + frac * (xs[idx + 1] - xs[idx])
        return out

    t_lo, t_hi = 0.0, max(float(ys[-1]) for _, ys in tables)
    for _ in range(iterations):
        t_mid = 0.5 * (t_lo + t_hi)
        if assigned(t_mid).sum() >= q:
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo <= rel_tol * max(t_hi, 1e-300):
            break
    units = assigned(t_hi)
    total = units.sum()
    if total >= q:
        units = units * (q / total)
    else:
        room = cap_arr - units
        units = units + room * min((q - total) / room.sum(), 1.0)
        units = units * (q / units.sum())
    return units, t_hi


def monotone_model(device_id, intercept, slope, curve, xfer):
    prof = PerfProfile(device_id)
    for u in (10.0, 100.0, 1000.0, 5000.0, 20_000.0):
        prof.add(u, intercept + slope * u + curve * u * u, xfer * u)
    return prof.fit()


device_st = st.tuples(
    st.floats(1e-3, 5.0),  # intercept
    st.floats(1e-6, 1e-2),  # slope
    st.sampled_from([0.0, 1e-9, 1e-7]),  # convexity
    st.floats(0.0, 1e-5),  # transfer seconds per unit
)


class TestClosedFormAgainstBisection:
    @given(
        st.lists(device_st, min_size=1, max_size=6),
        st.floats(50.0, 60_000.0),
        st.one_of(st.none(), st.lists(st.floats(0.05, 1.5), min_size=6, max_size=6)),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_bisection(self, devices, q, cap_shares):
        models = [monotone_model(f"d{i}", *dev) for i, dev in enumerate(devices)]
        caps = None
        if cap_shares is not None:
            caps = np.array(cap_shares[: len(models)]) * q
            if caps.sum() < q:
                caps *= 1.05 * q / caps.sum()
        units, t = waterfill_partition(models, q, caps=caps)
        ref_units, ref_t = bisection_waterfill(models, q, caps=caps)
        assert np.max(np.abs(units - ref_units)) <= 1e-9 * q
        assert t == pytest.approx(ref_t, rel=1e-9)
        assert units.sum() == pytest.approx(q, rel=1e-12)

    def test_jump_onto_a_first_cell(self):
        # Q is reached exactly where the pricey device's table starts
        cheap = monotone_model("a", 0.01, 1e-3, 0.0, 0.0)
        pricey = monotone_model("b", 5.0, 1e-3, 0.0, 0.0)
        for q in (100.0, 4990.0, 5000.0, 5010.0, 9000.0):
            units, t = waterfill_partition([cheap, pricey], q)
            ref_units, ref_t = bisection_waterfill([cheap, pricey], q)
            assert np.max(np.abs(units - ref_units)) <= 1e-9 * q
            assert t == pytest.approx(ref_t, rel=1e-9)


#: sha256 of the admitted-job latencies (little-endian float64, in
#: completion order) of the rate-16 serve episode, plb-hec balancer,
#: captured before the fit and the waterfill were batched
SERVE_LATENCY_DIGESTS = {
    0: "c166debf8181f2dfd241d048b722f2f265035630df9517a66493094dd3a5619c",
    1: "7ba4e0ca4da1dd66efc88b9ce258933c25b9d97eb6ce02b8ba1db99428c97499",
}


@pytest.mark.parametrize("seed", sorted(SERVE_LATENCY_DIGESTS))
def test_serve_episode_latencies_unchanged(seed):
    from repro.service import ArrivalSpec, ClusterService, ServiceConfig

    service = ClusterService(
        ServiceConfig(
            arrivals=ArrivalSpec(rate=16.0, duration=60.0),
            machines=2,
            policy="plb-hec",
            queue_limit=64,
            shed_policy="reject",
            seed=seed,
        )
    )
    service.run()
    latencies = list(service.latencies)
    digest = hashlib.sha256(struct.pack(f"<{len(latencies)}d", *latencies)).hexdigest()
    assert digest == SERVE_LATENCY_DIGESTS[seed]
