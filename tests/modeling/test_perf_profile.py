"""Tests for repro.modeling.perf_profile."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FitError
from repro.modeling.perf_profile import DeviceModel, PerfProfile, ProfilePoint


def linear_profile(slope=0.01, intercept=0.5, xfer_slope=1e-5, sizes=(8, 16, 64, 256, 1024)):
    prof = PerfProfile("dev")
    for u in sizes:
        prof.add(u, intercept + slope * u, xfer_slope * u)
    return prof


class TestProfilePoint:
    def test_nonpositive_units_rejected(self):
        with pytest.raises(FitError):
            ProfilePoint(units=0, exec_s=1.0, transfer_s=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(FitError):
            ProfilePoint(units=1, exec_s=-1.0, transfer_s=0.0)


class TestPerfProfile:
    def test_add_and_len(self):
        prof = linear_profile()
        assert len(prof) == 5

    def test_observed_sizes_sorted_unique(self):
        prof = PerfProfile("d")
        for u in (16, 8, 16):
            prof.add(u, 1.0, 0.0)
        assert list(prof.observed_sizes()) == [8.0, 16.0]

    def test_fit_requires_two_points(self):
        prof = PerfProfile("d")
        prof.add(8, 1.0, 0.1)
        with pytest.raises(FitError, match=">= 2"):
            prof.fit()

    def test_fit_returns_model(self):
        model = linear_profile().fit()
        assert isinstance(model, DeviceModel)
        assert model.device_id == "dev"
        assert model.r2 > 0.999

    def test_clear(self):
        prof = linear_profile()
        prof.clear()
        assert len(prof) == 0

    def test_per_size_dedupe_keeps_range(self):
        prof = PerfProfile("d", max_points=32)
        # probe diversity first
        for u in (8, 64, 512):
            prof.add(u, 0.01 * u, 0.0)
        # then hundreds of identical-size steady-state tasks
        for _ in range(500):
            prof.add(100, 1.0, 0.0)
        sizes = prof.observed_sizes()
        assert 8.0 in sizes and 512.0 in sizes
        same = sum(1 for p in prof.points if p.units == 100)
        assert same <= PerfProfile.PER_SIZE_LIMIT

    def test_window_evicts_most_populous_size(self):
        prof = PerfProfile("d", max_points=6)
        for u in (8, 16, 32, 64):
            prof.add(u, 0.01 * u, 0.0)
        for i in range(4):
            prof.add(128, 1.28, 0.0)
        # window size respected and all distinct sizes retained
        assert len(prof) <= 6
        assert set(prof.observed_sizes()) >= {8.0, 16.0, 32.0, 64.0}

    def test_recency_decay_validation(self):
        prof = linear_profile()
        with pytest.raises(FitError):
            prof.fit(recency_decay=0.0)
        with pytest.raises(FitError):
            prof.fit(recency_decay=1.5)

    def test_recency_decay_tracks_regime_change(self):
        prof = PerfProfile("d")
        # old regime: fast
        for u in (100, 200, 400):
            prof.add(u, 0.001 * u, 0.0)
        # new regime: 4x slower, same sizes
        for u in (100, 200, 400):
            prof.add(u, 0.004 * u, 0.0)
        fresh = prof.fit(recency_decay=0.3)
        stale = prof.fit(recency_decay=1.0)
        assert float(fresh.E(400)) > float(stale.E(400))

    def test_max_points_validation(self):
        with pytest.raises(FitError):
            PerfProfile("d", max_points=1)


class ListScanProfile:
    """The list-scan retention ``PerfProfile.add`` replaced, as the reference.

    Every add scans all points for its size; a full window recounts every
    size and drops the oldest point of the first most populous one.
    """

    def __init__(self, max_points: int) -> None:
        self.max_points = max_points
        self.points: list[ProfilePoint] = []

    def add(self, units, exec_s, transfer_s) -> None:
        point = ProfilePoint(units=units, exec_s=exec_s, transfer_s=transfer_s)
        same_size = [i for i, p in enumerate(self.points) if p.units == units]
        if len(same_size) >= PerfProfile.PER_SIZE_LIMIT:
            del self.points[same_size[0]]
        self.points.append(point)
        while len(self.points) > self.max_points:
            counts: dict[float, int] = {}
            for p in self.points:
                counts[p.units] = counts.get(p.units, 0) + 1
            crowded = max(counts, key=lambda u: counts[u])
            for i, p in enumerate(self.points):
                if p.units == crowded:
                    del self.points[i]
                    break


class TestRetentionAgainstListScan:
    @given(
        st.integers(2, 24),
        st.lists(st.integers(1, 12), min_size=1, max_size=300),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_points_in_the_same_order(self, max_points, sizes):
        prof = PerfProfile("d", max_points=max_points)
        ref = ListScanProfile(max_points)
        for k, size in enumerate(sizes):
            prof.add(float(size), 0.1 * k, 0.01 * k)
            ref.add(float(size), 0.1 * k, 0.01 * k)
            assert prof.points == tuple(ref.points)
        assert list(prof.observed_sizes()) == sorted({p.units for p in ref.points})

    def test_clear_resets_the_counts(self):
        prof = PerfProfile("d", max_points=4)
        for u in (8, 8, 16, 32):
            prof.add(u, 1.0, 0.0)
        prof.clear()
        ref = ListScanProfile(4)
        for u in (16, 16, 16, 8, 64):
            prof.add(u, 1.0, 0.0)
            ref.add(u, 1.0, 0.0)
        assert prof.points == tuple(ref.points)


class TestFitCache:
    """``fit`` refits only when the points or its arguments change."""

    def test_hit_returns_same_model(self):
        prof = linear_profile()
        assert prof.fit() is prof.fit()
        assert prof.fit(recency_decay=0.9) is prof.fit(recency_decay=0.9)

    def test_add_invalidates(self):
        prof = linear_profile()
        before = prof.fit()
        prof.add(2048, 0.5 + 0.01 * 2048, 1e-5 * 2048)
        after = prof.fit()
        assert after is not before
        assert after.exec_fit.n_points == before.exec_fit.n_points + 1

    def test_clear_invalidates(self):
        prof = linear_profile()
        before = prof.fit()
        prof.clear()
        with pytest.raises(FitError, match=">= 2"):
            prof.fit()
        # as many points as before, different data: a fresh fit
        for u in (8, 16, 64, 256, 1024):
            prof.add(u, 2.0 * u, 0.0)
        after = prof.fit()
        assert after is not before
        assert after.F(64.0) == pytest.approx(128.0, rel=1e-9)

    def test_per_size_eviction_invalidates(self):
        prof = PerfProfile("d")
        for u in (8, 64, 512):
            prof.add(u, 0.01 * u, 0.0)
        for _ in range(PerfProfile.PER_SIZE_LIMIT):
            prof.add(100, 1.0, 0.0)
        before = prof.fit()
        # the oldest size-100 point is replaced: same length, new data
        prof.add(100, 3.0, 0.0)
        assert len(prof) == 3 + PerfProfile.PER_SIZE_LIMIT
        after = prof.fit()
        assert after is not before
        assert float(after.F(100.0)) > float(before.F(100.0))

    def test_window_eviction_invalidates(self):
        prof = PerfProfile("d", max_points=4)
        for u in (8, 16, 32, 64):
            prof.add(u, 0.01 * u, 0.0)
        before = prof.fit()
        prof.add(128, 10.0, 0.0)
        assert len(prof) == 4
        after = prof.fit()
        assert after is not before
        assert after.x_max == 128.0

    def test_different_decay_misses(self):
        prof = linear_profile()
        plain = prof.fit()
        decayed = prof.fit(recency_decay=0.6)
        assert decayed is not plain
        # the latest arguments are what is cached
        assert prof.fit(recency_decay=0.6) is decayed
        assert prof.fit() is not plain

    def test_different_candidates_miss(self):
        from repro.modeling.basis import CONSTANT, LINEAR, SQUARE

        prof = linear_profile()
        plain = prof.fit()
        small = prof.fit(candidates=[(CONSTANT, LINEAR)])
        assert small is not plain
        assert small.exec_fit.names == ("1", "x")
        assert prof.fit(candidates=[(CONSTANT, LINEAR)]) is small
        assert prof.fit(candidates=[(CONSTANT, LINEAR, SQUARE)]) is not small

    def test_failed_fit_not_cached(self):
        prof = PerfProfile("d")
        prof.add(8, 1.0, 0.1)
        with pytest.raises(FitError):
            prof.fit()
        prof.add(16, 2.0, 0.2)
        assert prof.fit().exec_fit.n_points == 2


class TestDeviceModel:
    @pytest.fixture
    def model(self):
        return linear_profile().fit()

    def test_E_is_F_plus_G(self, model):
        x = 100.0
        assert float(model.E(x)) == pytest.approx(
            float(model.F(x)) + float(model.G(x)), rel=1e-9
        )

    def test_E_floored_positive(self, model):
        assert float(model.E(0.0)) > 0.0

    def test_dE_matches_finite_difference(self, model):
        h = 1e-4
        numeric = (float(model.E(100 + h)) - float(model.E(100 - h))) / (2 * h)
        assert float(model.dE(100.0)) == pytest.approx(numeric, rel=1e-4)

    def test_rate(self, model):
        assert model.rate(100.0) == pytest.approx(100.0 / float(model.E(100.0)))

    def test_invert_roundtrip(self, model):
        target = float(model.E(300.0))
        x = model.invert(target, 1024.0)
        assert x == pytest.approx(300.0, rel=1e-3)

    def test_invert_whole_range_fits(self, model):
        big_time = float(model.E(1024.0)) * 2
        assert model.invert(big_time, 1024.0) == 1024.0

    def test_invert_nothing_fits(self, model):
        assert model.invert(1e-12, 1024.0) == 0.0

    def test_invert_nonpositive_inputs(self, model):
        assert model.invert(0.0, 100.0) == 0.0
        assert model.invert(1.0, 0.0) == 0.0

    def test_x_max(self, model):
        assert model.x_max == 1024.0

    def test_describe(self, model):
        text = model.describe()
        assert "dev" in text and "G[x]" in text
