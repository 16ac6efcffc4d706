"""Continuous balancer: cycles, fallback chain, fairness, block sizing."""

import pytest

from repro.errors import ConfigurationError, SolverError
from repro.service.balancer import FALLBACK_STAGES, ContinuousBalancer
from repro.service.jobs import Job

DEVICES = ("a.cpu", "a.gpu", "b.cpu")


def feed(balancer, rates, *, template=0, tenant=0, rounds=3):
    """Record ``rounds`` blocks per device at the given units/sec rates."""
    for _ in range(rounds):
        for device, rate in rates.items():
            balancer.record(device, template, tenant, int(rate), 0.8, 0.2)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ContinuousBalancer(())
        with pytest.raises(ConfigurationError):
            ContinuousBalancer(DEVICES, flavor="astrology")

    def test_starts_uniform(self):
        b = ContinuousBalancer(DEVICES)
        assert b.fractions == {d: pytest.approx(1 / 3) for d in DEVICES}


class TestFlavors:
    def test_fair_stays_uniform(self):
        b = ContinuousBalancer(DEVICES, flavor="fair")
        feed(b, {"a.cpu": 10, "a.gpu": 90, "b.cpu": 10})
        assert b.rebalance(1.0, {0: 500}) == "fair-share"
        assert b.fractions == {d: pytest.approx(1 / 3) for d in DEVICES}

    def test_greedy_follows_measured_rates(self):
        b = ContinuousBalancer(DEVICES, flavor="greedy")
        feed(b, {"a.cpu": 10, "a.gpu": 80, "b.cpu": 10})
        assert b.rebalance(1.0, {0: 500}) == "analytic"
        assert b.fractions["a.gpu"] == pytest.approx(0.8)

    def test_plb_hec_solves_once_profiled(self):
        b = ContinuousBalancer(DEVICES)
        feed(b, {"a.cpu": 10, "a.gpu": 80, "b.cpu": 10}, rounds=4)
        stage = b.rebalance(1.0, {0: 500})
        assert stage == "solve"
        assert sum(b.fractions.values()) == pytest.approx(1.0)
        assert b.fractions["a.gpu"] > b.fractions["a.cpu"]

    @pytest.mark.parametrize("flavor", ["fair", "greedy"])
    def test_only_plb_hec_feeds_profiles(self, monkeypatch, flavor):
        from repro.modeling.perf_profile import PerfProfile

        adds = []
        original = PerfProfile.add
        monkeypatch.setattr(
            PerfProfile, "add", lambda self, *a, **k: adds.append(a) or original(self, *a, **k)
        )
        feed(ContinuousBalancer(DEVICES, flavor=flavor), {"a.cpu": 10, "a.gpu": 80})
        assert adds == []
        feed(ContinuousBalancer(DEVICES), {"a.cpu": 10, "a.gpu": 80})
        assert len(adds) == 6

    def test_empty_backlog_resets_to_fair(self):
        b = ContinuousBalancer(DEVICES)
        assert b.rebalance(0.5, {}) == "fair-share"


class TestFallbackChain:
    """solve -> last-good -> analytic -> fair-share, re-enterable."""

    def test_unprofiled_falls_to_fair_share(self):
        b = ContinuousBalancer(DEVICES)
        # no observations at all: fit raises, no last-good, no rates
        assert b.rebalance(1.0, {0: 100}) == "fair-share"
        assert b.fallback_counts["fair-share"] == 1

    def test_solver_failure_uses_last_good_then_recovers(self):
        calls = {"fail": False}

        def hook(models, total):
            if calls["fail"]:
                raise SolverError("induced")
            n = len(models)
            return {d: 1.0 / n for d in models}

        b = ContinuousBalancer(DEVICES, solver_hook=hook)
        feed(b, {"a.cpu": 10, "a.gpu": 80, "b.cpu": 10}, rounds=4)
        assert b.rebalance(1.0, {0: 100}) == "solve"
        good = dict(b.fractions)

        calls["fail"] = True
        assert b.rebalance(2.0, {0: 100}) == "last-good"
        assert b.fractions == good
        # the chain is re-enterable, not latched
        assert b.rebalance(3.0, {0: 100}) == "last-good"

        calls["fail"] = False
        assert b.rebalance(4.0, {0: 100}) == "solve"
        assert b.fallback_counts == {
            "solve": 2, "last-good": 2, "analytic": 0, "fair-share": 0,
        }

    def test_last_good_never_aliases_live_fractions(self):
        """Mutating the live fractions must not corrupt the stash."""
        def hook(models, total):
            n = len(models)
            return {d: 1.0 / n for d in models}

        b = ContinuousBalancer(DEVICES, solver_hook=hook)
        feed(b, {"a.cpu": 10, "a.gpu": 80, "b.cpu": 10}, rounds=4)
        b.rebalance(1.0, {0: 100})
        stash = dict(b._last_good)
        b.fractions["a.cpu"] = 99.0  # simulated downstream clobber
        b.solver_hook = lambda models, total: (_ for _ in ()).throw(
            SolverError("induced")
        )
        assert b.rebalance(2.0, {0: 100}) == "last-good"
        assert b.fractions == stash

    def test_without_last_good_falls_to_analytic(self):
        def hook(models, total):
            raise SolverError("always")

        b = ContinuousBalancer(DEVICES, solver_hook=hook)
        feed(b, {"a.cpu": 10, "a.gpu": 80, "b.cpu": 10}, rounds=4)
        assert b.rebalance(1.0, {0: 100}) == "analytic"
        assert b.fractions["a.gpu"] == pytest.approx(0.8)

    def test_stage_names_are_the_published_chain(self):
        assert FALLBACK_STAGES == ("solve", "last-good", "analytic",
                                   "fair-share")


class TestDispatchQueries:
    def job(self, job_id, tenant, *, priority=0, arrival=0.0, remaining=50):
        return Job(
            job_id=job_id, tenant=tenant, template=0, priority=priority,
            arrival=arrival, units=100, remaining=remaining,
        )

    def test_pick_job_weighted_fair_by_tenant(self):
        b = ContinuousBalancer(DEVICES)
        b.record("a.cpu", 0, 0, 500, 1.0, 0.0)  # tenant 0 far ahead
        jobs = [self.job(0, tenant=0), self.job(1, tenant=1)]
        assert b.pick_job(jobs).tenant == 1

    def test_pick_job_priority_then_age_within_tenant(self):
        b = ContinuousBalancer(DEVICES)
        jobs = [
            self.job(0, 0, priority=0, arrival=0.0),
            self.job(1, 0, priority=2, arrival=1.0),
            self.job(2, 0, priority=2, arrival=0.5),
        ]
        assert b.pick_job(jobs).job_id == 2

    def test_pick_job_skips_finished(self):
        b = ContinuousBalancer(DEVICES)
        finished = self.job(0, 0)
        finished.remaining = 0
        assert b.pick_job([finished]) is None

    def test_block_units_unmeasured_uses_probe_default(self):
        b = ContinuousBalancer(DEVICES)
        assert b.block_units("a.cpu", 0, remaining=1000, quantum=0.5,
                             default_units=64) == 64

    def test_block_units_scales_with_rate_and_share(self):
        b = ContinuousBalancer(DEVICES)
        feed(b, {"a.gpu": 100}, rounds=3)
        units = b.block_units("a.gpu", 0, remaining=10_000, quantum=1.0,
                              default_units=8)
        # rate 100 u/s, uniform share (1/3 * 3 = 1): ~100 units
        assert units == 100

    def test_block_units_clamped_to_remaining(self):
        b = ContinuousBalancer(DEVICES)
        feed(b, {"a.gpu": 100}, rounds=3)
        assert b.block_units("a.gpu", 0, remaining=7, quantum=1.0,
                             default_units=8) == 7
