"""Serve-mode PLB-HeC solves by waterfilling; batch PLB-HeC keeps the IPM.

The service balancer calls ``solve_block_partition(waterfill_first=True)``:
a waterfilling split that validates is used as is, and the paper's
interior-point refinement runs only when it does not.  These tests pin
down that the refinement would not have changed the serve answer, and
that the batch path still solves by the IPM.
"""

from __future__ import annotations

import pytest

import repro.core.plb_hec as plb_hec
import repro.service.balancer as balancer
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.service import ArrivalSpec, ClusterService, ServiceConfig


def rate16_episode(seed: int = 0) -> ClusterService:
    """The overload config: rate 16, 2 machines, queue 64, reject."""
    return ClusterService(
        ServiceConfig(
            arrivals=ArrivalSpec(rate=16, duration=60),
            machines=2,
            policy="plb-hec",
            queue_limit=64,
            shed_policy="reject",
            seed=seed,
        )
    )


@pytest.fixture
def registry():
    mine = MetricsRegistry()
    previous = set_registry(mine)
    try:
        yield mine
    finally:
        set_registry(previous)


def ipm_solves(registry: MetricsRegistry) -> int:
    return int(registry.snapshot()["counters"].get("ipm.solves", 0))


def record_solves(monkeypatch, module) -> list:
    """Wrap ``module.solve_block_partition``; returns ``(kwargs, result)`` pairs."""
    original = module.solve_block_partition
    calls = []

    def recording(models, total, **kwargs):
        result = original(models, total, **kwargs)
        calls.append((kwargs, result))
        return result

    monkeypatch.setattr(module, "solve_block_partition", recording)
    return calls


class TestServeSolve:
    def test_fractions_match_the_ipm_refinement(self, monkeypatch):
        original = balancer.solve_block_partition
        pairs = []

        def both(models, total, **kwargs):
            served = original(models, total, **kwargs)
            pairs.append((served, original(models, total)))
            return served

        monkeypatch.setattr(balancer, "solve_block_partition", both)
        rate16_episode().run()
        assert len(pairs) > 100
        for served, refined in pairs:
            assert served.method == "waterfill"
            assert refined.method == "ipm"
            gap = max(
                abs(served.fractions[d] - refined.fractions[d])
                for d in served.device_ids
            )
            assert gap <= 1e-5

    def test_serve_episode_runs_no_ipm(self, monkeypatch, registry):
        calls = record_solves(monkeypatch, balancer)
        card = rate16_episode(seed=3).run()
        assert card["balancer"]["fallback_counts"]["solve"] == len(calls) > 100
        assert all(kwargs == {"waterfill_first": True} for kwargs, _ in calls)
        assert {result.method for _, result in calls} == {"waterfill"}
        assert ipm_solves(registry) == 0

    def test_batch_plbhec_still_solves_by_ipm(self, monkeypatch, registry):
        from repro.cluster import paper_cluster
        from repro.experiments.runner import (
            FIXED_OVERHEAD_S,
            make_application,
            make_policy,
        )
        from repro.runtime import Runtime

        calls = record_solves(monkeypatch, plb_hec)
        app = make_application("matmul", 4096)
        Runtime(paper_cluster(2), app.codelet(), seed=0).run(
            make_policy("plb-hec", fixed_overhead_s=FIXED_OVERHEAD_S),
            app.total_units,
            app.default_initial_block_size(),
        )
        assert calls
        assert all("waterfill_first" not in kwargs for kwargs, _ in calls)
        assert {result.method for _, result in calls} == {"ipm"}
        assert ipm_solves(registry) >= len(calls)
