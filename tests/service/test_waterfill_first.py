"""Every default partition solve is the waterfill; the IPM runs by name.

``solve_block_partition`` returns the waterfilling split whenever it
validates, for the service balancer and for batch PLB-HeC alike, and
the paper's interior-point solve (``ipm_partition``) runs only where a
caller asks for it.  These tests pin down that the interior-point
method would not have changed either answer.
"""

from __future__ import annotations

import pytest

import repro.core.plb_hec as plb_hec
import repro.service.balancer as balancer
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.service import ArrivalSpec, ClusterService, ServiceConfig
from repro.solver.partition import ipm_partition


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


def block_sizes(result) -> dict[str, int]:
    """The integer block sizes PLB-HeC derives from a partition."""
    return {d: int(round(u)) for d, u in result.units_by_device.items()}


def ipm_solves(registry: MetricsRegistry) -> int:
    return int(registry.snapshot()["counters"].get("ipm.solves", 0))


def record_solves(monkeypatch, module) -> list:
    """Wrap ``module.solve_block_partition``.

    Returns ``(models, total, kwargs, result)`` tuples, one per call.
    """
    original = module.solve_block_partition
    calls = []

    def recording(models, total, **kwargs):
        result = original(models, total, **kwargs)
        calls.append((dict(models), total, kwargs, result))
        return result

    monkeypatch.setattr(module, "solve_block_partition", recording)
    return calls


class TestServeSolve:
    def test_fractions_match_the_ipm_refinement(self, monkeypatch):
        calls = record_solves(monkeypatch, balancer)
        rate16_episode().run()
        assert len(calls) > 100
        for models, total, _, served in calls:
            refined = ipm_partition(models, total)
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
        assert {result.method for *_, result in calls} == {"waterfill"}
        assert ipm_solves(registry) == 0


class TestBatchSolve:
    """The cross-check on a Fig. 4 point with the overhead pinned."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fig4_point_matches_ipm_sizes(self, monkeypatch, registry, seed):
        from repro.cluster import paper_cluster
        from repro.experiments.runner import (
            FIXED_OVERHEAD_S,
            make_application,
            make_policy,
        )
        from repro.runtime import Runtime

        calls = record_solves(monkeypatch, plb_hec)
        app = make_application("matmul", 16384)
        Runtime(paper_cluster(4), app.codelet(), seed=seed).run(
            make_policy("plb-hec", fixed_overhead_s=FIXED_OVERHEAD_S),
            app.total_units,
            app.default_initial_block_size(),
        )
        assert calls
        assert {result.method for *_, result in calls} == {"waterfill"}
        assert ipm_solves(registry) == 0
        for models, quantum, kwargs, result in calls:
            refined = ipm_partition(models, quantum, **kwargs)
            assert refined.method == "ipm" and refined.iterations > 0
            assert block_sizes(refined) == block_sizes(result)
