"""Wall-clock benchmark of the sweep engine itself.

Times the Fig. 4 MatMul fast grid four ways — serial, parallel, cold
cache, warm cache — plus one pinned service-mode episode (the
``serve`` lap, with its jobs/sec in the meta), and writes the numbers
to ``BENCH_wallclock.json``
(via :func:`repro.util.timing.perf_report`), so the repo's performance
trajectory is recorded in-tree instead of anecdotally.  Runs use a
pinned scheduler-overhead charge (``fixed_overhead_s``), which makes
the serial and parallel aggregates comparable bit for bit; the
benchmark asserts that equality and reports it in the output.

Entry points: ``python -m repro bench`` and
``benchmarks/test_bench_wallclock.py``.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Sequence

from repro.experiments.parallel import (
    PointSpec,
    ResultCache,
    SweepStats,
    resolve_jobs,
    run_sweep,
)
from repro.experiments.runner import FIXED_OVERHEAD_S, PAPER_POLICIES, SweepPoint
from repro.obs.profiler import hot_functions, merge_profiles
from repro.util.timing import Stopwatch, perf_report

__all__ = [
    "BENCH_PATH",
    "parallel_speedup_meta",
    "points_equal",
    "run_wallclock_bench",
]

#: Default output file, at the repository root.
BENCH_PATH = "BENCH_wallclock.json"

#: The Fig. 4 MatMul fast grid (sizes x one machine count).
FAST_SIZES: tuple[int, ...] = (4096, 65536)
FAST_MACHINES: tuple[int, ...] = (4,)

def points_equal(a: Sequence[SweepPoint], b: Sequence[SweepPoint]) -> bool:
    """Exact (bitwise) equality of two sweeps' aggregates."""
    if len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        if (pa.app_name, pa.size, pa.num_machines) != (
            pb.app_name,
            pb.size,
            pb.num_machines,
        ):
            return False
        if set(pa.outcomes) != set(pb.outcomes):
            return False
        for name, oa in pa.outcomes.items():
            ob = pb.outcomes[name]
            if (
                oa.makespans != ob.makespans
                or oa.idle_fractions != ob.idle_fractions
                or oa.distributions != ob.distributions
                or oa.overheads != ob.overheads
                or oa.rebalances != ob.rebalances
            ):
                return False
    return True


def parallel_speedup_meta(
    laps: dict[str, float],
    jobs: int,
    *,
    cpu_count: int | None = None,
) -> dict[str, Any]:
    """Speedup bookkeeping that stays honest on core-starved hosts.

    A "parallel" sweep on a 1-cpu machine (or with ``jobs=1``) runs the
    exact same serial path plus pool overhead, so ``serial/parallel``
    is pure noise there — historically it printed a misleading 0.9x.
    In that case ``parallel_speedup`` is ``None`` and
    ``parallel_speedup_reason`` says why; ``effective_jobs`` records how
    much parallelism the measurement actually had either way.
    """
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    effective = max(min(jobs, cpu_count), 1)
    meta: dict[str, Any] = {"effective_jobs": effective}
    if effective <= 1:
        meta["parallel_speedup"] = None
        meta["parallel_speedup_reason"] = (
            f"no parallelism available (jobs={jobs}, cpu_count={cpu_count}): "
            "serial and parallel laps measure the same execution path"
        )
    elif laps.get("parallel", 0.0) > 0.0:
        meta["parallel_speedup"] = laps["serial"] / laps["parallel"]
    else:
        meta["parallel_speedup"] = None
        meta["parallel_speedup_reason"] = "parallel lap recorded no wall time"
    return meta


def _serve_config():
    """The pinned service episode the ``serve`` lap times.

    Mildly overloaded (rate 6/s on two machines) so the admission and
    shedding paths are exercised, seeded so every benchmark run plays
    the identical episode.
    """
    from repro.service import ArrivalSpec, ServiceConfig

    return ServiceConfig(
        arrivals=ArrivalSpec(rate=6.0, duration=10.0),
        machines=2,
        queue_limit=8,
        shed_policy="drop-oldest",
        deadline_factor=30.0,
        seed=0,
    )


def _grid(replications: int) -> list[PointSpec]:
    return [
        PointSpec(
            app_name="matmul",
            size=size,
            num_machines=machines,
            policies=PAPER_POLICIES,
            replications=replications,
            seed=0,
            fixed_overhead_s=FIXED_OVERHEAD_S,
        )
        for machines in FAST_MACHINES
        for size in FAST_SIZES
    ]


def run_wallclock_bench(
    *,
    replications: int = 2,
    jobs: int | None = None,
    cache_dir: str | os.PathLike[str] | None = None,
    output: str | os.PathLike[str] | None = BENCH_PATH,
    profile: bool = False,
    profile_top: int = 10,
) -> dict[str, Any]:
    """Benchmark the sweep engine and return the perf report dict.

    Parameters
    ----------
    replications:
        Replications per grid point (the acceptance setting is 2).
    jobs:
        Parallel worker count for the non-serial phases; defaults to
        ``REPRO_JOBS`` / cpu count.
    cache_dir:
        Directory for the cold/warm cache phases; a throwaway temp
        directory when omitted, so benchmarking never pollutes (or is
        flattered by) a pre-existing ``.repro_cache``.
    output:
        Where to write the JSON report; ``None`` skips writing.
    profile:
        Capture phase-attributed CPU profiles of the serial and
        parallel laps (the cache laps stay unprofiled so the warm/cold
        cache comparison keeps measuring cache behaviour, not tracer
        overhead).  The report meta gains ``profiled: true`` and the
        merged ``hot_functions`` top-``profile_top`` table; history
        entries built from it are excluded from the regression gate.
    """
    jobs = resolve_jobs(jobs)
    grid = _grid(replications)
    sw = Stopwatch()

    ser_stats = SweepStats()
    with sw.lap("serial"):
        serial_points = run_sweep(
            grid, jobs=1, cache=None, stats=ser_stats, profile=profile
        )
    par_stats = SweepStats()
    with sw.lap("parallel"):
        parallel_points = run_sweep(
            grid, jobs=jobs, cache=None, stats=par_stats, profile=profile
        )
    identical = points_equal(serial_points, parallel_points)

    own_tmp = None
    if cache_dir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
        cache_dir = own_tmp.name
    try:
        cache = ResultCache(cache_dir)
        # The cache laps are explicitly unprofiled even under --profile
        # (or REPRO_PROFILE): profiling disables the result cache, which
        # would turn the warm lap into a third execution lap.
        cold_stats = SweepStats()
        with sw.lap("cache_cold"):
            cold_points = run_sweep(
                grid, jobs=jobs, cache=cache, stats=cold_stats, profile=False
            )
        warm_stats = SweepStats()
        with sw.lap("cache_warm"):
            warm_points = run_sweep(
                grid, jobs=jobs, cache=cache, stats=warm_stats, profile=False
            )
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()

    # one fixed seeded service episode: the serving loop's wall cost
    # (and its jobs/sec throughput) ride the same report and history
    # series as the sweep laps, so they are gate-eligible like any lap
    from repro.service import ClusterService

    with sw.lap("serve"):
        serve_card = ClusterService(_serve_config()).run()
    serve_wall = sw.laps["serve"]
    serve_jobs = serve_card["jobs"]["completed"]

    laps = sw.laps
    warm_fraction = (
        laps["cache_warm"] / laps["cache_cold"] if laps["cache_cold"] > 0 else 0.0
    )
    meta = {
        "grid": {
            "app": "matmul",
            "sizes": list(FAST_SIZES),
            "machine_counts": list(FAST_MACHINES),
            "policies": list(PAPER_POLICIES),
            "replications": replications,
            "fixed_overhead_s": FIXED_OVERHEAD_S,
        },
        "jobs": jobs,
        "runs_per_sweep": par_stats.total_runs,
        "parallel_matches_serial": identical,
        "warm_matches_cold": points_equal(cold_points, warm_points),
        "warm_cache_hits": warm_stats.cache_hits,
        "warm_over_cold_fraction": warm_fraction,
        "parallel_fell_back_serial": par_stats.fell_back_serial,
        "serve_jobs_completed": serve_jobs,
        "serve_jobs_per_wall_s": (
            serve_jobs / serve_wall if serve_wall > 0 else None
        ),
        "serve_invariants_ok": not serve_card["invariant_errors"],
        **parallel_speedup_meta(laps, jobs),
    }
    if profile:
        merged: dict[str, Any] = {}
        merge_profiles(merged, ser_stats.profile)
        merge_profiles(merged, par_stats.profile)
        meta["profiled"] = True
        meta["hot_functions"] = hot_functions(merged, top=profile_top)
    return perf_report(laps, path=output, meta=meta)
