"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``__init__`` (no
files, no simulation) and then plays *laps*.  A lap returns a
:class:`Lap`: which input it played, how many operations it completed,
its host wall time, the problems its output checks found, and a
``fingerprint`` of every virtual-clock result.  Laps that play the same
input must fingerprint identically; that is the benchmark's
determinism check.

Why each workload exists is in ``README.md`` next to this file.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

#: The 65536-unit matmul / grn points and the 2**24 blackscholes point
#: of the paper's Fig. 4, on the four-machine cluster.
FIG4_POINTS = (("matmul", 65536), ("grn", 65536), ("blackscholes", 2**24))
MACHINES = 4
#: Batch PLB-HeC charges measured host time into virtual time unless
#: pinned; the sweep engine's own benchmark pins the same value.
FIXED_OVERHEAD_S = 0.018
#: The ROADMAP service config: Poisson arrivals at 16 jobs per virtual
#: second on two machines, bounded queue, reject on overflow.
SERVE_RATE = 16.0
SERVE_HORIZON_S = {"plb-hec": 60.0, "fair": 600.0}
#: Episodes per seed, played in turn; their latencies are pooled so the
#: virtual metrics do not hang on one episode's job mix.
SERVE_EPISODES = 4


def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile (the definition the serve scorecard uses)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return float(ordered[rank - 1])


@dataclass
class Lap:
    #: which of the workload's inputs the lap played
    key: int
    ops: int
    wall_s: float
    problems: list[str] = field(default_factory=list)
    #: virtual-clock results; identical across laps with one key
    fingerprint: object = None
    #: virtual latencies of the lap's operations, in seconds
    samples: list = field(default_factory=list)
    #: per-layer facts the traced run reports (name -> value)
    facts: dict = field(default_factory=dict)


class ServeWorkload:
    """One ``ClusterService`` episode per lap; ``key`` picks the episode."""

    def __init__(self, flavor: str, seed: int) -> None:
        from repro.service import ArrivalSpec, ServiceConfig

        self.configs = [
            ServiceConfig(
                arrivals=ArrivalSpec(
                    rate=SERVE_RATE, duration=SERVE_HORIZON_S[flavor]
                ),
                machines=2,
                policy=flavor,
                queue_limit=64,
                shed_policy="reject",
                seed=seed * SERVE_EPISODES + i,
            )
            for i in range(SERVE_EPISODES)
        ]
        self.inputs = len(self.configs)

    def lap(self, rec, key: int) -> Lap:
        from repro.service import ClusterService, validate_scorecard

        t0 = time.perf_counter()
        service = ClusterService(self.configs[key])
        card = rec.timed("service.run", service.run)
        wall = time.perf_counter() - t0

        jobs = card["jobs"]
        problems = [f"scorecard: {p}" for p in validate_scorecard(card)]
        problems += [f"invariant: {e}" for e in card["invariant_errors"]]
        terminal = sum(
            jobs[k] for k in ("completed", "rejected", "shed", "timeout", "failed")
        )
        if terminal != jobs["submitted"]:
            problems.append(
                f"{jobs['submitted']} jobs submitted, {terminal} terminal"
            )
        if jobs["completed"] < 1:
            problems.append("no job completed")
        return Lap(
            key=key,
            ops=1,
            wall_s=wall,
            problems=problems,
            fingerprint=json.dumps(card, sort_keys=True),
            samples=list(service.latencies),
            facts={
                "completed": jobs["completed"],
                "engine_events": service.engine.processed_events,
                "goodput_jobs_per_s": card["goodput"]["jobs_per_s"],
                "unserved_frac": 1.0 - jobs["completed"] / jobs["submitted"],
                "solve_stage": card["balancer"]["fallback_counts"]["solve"],
                "rebalances": card["balancer"]["rebalances"],
            },
        )

    def throughput(self, lap: Lap) -> float:
        """Completed jobs per host second."""
        return lap.facts["completed"] / lap.wall_s


def _plbhec_quality(outcomes) -> tuple[list, dict]:
    """PLB-HeC makespans, plus the paper's Fig. 4 speedup and Fig. 7 idleness.

    ``outcomes`` maps a grid point -> {policy: [(makespan, idle dict)]}.
    """
    makespans, idles, ratios = [], [], []
    for runs in outcomes.values():
        plb = runs.get("plb-hec", [])
        makespans += [m for m, _ in plb]
        idles += [sum(i.values()) / len(i) for _, i in plb]
        greedy = runs.get("greedy")
        if greedy and plb:
            ratios.append(
                (sum(m for m, _ in greedy) / len(greedy))
                / (sum(m for m, _ in plb) / len(plb))
            )
    speedup = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return makespans, {
        "plbhec_speedup_x": speedup,
        "plbhec_idle_frac": sum(idles) / len(idles),
    }


def _devices() -> int:
    from repro.cluster import paper_cluster

    return len(paper_cluster(MACHINES).devices())


def _makespan_problems(label: str, makespan) -> list[str]:
    if makespan is None or not math.isfinite(makespan) or makespan <= 0.0:
        return [f"{label}: makespan {makespan!r} is not finite and positive"]
    return []


class SweepWorkload:
    """The Fig. 4 grid through ``run_sweep``: a cold pass, then a warm one."""

    inputs = 1

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.experiments.parallel import PointSpec
        from repro.experiments.runner import PAPER_POLICIES
        from repro.runtime.sim_executor import Perturbation

        self.workdir = workdir
        self.grid = [
            PointSpec(
                app_name=app,
                size=size,
                num_machines=MACHINES,
                policies=PAPER_POLICIES,
                replications=3,
                seed=seed,
                fixed_overhead_s=FIXED_OVERHEAD_S,
            )
            for app, size in FIG4_POINTS
        ]
        # a mid-run slowdown of the first GPU trips PLB-HeC's §III.D
        # rebalance, so the batch rebalance path runs in every lap
        self.grid.append(
            PointSpec(
                app_name="matmul",
                size=65536,
                num_machines=MACHINES,
                policies=("plb-hec",),
                replications=1,
                seed=seed,
                fixed_overhead_s=FIXED_OVERHEAD_S,
                faults=(Perturbation("A.gpu0", 30.0, 3.0),),
            )
        )

    def lap(self, rec, key: int = 0) -> Lap:
        from repro.experiments.parallel import ResultCache, SweepStats, run_sweep
        from repro.experiments.wallclock import points_equal

        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        try:
            cache = ResultCache(cache_dir)
            cold_stats, warm_stats = SweepStats(), SweepStats()
            t0 = time.perf_counter()
            cold = run_sweep(
                self.grid, jobs=1, cache=cache, stats=cold_stats, profile=False
            )
            t1 = time.perf_counter()
            loads_before = len(rec.named("experiments.cache_load")) if rec.active else 0
            warm = run_sweep(
                self.grid, jobs=1, cache=cache, stats=warm_stats, profile=False
            )
            t2 = time.perf_counter()
            warm_loads = (
                len(rec.named("experiments.cache_load")) - loads_before
                if rec.active
                else None
            )
            cache_bytes = sum(
                os.path.getsize(os.path.join(d, f))
                for d, _, files in os.walk(cache_dir)
                for f in files
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        runs = cold_stats.total_runs
        problems = []
        if not points_equal(cold, warm):
            problems.append("warm pass differs from the cold pass")
        if warm_stats.cache_hits != runs:
            problems.append(f"warm pass hit the cache {warm_stats.cache_hits}/{runs} times")
        if cold_stats.executed != runs:
            problems.append(f"cold pass executed {cold_stats.executed}/{runs} runs")
        if warm_loads is not None and warm_loads != runs:
            problems.append(f"warm pass made {warm_loads} cache loads for {runs} runs")
        outcomes: dict = {}
        fingerprint = []
        for index, point in enumerate(cold):
            outcomes[index] = {}
            for policy, outcome in point.outcomes.items():
                for m in outcome.makespans:
                    problems += _makespan_problems(f"{point.app_name}/{policy}", m)
                outcomes[index][policy] = list(
                    zip(outcome.makespans, outcome.idle_fractions)
                )
                fingerprint.append(
                    (point.app_name, policy, outcome.makespans,
                     outcome.idle_fractions, outcome.rebalances, outcome.overheads)
                )
        makespans, quality = _plbhec_quality(outcomes)
        return Lap(
            key=0,
            ops=2 * runs,
            wall_s=t2 - t0,
            problems=problems,
            fingerprint=json.dumps(fingerprint, sort_keys=True),
            samples=makespans,
            facts={
                **quality,
                "runs": runs,
                "cold_s": t1 - t0,
                "warm_s": t2 - t1,
                "cache_bytes": cache_bytes,
                "cache_hits": cold_stats.cache_hits + warm_stats.cache_hits,
                "cache_lookups": 2 * runs,
                "overhead_charged_s": sum(
                    sum(p.outcomes["plb-hec"].overheads) for p in cold
                ),
                "devices": _devices(),
            },
        )

    def throughput(self, lap: Lap) -> float:
        """Cold-pass runs per host second."""
        return lap.facts["runs"] / lap.facts["cold_s"]


class ArtifactsWorkload:
    """The Fig. 4 grid at one replication, every run writing its artifacts."""

    inputs = 1

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.experiments.runner import PAPER_POLICIES

        self.workdir = workdir
        self.runs = [
            (app, size, policy, seed * 1000)
            for app, size in FIG4_POINTS
            for policy in PAPER_POLICIES
        ]

    def _one(self, app_name, size, policy_name, run_seed, out, rec) -> tuple:
        """One sampled run, its artifacts written and read back.

        Returns the run result, its critical-path categories, the problems
        found, and the bytes of ``series.jsonl`` and of all artifacts.
        """
        from repro.cluster import GroundTruth, paper_cluster
        from repro.experiments.runner import make_application, make_policy
        from repro.obs.critpath import analyze_trace, validate_critpath, write_critpath
        from repro.obs.events import new_run_id, push_run_id
        from repro.obs.ledger import read_explain, write_explain
        from repro.obs.timeseries import ClusterSampler, read_series, write_series
        from repro.obs.trace_export import (
            trace_to_chrome,
            validate_chrome_trace,
            write_chrome_trace,
        )
        from repro.runtime import Runtime

        label = f"{app_name}/{policy_name}"
        cluster = paper_cluster(MACHINES)
        app = make_application(app_name, size)
        policy = make_policy(
            policy_name,
            ground_truth=GroundTruth(cluster, app.kernel_characteristics()),
            fixed_overhead_s=FIXED_OVERHEAD_S,
        )
        runtime = Runtime(cluster, app.codelet(), seed=run_seed, noise_sigma=0.005)
        sampler = ClusterSampler(None)
        run_id = new_run_id(f"perfbench/{label}/{run_seed}")
        with push_run_id(run_id):
            result = rec.timed(
                "obs.sampled_run", runtime.run, policy, app.total_units,
                app.default_initial_block_size(), sampler=sampler,
            )
        problems = _makespan_problems(label, result.makespan)
        base = os.path.join(out, f"{app_name}-{policy_name}")

        series_path = base + ".series.jsonl"
        rec.timed(
            "obs.series_write", write_series, series_path, sampler.store,
            run_id=run_id, interval=sampler.interval,
        )
        _header, store = rec.timed("obs.series_read", read_series, series_path)
        if store.to_payload() != sampler.store.to_payload():
            problems.append(f"{label}: series.jsonl does not read back its store")
        if sampler.samples_taken < 1:
            problems.append(f"{label}: the sampler took no samples")
        paths = [series_path]

        analysis = rec.timed("obs.critpath", analyze_trace, result.trace)
        critpath_path = base + ".critpath.json"
        rec.timed("obs.critpath", write_critpath, critpath_path, analysis)
        with open(critpath_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        problems += [f"{label}: critpath: {p}" for p in validate_critpath(doc)]
        attributed = math.fsum(doc["categories"].values())
        if abs(attributed - result.makespan) > 1e-6 * max(1.0, result.makespan):
            problems.append(
                f"{label}: critpath categories sum to {attributed}, "
                f"makespan is {result.makespan}"
            )
        paths.append(critpath_path)

        ledger = result.ledger.to_dict() if result.ledger is not None else None
        trace_path = base + ".trace.json"
        rec.timed(
            "obs.trace_write", lambda: write_chrome_trace(
                trace_to_chrome(
                    result.trace,
                    run_id=run_id,
                    decisions=ledger["decisions"] if ledger else None,
                    critpath=analysis,
                ),
                trace_path,
            )
        )
        with open(trace_path, encoding="utf-8") as fh:
            problems += [
                f"{label}: trace: {p}" for p in validate_chrome_trace(json.load(fh))
            ]
        paths.append(trace_path)

        if policy_name == "plb-hec":
            if ledger is None:
                problems.append(f"{label}: plb-hec kept no decision ledger")
            else:
                explain_path = base + ".explain.jsonl"
                rec.timed("obs.explain_write", write_explain, ledger, explain_path)
                data = read_explain(explain_path)
                if len(data["decisions"]) != len(ledger["decisions"]):
                    problems.append(f"{label}: explain.jsonl lost decisions")
                paths.append(explain_path)

        sizes = [os.path.getsize(p) for p in paths]
        return result, doc["categories"], problems, sizes[0], sum(sizes)

    def lap(self, rec, key: int = 0) -> Lap:
        out = tempfile.mkdtemp(prefix="artifacts-", dir=self.workdir)
        problems, fingerprint, outcomes = [], [], {}
        series_bytes = artifact_bytes = 0
        overhead = 0.0
        t0 = time.perf_counter()
        try:
            for app_name, size, policy_name, run_seed in self.runs:
                result, categories, found, series, written = self._one(
                    app_name, size, policy_name, run_seed, out, rec
                )
                problems += found
                fingerprint.append((app_name, policy_name, result.makespan, categories))
                outcomes.setdefault(app_name, {})[policy_name] = [
                    (result.makespan, result.idle_fractions)
                ]
                series_bytes += series
                artifact_bytes += written
                if policy_name == "plb-hec":
                    overhead += result.solver_overhead_s
        finally:
            wall = time.perf_counter() - t0
            shutil.rmtree(out, ignore_errors=True)
        makespans, quality = _plbhec_quality(outcomes)
        return Lap(
            key=0,
            ops=len(self.runs),
            wall_s=wall,
            problems=problems,
            fingerprint=json.dumps(fingerprint, sort_keys=True),
            samples=makespans,
            facts={
                **quality,
                "series_bytes": series_bytes,
                "artifact_bytes": artifact_bytes,
                "overhead_charged_s": overhead,
                "devices": _devices(),
            },
        )

    def throughput(self, lap: Lap) -> float:
        """Runs per host second with every artifact written and read back."""
        return lap.ops / lap.wall_s


WORKLOADS = ("serve-plbhec", "serve-fair", "sweep-paper", "artifacts")


def make_workload(name: str, seed: int, workdir: str):
    if name == "serve-plbhec":
        return ServeWorkload("plb-hec", seed)
    if name == "serve-fair":
        return ServeWorkload("fair", seed)
    if name == "sweep-paper":
        return SweepWorkload(seed, workdir)
    if name == "artifacts":
        return ArtifactsWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
