"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-plbhec --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` patches timing spans into the program's layers and
reports the per-layer metrics instead.  ``--workload all`` runs every
workload in its own interpreter and prints a table.  The last line of
stdout is the JSON result; the exit code is non-zero when an output
check fails.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from spans import NullRecorder, Recorder
from workloads import WORKLOADS, make_workload, nearest_rank

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: fresh interpreters timed per run for ``setup_s`` (median reported)
SETUP_PROBES = 5
#: timed laps per run at least, however long a lap takes
MIN_LAPS = 3
#: Seconds the speed probe's loop takes on the reference host (a shared
#: 2-vCPU Xeon at 2.1 GHz, Python 3.11); see :class:`SpeedProbe`.
PROBE_REF_S = 0.00025


def _die(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _declared() -> dict:
    """Metric name -> (unit, group) from BENCHMARK.json."""
    spec = _spec()
    return {
        metric["name"]: (metric["unit"], group)
        for group in ("end_to_end", "per_layer")
        for metric in spec[group]
    }


def _bootstrap() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _die(f"no program sources under {SRC}")
    # the benchmark owns its environment: a REPRO_* knob (cache, history,
    # profiling, pool width) would change what the workloads measure
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)


def _setup_probe(workload: str, seed: int) -> None:
    """Child side of ``setup_s``: import, build the inputs, report the time."""
    import repro.cli  # noqa: F401  (the CLI's import graph is the cost)

    make_workload(workload, seed, ROOT)
    print(repr(time.time()), _peak_rss_mb())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure_setup(workload: str, seed: int, probe) -> tuple[float, float]:
    """Medians over fresh interpreters: seconds from spawning one to its
    inputs being built (rescaled like every host time, see
    :class:`SpeedProbe`), and its peak resident memory at that point."""
    seconds, rss = [], []
    for _ in range(SETUP_PROBES):
        t0, w0 = time.time(), time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            _die(f"setup probe failed:\n{proc.stderr}", 1)
        ready, peak = proc.stdout.split()[-2:]
        seconds.append(
            (float(ready) - t0) / probe.slowdown(w0, time.perf_counter())
        )
        rss.append(float(peak))
    return statistics.median(seconds), statistics.median(rss)


class SpeedProbe:
    """Samples how fast this CPU runs right now, from a thread, while laps run.

    The shared hosts this benchmark runs on change speed from second to
    second by half or more, and every host-time number moves with them.
    Every 50 ms the thread times a fixed pure-interpreter loop (a quarter
    of a millisecond, about 0.5 % of the CPU); a lap's throughput is then
    rescaled by the loop's mean time during that lap over
    :data:`PROBE_REF_S`, so it reads as on the reference host.  The loop
    runs no program code, so a change to the program moves the rescaled
    number exactly as it moves the raw one.  The process is pinned to one
    CPU so the thread samples the CPU the laps run on.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(0.05):
            t0 = time.perf_counter()
            acc = 0
            for i in range(3000):
                acc += i * i % 7
            self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe time within ``[t0, t1]`` over the reference time."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        pool = inside or [d for _, d in self.samples]
        return statistics.mean(pool) / PROBE_REF_S if pool else 1.0


def _counters() -> dict:
    from repro.obs.metrics import get_registry

    return dict(get_registry().snapshot()["counters"])


def _layer_metrics(workload: str, lap, rec, delta: dict) -> tuple[dict, list]:
    """Per-layer metrics of one traced lap, plus the guard problems."""
    spans = {name: [s.duration for s in rec.named(name)] for name in (
        "service.run", "service.rebalance", "modeling.fit", "modeling.add",
        "solver.solve", "core.rebalance", "runtime.run",
        "experiments.cache_load", "experiments.cache_store",
        "obs.sampled_run", "obs.series_write", "obs.series_read",
        "obs.explain_write", "obs.trace_write", "obs.critpath",
    )}
    facts = lap.facts
    wall = lap.wall_s
    fits = rec.named("modeling.fit")
    solves = rec.named("solver.solve")
    events = int(delta.get("sim.events_dispatched", 0))
    serve_total = sum(spans["service.run"])
    engine_self = (
        rec.self_time("service.run") if serve_total else rec.self_time("runtime.run")
    )
    span_iterations = sum(s.attrs["iterations"] for s in solves)
    m = {
        "sim.events": events,
        "sim.events_per_wall_s": events / engine_self if engine_self > 0 else 0.0,
        "service.rebalance_calls": len(spans["service.rebalance"]),
        "service.rebalance_us_p50": nearest_rank(spans["service.rebalance"], 50) * 1e6,
        "service.rebalance_us_p90": nearest_rank(spans["service.rebalance"], 90) * 1e6,
        "service.rebalance_share": (
            sum(spans["service.rebalance"]) / serve_total if serve_total else 0.0
        ),
        "service.self_share": (
            rec.self_time("service.run") / serve_total if serve_total else 0.0
        ),
        "service.solve_stage_frac": (
            facts["solve_stage"] / facts["rebalances"]
            if facts.get("rebalances") else 0.0
        ),
        "service.goodput_jobs_per_s": facts.get("goodput_jobs_per_s", 0.0),
        "service.unserved_frac": facts.get("unserved_frac", 0.0),
        "service.latency_samples": facts.get("completed", 0),
        "modeling.fit_calls": len(fits),
        "modeling.fit_us_p50": nearest_rank(spans["modeling.fit"], 50) * 1e6,
        "modeling.fit_us_p90": nearest_rank(spans["modeling.fit"], 90) * 1e6,
        "modeling.fit_share": sum(spans["modeling.fit"]) / wall,
        "modeling.stale_fit_frac": (
            sum(s.attrs.get("stale", False) for s in fits) / len(fits) if fits else 0.0
        ),
        "modeling.add_calls": len(spans["modeling.add"]),
        "solver.solve_calls": len(solves),
        "solver.solve_us_p50": nearest_rank(spans["solver.solve"], 50) * 1e6,
        "solver.solve_us_p90": nearest_rank(spans["solver.solve"], 90) * 1e6,
        "solver.solve_share": sum(spans["solver.solve"]) / wall,
        "solver.ipm_iterations": span_iterations,
        "core.rebalances": len(spans["core.rebalance"]),
        "core.probe_rounds": int(delta.get("plbhec.probe_rounds", 0)),
        "core.overhead_charged_s": facts.get("overhead_charged_s", 0.0),
        "core.plbhec_speedup_x": facts.get("plbhec_speedup_x", 0.0),
        "core.plbhec_idle_frac": facts.get("plbhec_idle_frac", 0.0),
        "runtime.self_share": rec.self_time("runtime.run") / wall,
        "experiments.cache_store_us_p50": nearest_rank(spans["experiments.cache_store"], 50) * 1e6,
        "experiments.cache_load_us_p50": nearest_rank(spans["experiments.cache_load"], 50) * 1e6,
        "experiments.cache_hit_frac": (
            facts["cache_hits"] / facts["cache_lookups"]
            if facts.get("cache_lookups") else 0.0
        ),
        "experiments.cache_bytes": facts.get("cache_bytes", 0),
        "experiments.replay_runs_per_wall_s": (
            facts["runs"] / facts["warm_s"] if facts.get("warm_s") else 0.0
        ),
        "obs.sampled_run_ms": sum(spans["obs.sampled_run"]) * 1e3,
        "obs.series_write_ms": sum(spans["obs.series_write"]) * 1e3,
        "obs.series_read_ms": sum(spans["obs.series_read"]) * 1e3,
        "obs.series_bytes": facts.get("series_bytes", 0),
        "obs.explain_write_ms": sum(spans["obs.explain_write"]) * 1e3,
        "obs.trace_write_ms": sum(spans["obs.trace_write"]) * 1e3,
        "obs.critpath_ms": sum(spans["obs.critpath"]) * 1e3,
        "obs.artifact_bytes": facts.get("artifact_bytes", 0),
        "counters.ipm.iterations": int(delta.get("ipm.iterations", 0)),
        "counters.plbhec.fit_attempts": int(delta.get("plbhec.fit_attempts", 0)),
        "counters.serve.rebalances": int(delta.get("serve.rebalances", 0)),
    }
    for policy in ("greedy", "acosta", "hdss", "plb-hec"):
        runs = [s.duration for s in rec.named("runtime.run")
                if s.attrs["policy"] == policy]
        m[f"runtime.run_ms_p50.{policy}"] = nearest_rank(runs, 50) * 1e3
    for method in ("ipm", "waterfill", "proportional"):
        m[f"solver.method.{method}"] = sum(
            1 for s in solves if s.attrs["method"] == method
        )

    # guards: a refactor that moves a call must fail, not zero a layer
    problems = []
    expected = {
        "serve-plbhec": ("modeling.fit", "solver.solve", "service.rebalance"),
        "sweep-paper": ("modeling.fit", "solver.solve", "core.rebalance"),
        "artifacts": ("runtime.run", "obs.series_write", "obs.explain_write"),
        "serve-fair": ("service.rebalance",),
    }[workload]
    for name in expected:
        if not spans[name]:
            problems.append(f"expected span {name} never fired")
    if workload == "serve-fair" and (fits or solves):
        problems.append(f"serve-fair fitted {len(fits)} and solved {len(solves)} times")
    # spans against the program's own counters
    if m["counters.serve.rebalances"] != m["service.rebalance_calls"]:
        problems.append(
            f"serve.rebalances counted {m['counters.serve.rebalances']}, "
            f"rebalance spans {m['service.rebalance_calls']}"
        )
    if serve_total and events != facts["engine_events"]:
        problems.append(
            f"sim.events_dispatched counted {events}, engine processed "
            f"{facts['engine_events']}"
        )
    counted = m["counters.ipm.iterations"]
    exact = not delta.get("ipm.retries") and delta.get("ipm.solves", 0) == m["solver.method.ipm"]
    if counted < span_iterations or (exact and counted != span_iterations):
        problems.append(
            f"ipm.iterations counted {counted}, solve spans report {span_iterations}"
        )
    if not serve_total:
        want = facts["devices"] * (m["counters.plbhec.fit_attempts"] + m["core.rebalances"])
        if len(fits) != want:
            problems.append(
                f"{len(fits)} fit spans, but plbhec.fit_attempts and rebalances "
                f"imply {want}"
            )
    elif m["counters.plbhec.fit_attempts"]:
        problems.append("batch PLB-HeC fitted inside a service episode")
    return m, problems


def _run(args) -> int:
    declared = _declared()
    with SpeedProbe() as probe:
        setup_s, setup_rss_mb = _measure_setup(args.workload, args.seed, probe)

        t0 = time.perf_counter()
        import repro.cli  # noqa: F401
        import_s = time.perf_counter() - t0
        modules = len(sys.modules)
        scipy_loaded = int("scipy" in sys.modules)

        off = NullRecorder()
        workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            wl = make_workload(args.workload, args.seed, workdir)
            laps = [wl.lap(off, 0)]  # warm-up: lazy imports, first-call caches
            traced = []
            # trace 0 plays every input at least once; trace 1 replays the
            # warm-up's input, so counts are exact and overhead compares like
            # with like
            least = 1 if args.trace else max(MIN_LAPS, wl.inputs)
            deadline = time.perf_counter() + args.seconds
            windows, traced_windows = [], []
            while time.perf_counter() < deadline or len(laps) <= least:
                key = 0 if args.trace else len(laps) % wl.inputs
                t0 = time.perf_counter()
                laps.append(wl.lap(off, key))
                windows.append((t0, time.perf_counter()))
                if args.trace:
                    rec = Recorder()
                    before, t0 = _counters(), time.perf_counter()
                    with rec:
                        lap = wl.lap(rec, key)
                    after = _counters()
                    traced_windows.append((t0, time.perf_counter()))
                    delta = {k: v - before.get(k, 0) for k, v in after.items()}
                    metrics, guards = _layer_metrics(args.workload, lap, rec, delta)
                    lap.problems += guards
                    traced.append((lap, metrics))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    problems: list[str] = []
    firsts = {}
    for lap in laps + [lap for lap, _ in traced]:
        found = list(lap.problems)
        first = firsts.setdefault(lap.key, lap)
        if lap.fingerprint != first.fingerprint:
            found.append(f"input {lap.key}: virtual results differ between laps")
        attempted += lap.ops
        if found:
            failed += lap.ops
            problems += found

    pool = [x for lap in firsts.values() for x in lap.samples]
    if args.trace:
        names = [n for n, (_, g) in declared.items() if g == "per_layer"]
        values = {n: statistics.median(m[n] for _, m in traced)
                  for n in traced[0][1]}
        def rescaled_wall(pairs):
            return statistics.median(
                lap.wall_s / probe.slowdown(*window) for lap, window in pairs
            )

        untraced = rescaled_wall(zip(laps[1:], windows))
        values.update({
            "imports.cli_s": import_s,
            "imports.modules": modules,
            "imports.scipy_loaded": scipy_loaded,
            "process.peak_rss_mb": _peak_rss_mb(),
            "tracing.overhead_frac":
                rescaled_wall(zip([lap for lap, _ in traced], traced_windows))
                / untraced - 1.0,
        })
    else:
        names = [n for n, (_, g) in declared.items() if g == "end_to_end"]
        values = {
            "setup_s": setup_s,
            "setup_rss_mb": setup_rss_mb,
            "ops_per_wall_s": statistics.median(
                wl.throughput(lap) * probe.slowdown(*window)
                for lap, window in zip(laps[1:], windows)
            ),
            "virtual_latency_p50_s": nearest_rank(pool, 50),
            "virtual_latency_p95_s": nearest_rank(pool, 95),
        }
    if set(values) != set(names):
        _die(f"metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json", 3)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": declared[n][0]} for n in names},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def _run_all(args) -> int:
    """Every workload in its own interpreter; a table, then a JSON summary."""
    status, summary = 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        summary[workload] = result
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return _run_all(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
