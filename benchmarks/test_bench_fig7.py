"""Benchmark F7: Fig. 7 — processing-unit idleness.

Prints, for each (application, input size), the per-device idle fraction
under HDSS and PLB-HeC — Fig. 7's bars.  Shape assertions encode the
paper's findings: PLB-HeC idles less than HDSS in every scenario, and
idleness shrinks with input size.
"""

from benchmarks.conftest import fast_mode
from repro.experiments.report import (
    DEFAULT_CASES,
    FIG7_POLICIES,
    mean_idle,
    render_idleness,
    run_grid,
)


def test_bench_fig7_idleness(benchmark, replications):
    cases = (
        (("matmul", (16384, 65536)),)
        if fast_mode()
        else DEFAULT_CASES
    )
    results = benchmark.pedantic(
        run_grid,
        args=([(a, s, 4) for a, sizes in cases for s in sizes], FIG7_POLICIES),
        kwargs={"replications": replications},
        rounds=1,
        iterations=1,
    )
    print()
    print(render_idleness(results))
    for case in results:
        assert mean_idle(case, "plb-hec") < mean_idle(case, "hdss"), (
            case.app_name,
            case.size,
        )
    # PLB-HeC's idleness shrinks (or stays flat) with input size — its
    # initial phase amortises, the paper's Sec. V.c observation.  (HDSS's
    # adaptive budget scales with the input, so its trend is app-dependent.)
    by_app: dict[str, list] = {}
    for case in results:
        by_app.setdefault(case.app_name, []).append(case)
    for app_cases in by_app.values():
        app_cases.sort(key=lambda c: c.size)
        small, large = app_cases[0], app_cases[-1]
        assert mean_idle(large, "plb-hec") <= mean_idle(small, "plb-hec") * 1.25
