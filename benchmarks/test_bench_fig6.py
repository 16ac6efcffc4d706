"""Benchmark F6: Fig. 6 — block-size distribution among processing units.

Prints, for each (application, input size), every estimating algorithm's
per-device share of one dispatch step — Fig. 6's bars.  Shape
assertions: distributions normalise, GPUs receive the dominant share,
and machine B's units receive the least.
"""

from benchmarks.conftest import fast_mode
from repro.experiments.report import (
    DEFAULT_CASES,
    FIG6_POLICIES,
    gpu_share,
    render_distribution,
    run_grid,
)


def test_bench_fig6_distribution(benchmark, replications):
    cases = (
        (("matmul", (16384, 65536)),)
        if fast_mode()
        else DEFAULT_CASES
    )
    results = benchmark.pedantic(
        run_grid,
        args=([(a, s, 4) for a, sizes in cases for s in sizes], FIG6_POLICIES),
        kwargs={"replications": replications},
        rounds=1,
        iterations=1,
    )
    print()
    print(render_distribution(results))
    for case in results:
        for policy, outcome in case.outcomes.items():
            dist = outcome.mean_distribution()
            total = sum(dist.values())
            assert abs(total - 1.0) < 1e-6, (case.app_name, policy, total)
            assert gpu_share(dist) > 0.5
            weakest = min(v for d, v in dist.items() if "gpu" in d)
            strongest = max(v for d, v in dist.items() if "gpu" in d)
            assert strongest > weakest
