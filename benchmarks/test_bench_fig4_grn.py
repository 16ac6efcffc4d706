"""Benchmark F4-GRN: Fig. 4 (bottom) — GRN execution time and speedup.

Prints the Fig. 4 GRN series (gene counts 60k..140k, 1-4 machines).
"""

from benchmarks.conftest import fast_mode
from repro.experiments.report import render_sweep, run_grid


def test_bench_fig4_grn(benchmark, replications):
    sizes = [60_000, 140_000] if fast_mode() else [60_000, 100_000, 140_000]
    machines = [4] if fast_mode() else [1, 2, 3, 4]
    points = benchmark.pedantic(
        run_grid,
        args=([("grn", s, m) for m in machines for s in sizes],),
        kwargs={"replications": replications},
        rounds=1,
        iterations=1,
    )
    print()
    print(render_sweep(points))
    largest = [
        p for p in points if p.size == max(sizes) and p.num_machines == max(machines)
    ][0]
    assert largest.speedup_vs("greedy", "plb-hec") > 1.2
