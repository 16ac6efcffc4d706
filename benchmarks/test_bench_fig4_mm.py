"""Benchmark F4-MM: Fig. 4 (top) — MatMul execution time and speedup.

Prints one row per (machines, size, policy) with mean execution time and
speedup vs Greedy, the series Fig. 4's MM panels plot.  Shape assertions
encode the paper's findings: PLB-HeC wins at the largest size with four
machines; Greedy wins at the smallest.
"""

from benchmarks.conftest import fast_mode
from repro.experiments.report import render_sweep, run_grid


def test_bench_fig4_matmul(benchmark, replications):
    sizes = [4096, 65536] if fast_mode() else [4096, 16384, 65536]
    machines = [4] if fast_mode() else [1, 2, 3, 4]
    points = benchmark.pedantic(
        run_grid,
        args=([("matmul", s, m) for m in machines for s in sizes],),
        kwargs={"replications": replications},
        rounds=1,
        iterations=1,
    )
    print()
    print(render_sweep(points))
    largest = [
        p for p in points if p.size == max(sizes) and p.num_machines == max(machines)
    ][0]
    assert largest.speedup_vs("greedy", "plb-hec") > 1.5
    assert largest.speedup_vs("greedy", "plb-hec") > largest.speedup_vs(
        "greedy", "hdss"
    )
    smallest = [
        p for p in points if p.size == min(sizes) and p.num_machines == max(machines)
    ][0]
    assert smallest.speedup_vs("greedy", "plb-hec") < 1.0
