"""Benchmark F5: Fig. 5 — Black-Scholes execution time and speedup.

Prints the Fig. 5 series (option counts 10k..500k, 1-4 machines).  The
paper's BS findings: the smallest gains of the three applications, with
Greedy ahead on small option books (scheduler overhead dominates) and
PLB-HeC ahead on large ones.
"""

from benchmarks.conftest import fast_mode
from repro.experiments.report import render_sweep, run_grid


def test_bench_fig5_blackscholes(benchmark, replications):
    sizes = [10_000, 500_000] if fast_mode() else [10_000, 100_000, 500_000]
    machines = [4] if fast_mode() else [1, 2, 3, 4]
    points = benchmark.pedantic(
        run_grid,
        args=([("blackscholes", s, m) for m in machines for s in sizes],),
        kwargs={"replications": replications},
        rounds=1,
        iterations=1,
    )
    print()
    print(render_sweep(points))
    largest = [
        p for p in points if p.size == max(sizes) and p.num_machines == max(machines)
    ][0]
    smallest = [
        p for p in points if p.size == min(sizes) and p.num_machines == max(machines)
    ][0]
    assert largest.speedup_vs("greedy", "plb-hec") > 1.0
    assert smallest.speedup_vs("greedy", "plb-hec") < 1.0
