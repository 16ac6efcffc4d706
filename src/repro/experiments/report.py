"""The paper's evaluation as one table of experiments.

:data:`EXPERIMENTS` has one :class:`Experiment` row per reproduced
artefact: Table I, Fig. 1, Figs. 4-7, the Sec. V.a solver cost and the
beyond-paper studies.  A row says how to run the artefact, how to render
it and which of the paper's qualitative claims it checks on its own
result.  :func:`generate_report` runs any subset of the rows and returns
the markdown report with the claim checklist; the CLI exposes it as
``python -m repro report`` and exits 2 when a claim fails.

Figs. 4-7 share one grid runner, :func:`run_grid`, which pins PLB-HeC's
scheduler-overhead charge to
:data:`~repro.experiments.runner.FIXED_OVERHEAD_S` (as ``repro run``
does), so the printed figures depend on the config and seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.experiments.ablations import (
    render_ablation,
    run_probe_ablation,
    run_rebalance_ablation,
    run_selection_ablation,
)
from repro.experiments.fig1_models import render_fig1, run_fig1
from repro.experiments.heterogeneity import (
    render_heterogeneity,
    run_heterogeneity,
)
from repro.experiments.parallel import PointSpec, run_sweep
from repro.experiments.runner import FIXED_OVERHEAD_S, PAPER_POLICIES, SweepPoint
from repro.experiments.sensitivity import render_sensitivity, run_sensitivity
from repro.experiments.solver_overhead import OverheadStats, run_solver_overhead
from repro.experiments.table1 import render_table1
from repro.util.tables import format_table

__all__ = [
    "DEFAULT_CASES",
    "EXPERIMENTS",
    "Experiment",
    "FIG6_POLICIES",
    "FIG7_POLICIES",
    "ShapeCheck",
    "generate_report",
    "gpu_share",
    "mean_idle",
    "render_distribution",
    "render_idleness",
    "render_sweep",
    "run_grid",
]

#: The paper's input sizes: matrix orders, gene counts (Fig. 4) and
#: option counts (Fig. 5).
MM_SIZES: tuple[int, ...] = (4096, 8192, 16384, 32768, 65536)
GRN_SIZES: tuple[int, ...] = (60_000, 80_000, 100_000, 120_000, 140_000)
BS_SIZES: tuple[int, ...] = (10_000, 50_000, 100_000, 250_000, 500_000)
#: Figs. 6 and 7: (application, two input sizes), always on 4 machines.
DEFAULT_CASES: tuple[tuple[str, tuple[int, int]], ...] = (
    ("matmul", (16384, 65536)),
    ("grn", (60_000, 140_000)),
    ("blackscholes", (100_000, 500_000)),
)
FIG6_POLICIES: tuple[str, ...] = ("acosta", "hdss", "plb-hec")
FIG7_POLICIES: tuple[str, ...] = ("hdss", "plb-hec")


@dataclass(frozen=True)
class ShapeCheck:
    """One of the paper's qualitative claims, evaluated on measured data."""

    claim: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Experiment:
    """One reproduced artefact.

    ``run(fast=, replications=, seed=, jobs=)`` returns the raw result,
    ``render`` turns it into the printed table and ``claims`` (if any)
    checks the paper's claims on it.
    """

    name: str
    paper_ref: str
    run: Callable[..., Any]
    render: Callable[[Any], str]
    claims: Callable[[Any], list[ShapeCheck]] | None = None


def run_grid(
    cells: Sequence[tuple[str, int, int]],
    policies: Sequence[str] = PAPER_POLICIES,
    *,
    replications: int = 3,
    seed: int = 0,
    jobs: int | None = None,
) -> list[SweepPoint]:
    """Run (app, size, machines) cells as one sweep, overhead pinned."""
    specs = [
        PointSpec(
            app_name=app_name,
            size=size,
            num_machines=machines,
            policies=tuple(policies),
            replications=replications,
            seed=seed,
            fixed_overhead_s=FIXED_OVERHEAD_S,
        )
        for app_name, size, machines in cells
    ]
    return run_sweep(specs, jobs=jobs)


def _grid_row(cells: Callable[[bool], list], policies=PAPER_POLICIES):
    """A row's ``run``: the cells for ``fast`` as one :func:`run_grid`."""
    return lambda *, fast, replications, seed, jobs: run_grid(
        cells(fast), policies, replications=replications, seed=seed, jobs=jobs
    )


def _sweep_cells(app_name: str, sizes: Sequence[int], fast: bool) -> list:
    """Figs. 4/5 cells; ``fast`` keeps the first and last size on 4 machines."""
    if fast:
        return [(app_name, size, 4) for size in (sizes[0], sizes[-1])]
    return [(app_name, size, m) for m in (1, 2, 3, 4) for size in sizes]


def _case_cells(fast: bool) -> list:
    return [(app, size, 4) for app, sizes in DEFAULT_CASES for size in sizes]


def gpu_share(distribution: Mapping[str, float]) -> float:
    """Total share assigned to GPU processing units."""
    return sum(v for d, v in distribution.items() if "gpu" in d)


def mean_idle(point: SweepPoint, policy: str) -> float:
    """A policy's idle fraction averaged over the processing units."""
    values = point.outcomes[policy].mean_idle().values()
    return sum(values) / len(values) if values else 0.0


def render_sweep(points: Sequence[SweepPoint], *, baseline: str = "greedy") -> str:
    """Figs. 4/5: one row per (app, machines, size, policy)."""
    rows = [
        [pt.app_name, pt.num_machines, pt.size, name, outcome.mean_makespan,
         outcome.std_makespan, pt.speedup_vs(baseline, name)]
        for pt in points
        for name, outcome in pt.outcomes.items()
    ]
    return format_table(
        ["app", "machines", "size", "policy", "time_s", "std_s", "speedup"],
        rows,
        title=f"Execution time and speedup vs {baseline}",
    )


def _device_table(points, title, extra_headers, row) -> str:
    """Figs. 6/7: one row per (app, size, policy), a column per device.

    ``row(point, policy)`` returns the per-device values and the extra
    trailing cells.
    """
    if not points:
        return "(no cases)"
    devices = sorted(row(points[0], next(iter(points[0].outcomes)))[0])
    rows = []
    for pt in points:
        for policy in pt.outcomes:
            per_device, extra = row(pt, policy)
            rows.append([pt.app_name, pt.size, policy]
                        + [per_device.get(d, 0.0) for d in devices] + extra)
    return format_table(
        ["app", "size", "policy", *devices, *extra_headers], rows, title=title
    )


def render_distribution(points: Sequence[SweepPoint]) -> str:
    """Fig. 6: each policy's per-device share of one step."""

    def row(pt, policy):
        dist = pt.outcomes[policy].mean_distribution()
        return dist, [gpu_share(dist)]

    return _device_table(
        points, "Fig.6 block-size distribution (share of one step)",
        ["gpu_total"], row,
    )


def render_idleness(points: Sequence[SweepPoint]) -> str:
    """Fig. 7: each policy's per-device idle fraction."""

    def row(pt, policy):
        outcome = pt.outcomes[policy]
        rebalances = sum(outcome.rebalances) / len(outcome.rebalances)
        return outcome.mean_idle(), [mean_idle(pt, policy), rebalances]

    return _device_table(
        points, "Fig.7 idle fraction of total execution time",
        ["mean", "rebalances"], row,
    )


def _cells(points: Sequence[SweepPoint], app_name: str):
    """The app's points by (size, machines), plus its smallest/largest size."""
    cells = {(p.size, p.num_machines): p for p in points if p.app_name == app_name}
    sizes = sorted({size for size, _ in cells})
    return cells, sizes[0], sizes[-1]


def _plb(point: SweepPoint) -> float:
    return point.speedup_vs("greedy", "plb-hec")


def _fig4_claims(points: Sequence[SweepPoint]) -> list[ShapeCheck]:
    mm, small, big = _cells(points, "matmul")
    s_plb, s_hdss, s_acosta = (
        mm[(big, 4)].speedup_vs("greedy", p) for p in ("plb-hec", "hdss", "acosta")
    )
    checks = [
        ShapeCheck(
            "MM largest/4 machines: PLB-HeC > HDSS > Acosta (paper 2.2/1.2/1.04)",
            s_plb > s_hdss > s_acosta,
            f"measured {s_plb:.2f}/{s_hdss:.2f}/{s_acosta:.2f}",
        ),
        ShapeCheck(
            "MM smallest input: Greedy wins (paper Fig. 4)",
            _plb(mm[(small, 4)]) < 1.0,
            f"PLB-HeC speedup {_plb(mm[(small, 4)]):.2f}",
        ),
    ]
    fewest = min(m for _, m in mm)
    if fewest < 4:
        s_few = _plb(mm[(big, fewest)])
        checks.append(ShapeCheck(
            "MM speedup grows with machine count (paper Sec. V.a)",
            s_plb > s_few,
            f"{fewest} machines {s_few:.2f} -> 4 machines {s_plb:.2f}",
        ))
    grn, _, grn_big = _cells(points, "grn")
    s_grn = _plb(grn[(grn_big, 4)])
    checks.append(ShapeCheck(
        "GRN largest: PLB-HeC wins (paper Fig. 4)", s_grn > 1.0,
        f"speedup {s_grn:.2f}",
    ))
    return checks


def _fig5_claims(points: Sequence[SweepPoint]) -> list[ShapeCheck]:
    bs, small, big = _cells(points, "blackscholes")
    s_small, s_big = _plb(bs[(small, 4)]), _plb(bs[(big, 4)])
    return [ShapeCheck(
        "Black-Scholes crossover: Greedy wins small, PLB-HeC wins large "
        "(paper Fig. 5)",
        s_small < 1.0 < s_big,
        f"{small} {s_small:.2f}, {big} {s_big:.2f}",
    )]


def _fig6_claims(points: Sequence[SweepPoint]) -> list[ShapeCheck]:
    return [
        ShapeCheck(
            f"Fig.6 {pt.app_name} {pt.size} {policy}: GPUs receive the "
            "dominant share",
            share > 0.5,
            f"GPU total {share:.2f}",
        )
        for pt in points
        for policy, outcome in pt.outcomes.items()
        for share in [gpu_share(outcome.mean_distribution())]
    ]


def _fig7_claims(points: Sequence[SweepPoint]) -> list[ShapeCheck]:
    return [
        ShapeCheck(
            f"Fig.7 {pt.app_name} {pt.size}: PLB-HeC idles less than HDSS",
            mean_idle(pt, "plb-hec") < mean_idle(pt, "hdss"),
            f"PLB {mean_idle(pt, 'plb-hec'):.2f} vs "
            f"HDSS {mean_idle(pt, 'hdss'):.2f}",
        )
        for pt in points
    ]


def _render_overhead(stats: OverheadStats) -> str:
    return (
        f"solver overhead: {stats.mean_ms:.1f} +- {stats.std_ms:.1f} ms "
        f"({stats.samples} solves, method={stats.method}, "
        f"iterations={stats.iterations}); paper: 170 +- 32.3 ms"
    )


def _overhead_claims(stats: OverheadStats) -> list[ShapeCheck]:
    return [ShapeCheck(
        "Solve overhead milliseconds-scale (paper 170 ms)",
        stats.mean_ms < 1000.0,
        f"{stats.mean_ms:.1f} +- {stats.std_ms:.1f} ms ({stats.method})",
    )]


def _run_ablations(**_) -> list[tuple[str, list]]:
    return [
        ("A1 selection", run_selection_ablation()),
        ("A2 rebalancing", run_rebalance_ablation()),
        ("A3 probing", run_probe_ablation()),
    ]


def _render_ablations(studies: list[tuple[str, list]]) -> str:
    return "\n\n".join(render_ablation(rows, title=t) for t, rows in studies)


#: The reproduced artefacts, in report order.
EXPERIMENTS: dict[str, Experiment] = {e.name: e for e in (
    Experiment("table1", "Table I: machine configurations",
               run=lambda **_: None, render=lambda _: render_table1()),
    Experiment("fig1", "Fig. 1: measured vs fitted execution times",
               run=lambda *, seed, **_: run_fig1(seed=seed),
               render=render_fig1),
    Experiment("fig4", "Fig. 4: MM and GRN execution time and speedup",
               run=_grid_row(lambda fast: _sweep_cells("matmul", MM_SIZES, fast)
                             + _sweep_cells("grn", GRN_SIZES, fast)),
               render=render_sweep, claims=_fig4_claims),
    Experiment("fig5", "Fig. 5: Black-Scholes execution time and speedup",
               run=_grid_row(lambda fast: _sweep_cells("blackscholes", BS_SIZES, fast)),
               render=render_sweep, claims=_fig5_claims),
    Experiment("fig6", "Fig. 6: block-size distribution",
               run=_grid_row(_case_cells, FIG6_POLICIES),
               render=render_distribution, claims=_fig6_claims),
    Experiment("fig7", "Fig. 7: processing-unit idleness",
               run=_grid_row(_case_cells, FIG7_POLICIES),
               render=render_idleness, claims=_fig7_claims),
    Experiment("overhead", "Sec. V.a: interior-point solve cost",
               run=lambda **_: run_solver_overhead(),
               render=_render_overhead, claims=_overhead_claims),
    Experiment("ablations", "DESIGN.md A1-A3: ablation studies",
               run=_run_ablations, render=_render_ablations),
    Experiment("heterogeneity", "DESIGN.md H1: speedup vs heterogeneity",
               run=lambda **_: run_heterogeneity(),
               render=render_heterogeneity),
    Experiment("sensitivity", "DESIGN.md S2: initial-block-size sensitivity",
               run=lambda **_: run_sensitivity(),
               render=lambda result: render_sensitivity(*result)),
)}


def generate_report(
    only: Sequence[str] | None = None,
    *,
    fast: bool = False,
    replications: int = 3,
    seed: int = 0,
    jobs: int | None = None,
) -> tuple[str, list[ShapeCheck]]:
    """Run the selected experiments (all by default), check their claims.

    Returns the markdown report and every claim result, in table order.
    """
    sections, checks = [], []
    for exp in EXPERIMENTS.values():
        if only is not None and exp.name not in only:
            continue
        result = exp.run(fast=fast, replications=replications, seed=seed, jobs=jobs)
        if exp.claims is not None:
            checks += [(exp.name, c) for c in exp.claims(result)]
        sections.append(
            f"## {exp.name}: {exp.paper_ref}\n\n```\n{exp.render(result)}\n```"
        )
    parts = ["# PLB-HeC reproduction report", ""]
    if checks:
        passed = sum(c.passed for _, c in checks)
        parts += [f"**Shape checks: {passed}/{len(checks)} passed.**", "",
                  "| status | experiment | claim | measured |", "|---|---|---|---|"]
        parts += [f"| {'PASS' if c.passed else 'FAIL'} | {name} | {c.claim} "
                  f"| {c.detail} |" for name, c in checks]
        parts.append("")
    return "\n".join(parts + sections), [c for _, c in checks]
