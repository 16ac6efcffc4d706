"""Experiment harness: regenerates every table and figure of the paper.

:mod:`repro.experiments.report` holds the one table of experiments
(``EXPERIMENTS``) that ``python -m repro report`` runs: one row per
paper artefact, each pointing at its run function (``table1``,
``fig1_models``, ``solver_overhead``, ``ablations``, ``heterogeneity``,
``sensitivity``, or the pinned Figs. 4-7 grid runner ``run_grid``), its
renderer and its claim checks.

Shared machinery lives in :mod:`repro.experiments.runner`; the parallel
sweep engine (process fan-out + content-addressed result cache, the
``REPRO_JOBS`` / ``REPRO_CACHE`` knobs) in
:mod:`repro.experiments.parallel`.  The repository benchmark that
times the engine is ``perfbench/`` (see its README).
"""

from repro.experiments.parallel import (
    PointSpec,
    ResultCache,
    SweepStats,
    run_point,
    run_sweep,
)
from repro.experiments.runner import (
    PolicyOutcome,
    SweepPoint,
    make_application,
    make_policy,
    run_policies,
)

__all__ = [
    "PolicyOutcome",
    "SweepPoint",
    "PointSpec",
    "ResultCache",
    "SweepStats",
    "make_application",
    "make_policy",
    "run_policies",
    "run_point",
    "run_sweep",
]
