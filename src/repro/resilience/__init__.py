"""Resilience layer: fault schedules, invariants, chaos campaigns.

The paper's Sec. VI outlook claims the algorithm "re-adapts" when
machines become unavailable or degraded.  This package turns that claim
into something falsifiable:

* :mod:`repro.resilience.faults` — serialisable fault descriptions and
  seeded randomized fault-schedule generation;
* :mod:`repro.resilience.invariants` — work-conservation and
  fault-isolation checks every faulted run must satisfy;
* :mod:`repro.resilience.campaign` — the one chaos campaign runner,
  :func:`run_campaign`: seeded randomized fault schedules through the
  parallel sweep engine, scored against fault-free baselines, over
  batch runs (:class:`ChaosConfig`) or service episodes
  (:class:`ServeChaosConfig`).
"""

from repro.resilience.campaign import (
    ChaosConfig,
    ServeChaosConfig,
    run_campaign,
)
from repro.resilience.faults import (
    fault_from_dict,
    fault_to_dict,
    generate_schedule,
)
from repro.resilience.invariants import (
    Violation,
    check_conservation,
    check_fault_isolation,
    check_makespan,
    check_run,
    recovery_lags,
)

__all__ = [
    "ChaosConfig",
    "ServeChaosConfig",
    "run_campaign",
    "fault_from_dict",
    "fault_to_dict",
    "generate_schedule",
    "Violation",
    "check_conservation",
    "check_fault_isolation",
    "check_makespan",
    "check_run",
    "recovery_lags",
]
