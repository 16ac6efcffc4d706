"""The one chaos campaign runner, for batch runs and service episodes.

A campaign is a seeded grid of randomized fault schedules over ``runs``
slots, executed through the parallel sweep engine in two phases:

1. **Baselines** — every slot runs fault-free.  The baselines anchor
   the degradation scores and, for batch runs, scale each slot's
   fault-schedule horizon (fault times are fractions of the fault-free
   makespan, so schedules stay meaningful across apps and sizes).
2. **Chaos** — the same slots re-run under their fault schedules with
   ``tolerate_errors`` on: a crash is a lost run, not an abort.

:func:`run_campaign` owns that protocol, the survival accounting and
the scorecard.  The configs supply only what differs: the sweep point,
the fault horizon, the invariant check and the mode's record and
aggregate columns.  :class:`ChaosConfig` faults single application
runs and checks the work-conservation and fault-isolation invariants
of :mod:`repro.resilience.invariants`; :class:`ServeChaosConfig`
faults a serving loop that must keep admitting, shedding and
completing jobs, and checks the service invariants.  A campaign is a
pure function of its config: the same seed gives a bit-identical
scorecard, and the sweep cache applies to both phases.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Sequence

from repro.errors import ConfigurationError
from repro.experiments.parallel import PointSpec, SweepStats, run_sweep
from repro.obs.events import EventLog
from repro.obs.metrics import get_registry
from repro.resilience.faults import fault_to_dict, generate_schedule
from repro.resilience.invariants import check_makespan
from repro.sim.random import RandomStreams
from repro.util.logging import get_logger

__all__ = ["ChaosConfig", "ServeChaosConfig", "run_campaign"]

_log = get_logger("resilience.campaign")
_events = EventLog("resilience.campaign")

#: chaos runs pin the scheduler-overhead charge so campaigns are
#: bit-reproducible (measured host time would jitter the makespans)
_FIXED_OVERHEAD_S = 0.002


class _Slots:
    """Slot ``i`` runs ``policies[i % len(policies)]`` at its own seed."""

    def policy(self, i: int) -> str:
        return self.policies[i % len(self.policies)]

    def run_seed(self, i: int) -> int:
        # PointSpec.expand derives run_seed = seed * 1000; distinct
        # per-slot seeds keep every campaign slot on its own noise stream
        return self.seed * 1000 + i


@dataclass(frozen=True)
class ChaosConfig(_Slots):
    """What one batch chaos campaign runs.

    ``runs`` fault schedules are dealt round-robin over the
    scenario × policy grid: run ``i`` uses application
    ``apps[i % len(apps)]``, policy ``policies[i % len(policies)]`` and
    a per-run seed derived from ``seed``, so any two campaigns with the
    same config are identical.
    """

    apps: tuple[str, ...] = ("matmul",)
    sizes: tuple[int, ...] = (2048,)
    machines: int = 2
    policies: tuple[str, ...] = ("plb-hec", "greedy", "hdss", "gss")
    runs: int = 16
    seed: int = 0
    noise_sigma: float = 0.005
    max_faults: int = 2
    anomaly_tolerance: float = 0.25

    #: fault-schedule stream label (changing it changes every schedule)
    stream: ClassVar[str] = "chaos"

    def __post_init__(self) -> None:
        if not self.apps or not self.sizes or not self.policies:
            raise ConfigurationError("chaos campaign needs apps, sizes and policies")
        if len(self.apps) != len(self.sizes):
            raise ConfigurationError(
                f"apps ({len(self.apps)}) and sizes ({len(self.sizes)}) "
                "must pair up"
            )
        if self.runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {self.runs}")
        if self.machines < 1:
            raise ConfigurationError(f"machines must be >= 1, got {self.machines}")

    def to_dict(self) -> dict:
        return {
            "apps": list(self.apps),
            "sizes": list(self.sizes),
            "machines": self.machines,
            "policies": list(self.policies),
            "runs": self.runs,
            "seed": self.seed,
            "noise_sigma": self.noise_sigma,
            "max_faults": self.max_faults,
            "anomaly_tolerance": self.anomaly_tolerance,
        }

    def point(self, i: int, faults: tuple) -> PointSpec:
        """The sweep point slot ``i`` runs under ``faults``."""
        return PointSpec(
            app_name=self.apps[i % len(self.apps)],
            size=self.sizes[i % len(self.sizes)],
            num_machines=self.machines,
            policies=(self.policy(i),),
            replications=1,
            seed=self.run_seed(i),
            noise_sigma=self.noise_sigma,
            fixed_overhead_s=_FIXED_OVERHEAD_S,
            faults=faults,
            tolerate_errors=bool(faults),
            # auto-interval telemetry: deterministic (ground-truth derived),
            # so the scorecard's SLO column stays bit-identical per config
            sample_interval=0.0,
        )

    def horizon(self, baseline: dict) -> float:
        """Fault times scale with the slot's fault-free makespan."""
        return baseline["makespan"]

    def check(self, baseline: dict, payload: dict) -> list:
        """Invariant violations of one surviving chaos run."""
        resilience = payload.get("resilience") or {}
        return list(resilience.get("violations", [])) + [
            {"name": v.name, "message": v.message}
            for v in check_makespan(
                payload["makespan"],
                baseline["makespan"],
                anomaly_tolerance=self.anomaly_tolerance,
            )
        ]

    def score(self, i: int, baseline: dict, payload: dict) -> dict:
        """The batch record columns of slot ``i``'s chaos run."""
        base = baseline["makespan"]
        makespan = payload.get("makespan")
        resilience = payload.get("resilience") or {}
        ledger = payload.get("ledger") or {}
        # SLO health of the (sampled) chaos run: deterministic series →
        # deterministic verdicts, so this column is reproducible too
        slo_violations = 0
        series = payload.get("series")
        if series:
            from repro.obs.slo import DEFAULT_SLO_SPEC, evaluate_slo
            from repro.obs.timeseries import store_from_payload

            slo_report = evaluate_slo(
                DEFAULT_SLO_SPEC, store_from_payload(series["store"])
            )
            slo_violations = int(slo_report["violations"])
        # makespan attribution of the chaos run: where the degradation
        # actually went (fault recovery? rework? idle?), per category
        critpath = payload.get("critpath") or {}
        attribution = {}
        if critpath:
            from repro.obs.critpath import category_shares

            attribution = category_shares(critpath)
        return {
            "app": self.apps[i % len(self.apps)],
            "size": self.sizes[i % len(self.sizes)],
            "baseline_makespan": base,
            "makespan": makespan,
            "degradation": (
                makespan / base if makespan is not None and base > 0 else None
            ),
            "recovery_lags": list(resilience.get("recovery_lags", [])),
            "lost_units": resilience.get("lost_units", 0),
            "retries": resilience.get("retries", 0),
            "decisions": len(ledger.get("decisions", ())),
            # per-stage counts of the fired fallbacks, so policies aggregate
            "fallback_stages": dict(Counter(ledger.get("fallback_stages", ()))),
            "slo_violations": slo_violations,
            "attribution": attribution,
        }

    def summarise(self, rows: list[dict], survived: list[dict]) -> dict:
        """One policy's batch aggregates over its ``rows``."""
        degradations = [
            r["degradation"] for r in survived if r["degradation"] is not None
        ]
        lags = [lag for r in rows for lag in r["recovery_lags"]]
        fallback_stages: Counter = Counter()
        for r in rows:
            fallback_stages.update(r["fallback_stages"])
        # mean makespan-attribution shares over the surviving runs, so
        # the scorecard says *where* each policy's time went under chaos
        attributed = [r["attribution"] for r in survived if r["attribution"]]
        return {
            "mean_degradation": (
                sum(degradations) / len(degradations) if degradations else None
            ),
            "max_degradation": max(degradations) if degradations else None,
            "mean_recovery_lag": sum(lags) / len(lags) if lags else None,
            "decisions_explained": sum(r["decisions"] for r in rows),
            "fallback_stages_used": dict(sorted(fallback_stages.items())),
            "slo_violations": sum(r["slo_violations"] for r in rows),
            "mean_attribution": {
                category: sum(a.get(category, 0.0) for a in attributed)
                / len(attributed)
                for category in sorted(attributed[0] if attributed else ())
            },
        }


@dataclass(frozen=True)
class ServeChaosConfig(_Slots):
    """One serve chaos campaign: a seeded grid of faulted episodes.

    ``runs`` episodes are dealt round-robin over ``policies`` (balancer
    flavors) with per-run derived seeds, exactly like the batch
    campaign, so two campaigns with equal configs are identical.
    """

    policies: tuple[str, ...] = ("plb-hec", "greedy", "fair")
    runs: int = 6
    seed: int = 0
    rate: float = 3.0
    duration: float = 12.0
    machines: int = 2
    queue_limit: int = 8
    shed_policy: str = "drop-oldest"
    max_active: int = 4
    deadline_factor: float = 30.0
    retry_budget: int = 4
    max_faults: int = 2

    #: fault-schedule stream label (changing it changes every schedule)
    stream: ClassVar[str] = "serve-chaos"

    def __post_init__(self) -> None:
        from repro.service.balancer import BALANCER_FLAVORS

        if not self.policies:
            raise ConfigurationError("serve campaign needs policies")
        for policy in self.policies:
            if policy not in BALANCER_FLAVORS:
                raise ConfigurationError(
                    f"unknown balancer flavor {policy!r}; "
                    f"choose from {BALANCER_FLAVORS}"
                )
        if self.runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {self.runs}")

    def to_dict(self) -> dict:
        return {
            "policies": list(self.policies),
            "runs": int(self.runs),
            "seed": int(self.seed),
            "rate": float(self.rate),
            "duration": float(self.duration),
            "machines": int(self.machines),
            "queue_limit": int(self.queue_limit),
            "shed_policy": self.shed_policy,
            "max_active": int(self.max_active),
            "deadline_factor": float(self.deadline_factor),
            "retry_budget": int(self.retry_budget),
            "max_faults": int(self.max_faults),
        }

    def service_config(self, policy: str, faults: tuple = ()):
        """The episode config (a ``ServiceConfig``) one slot runs."""
        from repro.service.arrivals import ArrivalSpec
        from repro.service.server import ServiceConfig

        return ServiceConfig(
            arrivals=ArrivalSpec(rate=self.rate, duration=self.duration),
            machines=self.machines,
            policy=policy,
            queue_limit=self.queue_limit,
            shed_policy=self.shed_policy,
            max_active=self.max_active,
            deadline_factor=self.deadline_factor,
            retry_budget=self.retry_budget,
            faults=faults,
        )

    def point(self, i: int, faults: tuple) -> PointSpec:
        """The sweep point slot ``i`` runs under ``faults``."""
        service = self.service_config(self.policy(i), faults)
        return PointSpec(
            app_name="serve",
            size=0,
            num_machines=self.machines,
            policies=(self.policy(i),),
            replications=1,
            seed=self.run_seed(i),
            noise_sigma=0.0,
            tolerate_errors=bool(faults),
            service_json=service.to_sweep_json(),
        )

    def horizon(self, baseline: dict) -> float:
        """Fault times fall inside the arrival horizon."""
        return self.duration

    def check(self, baseline: dict, payload: dict) -> list:
        """Scorecard-schema and service-invariant errors of one episode."""
        from repro.service.scorecard import validate_scorecard

        card = payload["serve"]
        return validate_scorecard(card) + list(card.get("invariant_errors", ()))

    def score(self, i: int, baseline: dict, payload: dict) -> dict:
        """The serve record columns of slot ``i``'s chaos episode."""
        card = payload.get("serve") or {}
        base_card = baseline.get("serve") or {}
        base_goodput = (base_card.get("goodput") or {}).get("jobs_per_s")
        goodput = (card.get("goodput") or {}).get("jobs_per_s")
        jobs_row = card.get("jobs", {})
        return {
            "baseline_goodput": base_goodput,
            "goodput": goodput,
            "goodput_ratio": (
                goodput / base_goodput if base_goodput and goodput is not None
                else None
            ),
            "completed": jobs_row.get("completed"),
            "shed": jobs_row.get("shed"),
            "timeout": jobs_row.get("timeout"),
            "failed": jobs_row.get("failed"),
            "breaker_opens": sum(
                b["opens"] for b in card.get("breakers", {}).values()
            ),
            "fallback_counts": (card.get("balancer") or {}).get("fallback_counts"),
        }

    def summarise(self, rows: list[dict], survived: list[dict]) -> dict:
        """One policy's serve aggregates over its surviving episodes."""
        ratios = [r["goodput_ratio"] for r in survived]
        ratios = [ratio for ratio in ratios if ratio is not None]
        return {
            "mean_goodput_ratio": sum(ratios) / len(ratios) if ratios else None,
            "shed": sum(r["shed"] or 0 for r in survived),
            "timeout": sum(r["timeout"] or 0 for r in survived),
            "failed": sum(r["failed"] or 0 for r in survived),
            "breaker_opens": sum(r["breaker_opens"] for r in survived),
        }


def run_campaign(
    config: ChaosConfig | ServeChaosConfig,
    *,
    jobs: int | None = None,
    device_ids: Sequence[str] | None = None,
) -> dict:
    """Execute one chaos campaign (batch or serve) and return its scorecard.

    ``device_ids`` overrides the fault-target pool (default: the
    devices of the paper cluster at ``config.machines``).
    """
    from repro.cluster import paper_cluster

    slots = range(config.runs)

    # ---- phase 1: fault-free baselines -------------------------------
    # A barrier is required: a batch fault schedule is scaled by its
    # run's baseline makespan, so generation cannot start earlier.
    baseline_stats = SweepStats()
    run_sweep([config.point(i, ()) for i in slots], jobs=jobs, stats=baseline_stats)
    baselines = baseline_stats.payloads

    # ---- generate the fault schedules --------------------------------
    if device_ids is None:
        device_ids = tuple(
            d.device_id for d in paper_cluster(config.machines).devices()
        )
    streams = RandomStreams(config.seed)
    schedules = [
        generate_schedule(
            streams.stream(f"{config.stream}/run{i}"),
            device_ids,
            config.horizon(baselines[i]),
            max_faults=config.max_faults,
        )
        for i in slots
    ]

    # ---- phase 2: the chaos runs -------------------------------------
    chaos_stats = SweepStats()
    chaos_points = [config.point(i, schedules[i]) for i in slots]
    run_sweep(chaos_points, jobs=jobs, stats=chaos_stats)

    # ---- score -------------------------------------------------------
    run_records: list[dict] = []
    for i, baseline, payload in zip(slots, baselines, chaos_stats.payloads):
        error = payload.get("error")
        survived = error is None and payload.get("makespan") is not None
        run_records.append(
            {
                "run": i,
                "policy": config.policy(i),
                "seed": config.run_seed(i),
                "faults": [fault_to_dict(f) for f in schedules[i]],
                "survived": survived,
                "error": error,
                "violations": config.check(baseline, payload) if survived else [],
                **config.score(i, baseline, payload),
            }
        )

    policies: dict[str, dict] = {}
    for policy in config.policies:
        rows = [r for r in run_records if r["policy"] == policy]
        if not rows:
            continue
        survived_rows = [r for r in rows if r["survived"]]
        policies[policy] = {
            "runs": len(rows),
            "survived": len(survived_rows),
            "survival_rate": len(survived_rows) / len(rows),
            "violations": sum(len(r["violations"]) for r in rows),
            **config.summarise(rows, survived_rows),
        }

    total_violations = sum(len(r["violations"]) for r in run_records)
    survivors = sum(1 for r in run_records if r["survived"])
    scorecard = {
        "config": config.to_dict(),
        "runs": run_records,
        "policies": policies,
        "total_runs": len(run_records),
        "survived_runs": survivors,
        "total_violations": total_violations,
        "all_invariants_ok": total_violations == 0,
    }
    # cache-hit counts vary between cold and warm reruns, so they are
    # telemetry, not scorecard content — the scorecard must be
    # bit-identical for a given config
    _log.info(
        "%s cache hits: baseline=%d chaos=%d",
        config.stream,
        baseline_stats.cache_hits,
        chaos_stats.cache_hits,
    )
    registry = get_registry()
    registry.inc("chaos.campaigns")
    registry.inc("chaos.runs", len(run_records))
    registry.inc("chaos.violations", total_violations)
    registry.inc("chaos.survived", survivors)
    _events.instant(
        "chaos.complete",
        runs=len(run_records),
        survived=survivors,
        violations=total_violations,
    )
    _log.info(
        "%s campaign complete: %d/%d runs survived, %d violation(s)",
        config.stream,
        survivors,
        len(run_records),
        total_violations,
    )
    return scorecard
