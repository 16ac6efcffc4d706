"""The ``serve_scorecard.json`` document: schema, build, validate.

The scorecard is the service episode's single source of truth: job
accounting, latency percentiles, goodput, tenant fairness and every
robustness counter.  It contains only virtual-time quantities, so two
runs with equal configs (and equal seeds) serialize byte-identically —
the property the sweep cache and the serve chaos campaign rely on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.obs.artifact import write_atomic
from repro.obs.timeseries import jain_fairness

__all__ = [
    "SERVE_SCHEMA",
    "build_scorecard",
    "percentile",
    "validate_scorecard",
    "write_scorecard",
]

SERVE_SCHEMA = 1


def percentile(values: list[float], pct: float) -> float:
    """Deterministic nearest-rank percentile (values need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty list")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def build_scorecard(service) -> dict:
    """Assemble the scorecard from a finished :class:`ClusterService`."""
    counts = service.counts
    duration = service.end_time
    latencies = service.latencies
    latency: dict[str, float | None]
    if latencies:
        latency = {
            "p50": percentile(latencies, 50),
            "p95": percentile(latencies, 95),
            "p99": percentile(latencies, 99),
            "mean": sum(latencies) / len(latencies),
            "max": max(latencies),
        }
    else:
        latency = {"p50": None, "p95": None, "p99": None, "mean": None, "max": None}
    tenants = service.config.arrivals.tenants
    tenant_units = {
        str(t): int(service.balancer.tenant_served.get(t, 0))
        for t in range(tenants)
    }
    served = [float(v) for v in tenant_units.values()]
    goodput_jobs = counts["completed"] / duration if duration > 0 else 0.0
    goodput_units = service.served_units / duration if duration > 0 else 0.0
    terminal = (
        counts["completed"]
        + counts["rejected"]
        + counts["shed"]
        + counts["timeout"]
        + counts["failed"]
    )
    invariants = list(service.invariant_errors)
    invariants += list(service.admission.violations)
    if terminal != counts["submitted"]:
        invariants.append(
            f"job conservation broken: {counts['submitted']} submitted, "
            f"{terminal} in terminal states"
        )
    return {
        "schema": SERVE_SCHEMA,
        "config": service.config.to_dict(),
        "duration_s": float(duration),
        "jobs": {k: int(v) for k, v in counts.items()},
        "latency_s": latency,
        "goodput": {
            "jobs_per_s": float(goodput_jobs),
            "units_per_s": float(goodput_units),
        },
        "fairness": {
            "jain_tenants": (
                jain_fairness(served) if any(v > 0 for v in served) else None
            ),
            "tenant_units": tenant_units,
        },
        "retries": {
            "budget_per_tenant": int(service.config.retry_budget),
            "consumed": {
                str(t): int(service.retry_consumed.get(t, 0))
                for t in sorted(service.retry_consumed)
            },
            "budget_exhausted_jobs": int(service.budget_exhausted),
        },
        "breakers": {
            d: service.breakers[d].to_dict() for d in service.order
        },
        "balancer": service.balancer.to_dict(),
        "admission": {
            "limit": int(service.admission.limit),
            "policy": service.admission.policy,
            "max_depth": int(service.admission.max_depth),
        },
        "samples": int(service.samples_taken),
        "invariant_errors": invariants,
    }


def validate_scorecard(card: Mapping[str, Any]) -> list[str]:
    """Structural checks; returns problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(card, Mapping):
        return ["scorecard must be a JSON object"]
    if card.get("schema") != SERVE_SCHEMA:
        problems.append(
            f"schema must be {SERVE_SCHEMA}, got {card.get('schema')!r}"
        )
    for key in (
        "config",
        "duration_s",
        "jobs",
        "latency_s",
        "goodput",
        "fairness",
        "retries",
        "breakers",
        "balancer",
        "admission",
        "invariant_errors",
    ):
        if key not in card:
            problems.append(f"missing key {key!r}")
    jobs = card.get("jobs")
    if isinstance(jobs, Mapping):
        for key in ("submitted", "completed", "rejected", "shed", "timeout", "failed"):
            if not isinstance(jobs.get(key), int):
                problems.append(f"jobs.{key} must be an integer")
        if not problems:
            terminal = sum(
                jobs[k]
                for k in ("completed", "rejected", "shed", "timeout", "failed")
            )
            if terminal != jobs["submitted"]:
                problems.append(
                    f"jobs do not conserve: submitted={jobs['submitted']} "
                    f"terminal={terminal}"
                )
    else:
        problems.append("jobs must be an object")
    latency = card.get("latency_s")
    if isinstance(latency, Mapping):
        for key in ("p50", "p95", "p99", "mean", "max"):
            value = latency.get(key, "absent")
            if value is not None and not isinstance(value, (int, float)):
                problems.append(f"latency_s.{key} must be a number or null")
    else:
        problems.append("latency_s must be an object")
    goodput = card.get("goodput")
    if isinstance(goodput, Mapping):
        for key in ("jobs_per_s", "units_per_s"):
            if not isinstance(goodput.get(key), (int, float)):
                problems.append(f"goodput.{key} must be a number")
    else:
        problems.append("goodput must be an object")
    errors = card.get("invariant_errors")
    if not isinstance(errors, list):
        problems.append("invariant_errors must be a list")
    return problems


def write_scorecard(path: str | Path, card: Mapping[str, Any]) -> Path:
    """Write the scorecard canonically (sorted keys, trailing newline)."""
    return write_atomic(
        path, json.dumps(card, sort_keys=True, indent=2) + "\n"
    )
