"""Chrome trace-event / Perfetto export of execution traces.

Converts an :class:`~repro.sim.trace.ExecutionTrace` into the Chrome
trace-event JSON format (the ``{"traceEvents": [...]}`` document
``chrome://tracing`` and https://ui.perfetto.dev load directly), so a
simulated run can be inspected on a real timeline UI instead of ASCII
Gantt art:

* one named thread track per processing unit, carrying two slices per
  task — the transfer (``cat="transfer"``) and the computation
  (``cat="exec"``/``"probe"``, coloured by phase);
* a ``scheduler`` track with one slice per charged solver/fit overhead
  (the paper's "master thinking time") and instant markers for phase
  transitions;
* global instant markers for rebalances and device failures;
* optionally, the critical path from a :mod:`repro.obs.critpath`
  analysis: on-path execution slices are recolored and chained by flow
  arrows (``s``/``t``/``f`` events), so the device chain that bounded
  the makespan reads straight off the timeline.

Virtual seconds are exported as microseconds (the format's native
unit), so a 3.2 s simulated makespan reads as 3.2 s on the UI ruler.

The format reference is the "Trace Event Format" document (Google,
2016); ``X`` (complete), ``i`` (instant), ``M`` (metadata) and the
``s``/``t``/``f`` flow events are emitted, which every viewer supports.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.artifact import write_atomic
from repro.sim.trace import ExecutionTrace

__all__ = [
    "profile_to_events",
    "trace_to_events",
    "trace_to_chrome",
    "write_chrome_trace",
    "validate_chrome_trace",
]

#: chrome://tracing reserved colour names per phase label; unknown
#: phases fall back to the viewer's hash-based palette.
PHASE_CNAMES = {
    "probe": "thread_state_iowait",
    "exec": "thread_state_running",
}
_TRANSFER_CNAME = "rail_load"
#: chrome://tracing reserved colour for slices on the critical path.
_CRITPATH_CNAME = "terrible"
_SCHEDULER_TID = 0
_US = 1e6  # seconds -> microseconds


def _meta(pid: int, name: str, value: str, tid: int | None = None) -> dict:
    event = {"ph": "M", "pid": pid, "name": name, "args": {"name": value}}
    if tid is not None:
        event["tid"] = tid
    return event


def trace_to_events(
    trace: ExecutionTrace,
    *,
    pid: int = 1,
    process_name: str = "simulation",
    run_id: str | None = None,
    decisions: list[dict] | None = None,
    alerts: list[dict] | None = None,
    critpath: dict | None = None,
) -> list[dict]:
    """Flatten one trace into trace-event dicts under one process id.

    ``pid``/``process_name`` allow several runs (e.g. one per policy in
    a comparison) to coexist in a single document as separate process
    groups.  ``decisions`` (decision dicts from a
    :meth:`~repro.obs.ledger.DecisionLedger.to_dict`) adds one instant
    marker per scheduler decision on the scheduler track, linking the
    timeline back to ``explain.jsonl`` ids.  ``alerts`` (SLO alert
    dicts from :func:`repro.obs.slo.slo_alerts`) adds one global
    instant per violated objective at its first violating sample, so a
    breached SLO is visible right on the timeline.  ``critpath`` (an
    analysis from :func:`repro.obs.critpath.analyze_trace` of this
    trace) recolors on-path execution slices, tags them with
    ``args.critpath``, and chains them with one flow-arrow sequence.
    """
    # (worker, start, end) identity of the critical path's task nodes;
    # floats come from the same records, so exact equality matches
    on_path: set[tuple[str, float, float]] = set()
    for node in (critpath or {}).get("path", []):
        if node.get("kind") == "task":
            on_path.add((node["worker"], node["start"], node["end"]))
    events: list[dict] = [_meta(pid, "process_name", process_name)]
    if run_id:
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "name": "process_labels",
                "args": {"labels": run_id},
            }
        )

    # --- per-worker tracks (tid 0 is reserved for the scheduler) -------
    tids = {worker: i + 1 for i, worker in enumerate(trace.worker_ids)}
    events.append(_meta(pid, "thread_name", "scheduler", _SCHEDULER_TID))
    for worker, tid in tids.items():
        events.append(_meta(pid, "thread_name", worker, tid))

    flow_anchors: list[tuple[float, int, str]] = []  # (ts, tid, worker)
    for r in trace.records:
        tid = tids[r.worker_id]
        flagged = (r.worker_id, r.start_time, r.end_time) in on_path
        args = {"units": r.units, "step": r.step, "phase": r.phase}
        if flagged:
            args = dict(args, critpath=True)
        if r.transfer_time > 0.0:
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "name": f"transfer {r.units}u",
                    "cat": "transfer",
                    "cname": _TRANSFER_CNAME,
                    "ts": r.start_time * _US,
                    "dur": r.transfer_time * _US,
                    "args": args,
                }
            )
        exec_event = {
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "name": f"{r.phase} {r.units}u",
            "cat": r.phase,
            "ts": (r.start_time + r.transfer_time) * _US,
            "dur": r.exec_time * _US,
            "args": args,
        }
        cname = _CRITPATH_CNAME if flagged else PHASE_CNAMES.get(r.phase)
        if cname:
            exec_event["cname"] = cname
        events.append(exec_event)
        if flagged:
            flow_anchors.append((exec_event["ts"], tid, r.worker_id))

    # one flow-arrow chain threading the on-path slices in time order
    # (anchored at each slice's start so viewers bind them correctly)
    flow_anchors.sort()
    if len(flow_anchors) >= 2:
        for i, (ts, tid, worker) in enumerate(flow_anchors):
            ph = "s" if i == 0 else ("f" if i == len(flow_anchors) - 1 else "t")
            event = {
                "ph": ph,
                "pid": pid,
                "tid": tid,
                "name": "critical-path",
                "cat": "critpath",
                "id": pid,
                "ts": ts,
                "args": {"worker": worker, "hop": i},
            }
            if ph == "f":
                event["bp"] = "e"
            events.append(event)

    # --- scheduler track: solver overhead spans + phase marks ----------
    for start, seconds in zip(trace.solver_overhead_times, trace.solver_overheads):
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": _SCHEDULER_TID,
                "name": "solver",
                "cat": "scheduler",
                "cname": "thread_state_runnable",
                "ts": start * _US,
                "dur": seconds * _US,
                "args": {"overhead_s": seconds},
            }
        )
    for t, phase in trace.phase_marks:
        events.append(
            {
                "ph": "i",
                "pid": pid,
                "tid": _SCHEDULER_TID,
                "name": f"phase:{phase}",
                "cat": "phase",
                "s": "p",
                "ts": t * _US,
            }
        )
    for d in decisions or []:
        solver = d.get("solver") or {}
        ts = float(d.get("t") or 0.0)
        events.append(
            {
                "ph": "i",
                "pid": pid,
                "tid": _SCHEDULER_TID,
                "name": f"decision:{d.get('id', '?')}",
                "cat": "decision",
                "s": "p",
                "ts": max(ts, 0.0) * _US,
                "args": {
                    "id": d.get("id"),
                    "trigger": d.get("trigger"),
                    "method": solver.get("method"),
                    "fallback_stage": solver.get("fallback_stage"),
                    "predicted_time_s": d.get("predicted_time"),
                },
            }
        )

    for alert in alerts or []:
        events.append(
            {
                "ph": "i",
                "pid": pid,
                "tid": _SCHEDULER_TID,
                "name": str(alert.get("name", "alert")),
                "cat": "alert",
                "s": "g",
                "ts": max(float(alert.get("t", 0.0)), 0.0) * _US,
                "args": {
                    "objective": alert.get("objective"),
                    "severity": alert.get("severity"),
                    "expr": alert.get("expr"),
                    "measured": alert.get("measured"),
                    "threshold": alert.get("threshold"),
                },
            }
        )

    # --- global markers ------------------------------------------------
    for t in trace.rebalance_times:
        events.append(
            {
                "ph": "i",
                "pid": pid,
                "tid": _SCHEDULER_TID,
                "name": "rebalance",
                "cat": "rebalance",
                "s": "g",
                "ts": t * _US,
            }
        )
    for t, device in trace.failures:
        events.append(
            {
                "ph": "i",
                "pid": pid,
                "tid": tids.get(device, _SCHEDULER_TID),
                "name": f"failure:{device}",
                "cat": "failure",
                "s": "g",
                "ts": t * _US,
            }
        )
    for t, device in trace.recoveries:
        events.append(
            {
                "ph": "i",
                "pid": pid,
                "tid": tids.get(device, _SCHEDULER_TID),
                "name": f"recovery:{device}",
                "cat": "recovery",
                "s": "g",
                "ts": t * _US,
            }
        )
    return events


def profile_to_events(
    snapshot: dict,
    *,
    pid: int,
    process_name: str = "cpu-profile",
    top_per_phase: int = 15,
) -> list[dict]:
    """Render a profiler snapshot as trace-event slices under one pid.

    The snapshot (see :meth:`repro.obs.profiler.PhaseProfiler.snapshot`)
    has no timeline — cProfile keeps aggregates — so the slices are a
    *synthetic* sequential layout: one span per phase (in canonical
    phase order, width = the phase's host wall clock), and inside each
    phase its hottest functions laid end to end by self time.  Widths
    are proportional to real measured time; only the ordering is
    synthetic.  Keeping the profile in its own process group means the
    virtual-time simulation tracks in the same document are untouched —
    host microseconds and virtual microseconds never share a track.
    """
    events: list[dict] = [_meta(pid, "process_name", process_name)]
    events.append(_meta(pid, "thread_name", "host-cpu", _SCHEDULER_TID))
    cursor = 0.0
    phases = snapshot.get("phases", {})
    wall = snapshot.get("wall_s", {})
    order = [p for p in ("probe", "fit", "solve", "execute", "overhead") if p in phases]
    order += sorted(p for p in phases if p not in order)
    for phase in order:
        pdata = phases[phase]
        phase_dur = max(float(wall.get(phase, pdata.get("self_s", 0.0))), 0.0)
        if phase_dur <= 0.0:
            continue
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": _SCHEDULER_TID,
                "name": f"profile:{phase}",
                "cat": "cpu-profile",
                "ts": cursor * _US,
                "dur": phase_dur * _US,
                "args": {
                    "phase": phase,
                    "self_s": float(pdata.get("self_s", 0.0)),
                    "wall_s": float(wall.get(phase, 0.0)),
                },
            }
        )
        hot = sorted(
            pdata.get("functions", {}).values(),
            key=lambda f: (-float(f.get("self_s", 0.0)), f.get("name", "")),
        )[:top_per_phase]
        inner = cursor
        for f in hot:
            dur = min(float(f.get("self_s", 0.0)), cursor + phase_dur - inner)
            if dur <= 0.0:
                continue
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": _SCHEDULER_TID + 1,
                    "name": str(f.get("name", "?")),
                    "cat": "cpu-profile-function",
                    "ts": inner * _US,
                    "dur": dur * _US,
                    "args": {
                        "phase": phase,
                        "ncalls": int(f.get("ncalls", 0)),
                        "self_s": float(f.get("self_s", 0.0)),
                        "cum_s": float(f.get("cum_s", 0.0)),
                    },
                }
            )
            inner += dur
        cursor += phase_dur
    if len(events) > 2:
        events.insert(2, _meta(pid, "thread_name", "hot-functions", _SCHEDULER_TID + 1))
    return events


def trace_to_chrome(
    traces: ExecutionTrace | list[tuple[str, ExecutionTrace]],
    *,
    run_id: str | None = None,
    metadata: dict | None = None,
    profile: dict | None = None,
    decisions: list[dict] | None = None,
    alerts: list[dict] | None = None,
    critpath: dict | None = None,
) -> dict:
    """Build a complete Chrome trace-event document.

    Parameters
    ----------
    traces:
        A single trace, or ``[(label, trace), ...]`` — each labelled
        trace becomes its own process group (used by ``compare
        --trace-out`` to put every policy on one timeline).
    run_id / metadata:
        Attached under ``otherData`` for provenance.
    profile:
        Optional profiler snapshot; its slices are appended as a
        dedicated process group *after* every simulation process (pid
        ``len(traces) + 1``), so host-time profile slices never mix
        with virtual-time simulation tracks.
    decisions:
        Optional decision dicts (from a decision ledger's ``to_dict``)
        rendered as instant markers on the *first* trace's scheduler
        track — the ``repro run`` path exports one trace, which is the
        one the ledger belongs to.
    alerts:
        Optional SLO alert dicts (:func:`repro.obs.slo.slo_alerts`),
        stamped as global instants on the first trace like decisions.
    critpath:
        Optional :func:`repro.obs.critpath.analyze_trace` analysis of
        the first trace; its on-path slices are recolored and chained
        with flow arrows (first trace only, like decisions).
    """
    if isinstance(traces, ExecutionTrace):
        traces = [("simulation", traces)]
    if not traces:
        raise ConfigurationError("trace export needs at least one trace")
    events: list[dict] = []
    for index, (label, trace) in enumerate(traces):
        events.extend(
            trace_to_events(
                trace,
                pid=index + 1,
                process_name=label,
                run_id=run_id,
                decisions=decisions if index == 0 else None,
                alerts=alerts if index == 0 else None,
                critpath=critpath if index == 0 else None,
            )
        )
    if profile is not None:
        events.extend(profile_to_events(profile, pid=len(traces) + 1))
    other = {"source": "repro", "schema": "chrome-trace-event"}
    if run_id:
        other["run_id"] = run_id
    if metadata:
        other.update(metadata)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    doc_or_trace: dict | ExecutionTrace,
    path: str | os.PathLike[str],
    **kwargs,
) -> Path:
    """Write a trace document (building it first if given a raw trace).

    Atomic (temp file + rename): a crashed export never leaves a torn
    ``trace.json`` behind.  Returns the written path.
    """
    if isinstance(doc_or_trace, ExecutionTrace):
        doc = trace_to_chrome(doc_or_trace, **kwargs)
    else:
        if kwargs:
            raise ConfigurationError(
                "keyword options only apply when passing a raw ExecutionTrace"
            )
        doc = doc_or_trace
    errors = validate_chrome_trace(doc)
    if errors:
        raise ConfigurationError(
            "refusing to write invalid trace document: " + "; ".join(errors[:5])
        )
    return write_atomic(path, json.dumps(doc, sort_keys=True))


def validate_chrome_trace(doc: dict) -> list[str]:
    """Check a document against the trace-event format's requirements.

    Returns a list of problems (empty = valid).  Used by the exporter
    itself, the test suite, and the CI artefact check; intentionally a
    validator rather than an assertion so callers choose the failure
    mode.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document must be a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not events:
        errors.append("traceEvents is empty")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "i", "I", "M", "C", "b", "e", "n", "s", "t", "f"):
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if "name" not in ev:
            errors.append(f"{where}: missing name")
        if "pid" not in ev:
            errors.append(f"{where}: missing pid")
        if ph == "M":
            continue  # metadata events need no timestamp
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: complete event with bad dur {dur!r}")
        if len(errors) >= 50:
            errors.append("... (further problems suppressed)")
            break
    return errors
