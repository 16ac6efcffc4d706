"""Virtual-time cluster telemetry: sampler, series store, ``repro top``.

Everything the observability stack recorded so far is *post-hoc*: a
trace, a metrics snapshot, a ledger — all views of a finished run.  This
module watches the cluster **as a function of virtual time**: a
:class:`ClusterSampler` rides the discrete-event engine, waking at a
fixed virtual interval to record per-device utilization, queue depth,
outstanding/completed work, imbalance and Jain's fairness index into a
bounded ring-buffer :class:`TimeSeriesStore`.

Design constraints, in order of importance:

* **Byte-identical schedules.**  The sampler only *reads* simulation
  state; it never consumes randomness, never dispatches, and its pending
  tick is cancelled the instant the run is over, so the virtual clock
  (and therefore every trace byte) is identical with sampling on or
  off.  ``tests/obs/test_timeseries.py`` locks this in.
* **Zero cost when disabled.**  The executor's hot path pays one
  ``is not None`` check per dispatch/completion when no sampler is
  attached.
* **Deterministic.**  Samples are pure functions of the (seeded)
  simulation state, so series ride sweep payloads cache-compatibly and
  parallel sweeps merge series identical to serial ones.

The store's windowed aggregation (mean/max/p50/p95/p99) reuses the
metrics registry's bounded-reservoir :class:`~repro.obs.metrics.Histogram`
machinery, and :func:`publish_windowed_gauges` exposes the aggregates as
``ts.*`` gauges for the Prometheus exposition.  ``series.jsonl`` is the
on-disk artifact (:func:`write_series` / :func:`read_series` /
:func:`validate_series`): a header line, then one line per series with
its samples as two columns, ``t`` and ``v`` (schema 2; schema-1 files,
one line per sample, still read).  :func:`render_top` turns it into the
``repro top`` terminal view.

Telemetry is columnar end to end: the sampler resolves each series'
deque once and appends ``(t, v)`` tuples to it, the writer checks the
columns in memory before serialising them, and the reader parses each
line once and fills each ring in bulk.
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.obs.artifact import write_atomic
from repro.obs.metrics import Histogram, _series_key, get_registry

__all__ = [
    "SERIES_SCHEMA",
    "TimeSeriesStore",
    "ClusterSampler",
    "jain_fairness",
    "publish_windowed_gauges",
    "store_from_payload",
    "write_series",
    "read_series",
    "validate_series",
    "render_top",
    "sparkline",
]

#: ``series.jsonl`` schema version (header line ``schema`` field).
#: Schema 2 writes one line per series; schema-1 files (one line per
#: sample) are still read and validated.
SERIES_SCHEMA = 2

#: Ring size a schema-1 file (whose header does not carry it) reads into.
_DEFAULT_MAX_POINTS = 4096

#: Cluster-level series names a sampler records each tick.
CLUSTER_SERIES = (
    "queue_depth",
    "backlog_units",
    "outstanding_units",
    "completed_units",
    "goodput_units_per_s",
    "imbalance",
    "fairness",
)

#: Per-device series names (labelled ``{device=...}``).
DEVICE_SERIES = ("device_util", "device_idle_frac", "device_busy_s")


def _parse_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Split a ``name{k=v,...}`` key (see ``_series_key``) into ``(name, labels)``."""
    name, _, body = key.partition("{")
    labels = {}
    if body:
        for pair in body.rstrip("}").split(","):
            k, _, v = pair.partition("=")
            labels[k] = v
    return name, labels


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` over ``values``.

    1.0 means perfectly even progress; ``1/n`` means one device did all
    the work.  An empty or all-zero input (nothing has progressed yet)
    is *defined* as perfectly fair, 1.0.
    """
    if not values:
        return 1.0
    total = float(sum(values))
    squares = float(sum(v * v for v in values))
    if squares <= 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


class TimeSeriesStore:
    """Bounded ring buffers of ``(t, value)`` samples, one per series.

    Series are keyed exactly like metrics-registry series
    (``name{label=value,...}`` with sorted label keys), so the store,
    the Prometheus exposition and the dashboard all agree on naming.
    Each series keeps at most ``max_points`` samples (oldest dropped
    first), bounding memory for arbitrarily long campaigns.
    """

    def __init__(self, *, max_points: int = 4096) -> None:
        if max_points < 1:
            raise ConfigurationError("max_points must be >= 1")
        self.max_points = int(max_points)
        self._series: dict[str, deque[tuple[float, float]]] = {}

    def buffer(self, name: str, **labels: str) -> deque[tuple[float, float]]:
        """The bounded ``(t, value)`` deque of one series, created on first use.

        Appending ``(float, float)`` tuples to it is what :meth:`record`
        does; a writer that records the same series on every tick
        resolves the deque once and skips the per-sample key building.
        """
        if not name:
            raise ConfigurationError("series name must be non-empty")
        key = _series_key(name, labels)
        buf = self._series.get(key)
        if buf is None:
            buf = self._series[key] = deque(maxlen=self.max_points)
        return buf

    def record(self, name: str, t: float, value: float, **labels: str) -> None:
        """Append one sample to the named series."""
        self.buffer(name, **labels).append((float(t), float(value)))

    def keys(self) -> list[str]:
        """Series keys in first-recorded order."""
        return list(self._series)

    def points(self, key: str) -> list[tuple[float, float]]:
        """The ``(t, value)`` samples of one series key (empty if absent)."""
        return list(self._series.get(key, ()))

    def matching(self, name: str) -> dict[str, list[tuple[float, float]]]:
        """All series whose base name is ``name``, keyed by full key."""
        out = {}
        for key, buf in self._series.items():
            base = key.split("{", 1)[0]
            if base == name:
                out[key] = list(buf)
        return out

    def values(self, name: str) -> list[float]:
        """All sample values across every label set of ``name``, in time order."""
        merged: list[tuple[float, float]] = []
        for pts in self.matching(name).values():
            merged.extend(pts)
        merged.sort(key=lambda p: p[0])
        return [v for _, v in merged]

    def __len__(self) -> int:
        return sum(len(buf) for buf in self._series.values())

    def __bool__(self) -> bool:
        return any(self._series.values())

    def aggregate(
        self, key: str, *, t_min: float | None = None, t_max: float | None = None
    ) -> dict[str, float]:
        """Windowed aggregate of one series key.

        Returns ``{count, mean, min, max, last, p50, p95, p99}`` over the
        samples with ``t_min <= t <= t_max`` (whole series by default).
        Percentiles come from the metrics registry's bounded-reservoir
        histogram, so the two aggregation paths can never disagree.
        An empty window returns ``{"count": 0}``.
        """
        hist = Histogram(threading.RLock(), max_samples=self.max_points)
        last = None
        for t, v in self._series.get(key, ()):
            if t_min is not None and t < t_min:
                continue
            if t_max is not None and t > t_max:
                continue
            hist.observe(v)
            last = v
        if hist.count == 0:
            return {"count": 0}
        return {
            "count": hist.count,
            "mean": hist.total / hist.count,
            "min": hist.min,
            "max": hist.max,
            "last": last,
            "p50": hist.percentile(50.0),
            "p95": hist.percentile(95.0),
            "p99": hist.percentile(99.0),
        }

    def to_payload(self) -> dict[str, Any]:
        """A JSON-compatible dump (rides sweep payloads across processes)."""
        return {
            "max_points": self.max_points,
            "series": {k: [[t, v] for t, v in buf] for k, buf in self._series.items()},
        }


def store_from_payload(payload: Mapping[str, Any]) -> TimeSeriesStore:
    """Rebuild a :class:`TimeSeriesStore` from :meth:`~TimeSeriesStore.to_payload`."""
    store = TimeSeriesStore(
        max_points=int(payload.get("max_points", _DEFAULT_MAX_POINTS))
    )
    for key, pts in payload.get("series", {}).items():
        name, labels = _parse_series_key(key)
        store.buffer(name, **labels).extend((float(t), float(v)) for t, v in pts)
    return store


class ClusterSampler:
    """Deterministic periodic sampler of a simulated cluster.

    Single-use: attach one instance to one
    :meth:`~repro.runtime.runtime.Runtime.run` call.  The executor calls
    :meth:`start` once the engine exists, notifies the sampler on every
    dispatch/completion/loss, and the sampler self-schedules its ticks
    on the engine — reading state only, so the simulated schedule is
    byte-identical with or without it.

    Parameters
    ----------
    interval:
        Virtual seconds between samples.  ``None`` or ``0.0`` means
        *auto*: the executor substitutes a deterministic estimate
        (~1/128th of the predicted makespan) at run start.
    store:
        Destination :class:`TimeSeriesStore` (a fresh bounded store by
        default).
    max_points:
        Ring size of the default store.
    """

    def __init__(
        self,
        interval: float | None = None,
        *,
        store: TimeSeriesStore | None = None,
        max_points: int = 4096,
    ) -> None:
        if interval is not None and interval < 0.0:
            raise ConfigurationError(
                f"sample interval must be >= 0, got {interval}"
            )
        if interval == 0.0:
            interval = None  # 0.0 is the CLI spelling of "auto"
        self.interval = interval
        self.store = store if store is not None else TimeSeriesStore(max_points=max_points)
        self.samples_taken = 0
        self._engine = None
        self._work_remaining: Callable[[], int] | None = None
        self._devices: tuple[str, ...] = ()
        self._total_units = 0
        self._task = None
        self._started = False
        # per-device busy accounting: closed intervals + the in-flight one
        self._closed_busy: dict[str, float] = {}
        self._inflight: dict[str, tuple[float, float, int]] = {}
        self._completed_units = 0
        self._last_t = 0.0
        self._last_busy: dict[str, float] = {}
        self._last_completed = 0
        # the store's deques, resolved on the first sample (see _resolve)
        self._device_bufs: list[tuple[str, deque, deque, deque]] = []
        self._cluster_bufs: tuple[deque, ...] = ()

    # ------------------------------------------------------------------
    # executor-facing lifecycle
    # ------------------------------------------------------------------
    def start(
        self,
        engine,
        *,
        devices: Sequence[str],
        total_units: int,
        work_remaining: Callable[[], int],
    ) -> None:
        """Bind to a run and schedule the first tick.

        ``interval`` must be resolved (> 0) by the time this is called;
        the executor substitutes its auto estimate beforehand.
        """
        if self._started:
            raise ConfigurationError(
                "ClusterSampler is single-use: attach a fresh instance per run"
            )
        if not self.interval or self.interval <= 0.0:
            raise ConfigurationError(
                "sampler interval unresolved; pass interval > 0 or let the "
                "executor auto-derive it"
            )
        self._started = True
        self._engine = engine
        self._devices = tuple(devices)
        self._total_units = int(total_units)
        self._work_remaining = work_remaining
        self._closed_busy = {d: 0.0 for d in self._devices}
        self._last_busy = {d: 0.0 for d in self._devices}
        # keep ticking while the run can still progress: a deadlocked or
        # finished run must drain (bool(queue) is False once the tick
        # itself popped), or the sampler would keep the engine alive
        self._task = engine.schedule_periodic(
            self.interval,
            self._tick,
            tag="sample",
            continue_while=lambda: bool(engine.queue)
            and (self._work_remaining() > 0 or bool(self._inflight)),
        )

    def on_dispatch(self, worker_id: str, t0: float, t1: float, units: int) -> None:
        """A block now occupies ``worker_id`` over ``[t0, t1]``."""
        self._inflight[worker_id] = (float(t0), float(t1), int(units))

    def on_complete(self, worker_id: str, units: int) -> None:
        """The in-flight block on ``worker_id`` finished."""
        entry = self._inflight.pop(worker_id, None)
        if entry is not None:
            t0, t1, _ = entry
            self._closed_busy[worker_id] += max(0.0, t1 - t0)
        self._completed_units += int(units)

    def on_lost(self, worker_id: str, t: float) -> None:
        """The in-flight block on ``worker_id`` was lost at time ``t``.

        The device still *occupied* ``[t0, min(t, t1)]`` (it was
        transferring/retrying/executing right up to the loss), so that
        span counts as busy even though no task record will exist.
        """
        entry = self._inflight.pop(worker_id, None)
        if entry is not None:
            t0, t1, _ = entry
            self._closed_busy[worker_id] += max(0.0, min(float(t), t1) - t0)

    def stop(self) -> None:
        """Cancel the pending tick (the run is over; never extend the clock)."""
        if self._task is not None:
            self._task.cancel()

    def finish(self, t: float) -> None:
        """Take the closing sample at the makespan (no-op if already there)."""
        if self._started and t > self._last_t:
            self._sample(float(t))

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _busy_until(self, device: str, t: float) -> float:
        """Cumulative busy seconds of ``device`` up to time ``t``."""
        busy = self._closed_busy[device]
        entry = self._inflight.get(device)
        if entry is not None:
            t0, t1, _ = entry
            busy += max(0.0, min(t, t1) - t0)
        return busy

    def _tick(self, now: float) -> None:
        self._sample(now)

    def _resolve(self) -> None:
        """Look up every series' deque once, in first-recorded order.

        Lazy (first sample, not :meth:`start`) so a run that never
        samples leaves the store empty.
        """
        buffer = self.store.buffer
        self._device_bufs = [
            (device, *(buffer(name, device=device) for name in DEVICE_SERIES))
            for device in self._devices
        ]
        self._cluster_bufs = tuple(buffer(name) for name in CLUSTER_SERIES)

    def _sample(self, t: float) -> None:
        dt = t - self._last_t
        if dt <= 0.0:
            return
        if not self._cluster_bufs:
            self._resolve()
        cumulative: list[float] = []
        for device, util_buf, idle_buf, busy_buf in self._device_bufs:
            busy = self._busy_until(device, t)
            cumulative.append(busy)
            util = min(max((busy - self._last_busy[device]) / dt, 0.0), 1.0)
            util_buf.append((t, util))
            idle_buf.append((t, 1.0 - util))
            busy_buf.append((t, busy))
            self._last_busy[device] = busy
        completed = self._completed_units
        lo, hi = min(cumulative), max(cumulative)
        values = (
            float(len(self._engine.queue)),
            float(self._work_remaining()),
            float(sum(units for _, _, units in self._inflight.values())),
            float(completed),
            (completed - self._last_completed) / dt,
            # max/min cumulative progress; 0.0 flags "some device has not
            # started yet" rather than emitting an unbounded ratio
            hi / lo if lo > 0.0 else 0.0,
            jain_fairness(cumulative),
        )
        for buf, value in zip(self._cluster_bufs, values):
            buf.append((t, value))
        self._last_t = t
        self._last_completed = completed
        self.samples_taken += 1


# ----------------------------------------------------------------------
# Prometheus bridge
# ----------------------------------------------------------------------
def publish_windowed_gauges(
    store: TimeSeriesStore, registry=None, *, prefix: str = "ts"
) -> int:
    """Publish each series' windowed aggregates as ``<prefix>.*`` gauges.

    For every series the store holds, sets
    ``<prefix>.<name>.{mean,max,p50,p95,p99}`` gauges (with the series'
    own labels) on ``registry`` (the process default when omitted), so
    ``--metrics-format prom`` exports the telemetry without a second
    aggregation path.  Returns the number of gauges written.
    """
    if registry is None:
        registry = get_registry()
    written = 0
    for key in store.keys():
        agg = store.aggregate(key)
        if agg.get("count", 0) == 0:
            continue
        name, labels = _parse_series_key(key)
        for stat in ("mean", "max", "p50", "p95", "p99"):
            registry.set_gauge(f"{prefix}.{name}.{stat}", agg[stat], **labels)
            written += 1
    return written


# ----------------------------------------------------------------------
# series.jsonl (write / read / validate)
# ----------------------------------------------------------------------
def write_series(
    path: str | Path,
    store: TimeSeriesStore,
    *,
    run_id: str = "",
    interval: float | None = None,
    meta: Mapping[str, Any] | None = None,
) -> Path:
    """Write the store as a ``series.jsonl`` artifact (atomic).

    Line 1 is a header (``kind: header``) carrying the schema version,
    run id, sample interval, ring size and series inventory; every
    following line is one whole series (``kind: series``) whose samples
    are two columns, ``t`` and ``v``, in :meth:`TimeSeriesStore.keys`
    order.  The columns are checked in memory before anything is
    written: every value finite, time never decreasing within a series,
    and the header's inventory and sample count equal to the rows.
    """
    path = Path(path)
    keys = store.keys()
    rows = []
    count = 0
    for key in keys:
        pts = store.points(key)
        t, v = (list(col) for col in zip(*pts)) if pts else ([], [])
        name, labels = _parse_series_key(key)
        try:
            rows.append(
                json.dumps(
                    {"kind": "series", "series": name, "labels": labels,
                     "t": t, "v": v},
                    sort_keys=True,
                    allow_nan=False,
                )
            )
        except ValueError:
            raise ConfigurationError(
                f"refusing to write invalid series: {key!r} holds a "
                "non-finite sample"
            ) from None
        if sorted(t) != t:
            raise ConfigurationError(
                f"refusing to write invalid series: time goes backwards in {key!r}"
            )
        count += len(t)
    header = {
        "kind": "header",
        "schema": SERIES_SCHEMA,
        "run_id": run_id,
        "interval": interval,
        "series": keys,
        "samples": count,
        "max_points": store.max_points,
        "meta": dict(meta) if meta else {},
    }
    if header["series"] != store.keys() or header["samples"] != len(store):
        raise ConfigurationError(
            "refusing to write invalid series: the store changed while it "
            "was being written"
        )
    text = "\n".join([json.dumps(header, sort_keys=True), *rows]) + "\n"
    return write_atomic(path, text)


def read_series(path: str | Path) -> tuple[dict[str, Any], TimeSeriesStore]:
    """Read a ``series.jsonl`` artifact back into ``(header, store)``.

    Reads schema 2 and schema 1 files.  Each line is parsed once and
    validated as it is read; raises :class:`ConfigurationError` on a
    malformed file.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    problems, header, store = _parse_series(lines)
    if problems:
        raise ConfigurationError(
            f"invalid series file {path}: {'; '.join(problems[:5])}"
        )
    return header, store


def validate_series(lines: Iterable[str]) -> list[str]:
    """Schema-check ``series.jsonl`` content; returns a list of problems.

    Accepts schema 2 (one ``kind: series`` line per series) and schema 1
    (one ``kind: sample`` line per sample); each row kind is accepted
    only under its own schema's header.
    """
    return _parse_series(lines)[0]


def _parse_series(
    lines: Iterable[str],
) -> tuple[list[str], dict[str, Any], TimeSeriesStore]:
    """Parse and validate ``series.jsonl`` lines into ``(problems, header, store)``."""
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        return ["empty file (missing header line)"], {}, TimeSeriesStore()
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"header is not JSON: {exc}"], {}, TimeSeriesStore()
    if not isinstance(header, dict) or header.get("kind") != "header":
        return ["first line must be a kind=header object"], {}, TimeSeriesStore()
    schema = header.get("schema")
    if type(schema) is not int or schema not in (1, SERIES_SCHEMA):
        return [
            f"unsupported schema {schema!r} (expected 1 or {SERIES_SCHEMA})"
        ], header, TimeSeriesStore()
    problems: list[str] = []
    declared = header.get("series")
    if not isinstance(declared, list):
        problems.append("header.series must be a list of series keys")
        declared = []
    max_points = _DEFAULT_MAX_POINTS
    if schema == SERIES_SCHEMA:
        max_points = header.get("max_points")
        if type(max_points) is not int or max_points < 1:
            problems.append("header.max_points must be a positive integer")
            max_points = _DEFAULT_MAX_POINTS
    store = TimeSeriesStore(max_points=max_points)
    read_rows = _read_sample_rows if schema == 1 else _read_series_rows
    count = read_rows(lines, set(declared), store, problems)
    samples = header.get("samples")
    if isinstance(samples, int) and samples != count and not problems:
        problems.append(f"header declares {samples} samples, found {count}")
    return problems, header, store


def _finite_numbers(values: list) -> bool:
    """Every element an int or float (a bool is neither) and finite.

    Rows are parsed with ``parse_constant=str``, so ``NaN`` and
    ``Infinity`` arrive as strings; an overflowing literal such as
    ``1e999`` arrives as an infinite float, which ``min``/``max`` find.
    """
    if not values:
        return True
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return math.isfinite(min(values)) and math.isfinite(max(values))
    except OverflowError:  # an int too large for a float
        return False


def _row_key(row: Any, kind: str, i: int, declared: set, problems: list) -> str | None:
    """The declared series key of one parsed row, or ``None`` (problem noted)."""
    if not isinstance(row, dict) or row.get("kind") != kind:
        problems.append(f"line {i}: expected a kind={kind} object")
        return None
    name = row.get("series")
    labels = row.get("labels", {})
    if not isinstance(name, str) or not name:
        problems.append(f"line {i}: missing series name")
        return None
    if not isinstance(labels, dict):
        problems.append(f"line {i}: labels must be an object")
        return None
    key = _series_key(name, {str(k): str(v) for k, v in labels.items()})
    if key not in declared:
        problems.append(f"line {i}: undeclared series {key!r}")
        return None
    return key


def _read_series_rows(
    lines: list[str], declared: set, store: TimeSeriesStore, problems: list
) -> int:
    """Schema 2: one ``kind: series`` row per series, filled in bulk."""
    count = 0
    for i, line in enumerate(lines[1:], 2):
        try:
            row = json.loads(line, parse_constant=str)
        except json.JSONDecodeError as exc:
            problems.append(f"line {i}: not JSON: {exc}")
            continue
        key = _row_key(row, "series", i, declared, problems)
        if key is None:
            continue
        t, v = row.get("t"), row.get("v")
        if not isinstance(t, list) or not isinstance(v, list) or len(t) != len(v):
            problems.append(f"line {i}: t and v must be lists of equal length")
        elif not (_finite_numbers(t) and _finite_numbers(v)):
            problems.append(f"line {i}: t and v must hold finite numbers")
        elif sorted(t) != t:
            problems.append(f"line {i}: time goes backwards in {key!r}")
        elif key in store._series:
            problems.append(f"line {i}: series {key!r} appears on two rows")
        elif len(t) > store.max_points:
            problems.append(f"line {i}: {key!r} holds more than max_points samples")
        else:
            store._series[key] = deque(
                zip(map(float, t), map(float, v)), maxlen=store.max_points
            )
            count += len(t)
    return count


def _read_sample_rows(
    lines: list[str], declared: set, store: TimeSeriesStore, problems: list
) -> int:
    """Schema 1: one ``kind: sample`` row per sample."""
    count = 0
    last_t: dict[str, float] = {}
    for i, line in enumerate(lines[1:], 2):
        try:
            row = json.loads(line, parse_constant=str)
        except json.JSONDecodeError as exc:
            problems.append(f"line {i}: not JSON: {exc}")
            continue
        key = _row_key(row, "sample", i, declared, problems)
        if key is None:
            continue
        if not _finite_numbers([row.get("t"), row.get("v")]):
            problems.append(f"line {i}: t and v must be finite numbers")
            continue
        t = float(row["t"])
        if key in last_t and t < last_t[key]:
            problems.append(f"line {i}: time goes backwards in {key!r}")
        last_t[key] = t
        store.buffer(row["series"], **row.get("labels", {})).append(
            (t, float(row["v"]))
        )
        count += 1
    return count


# ----------------------------------------------------------------------
# `repro top`
# ----------------------------------------------------------------------
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(
    values: Sequence[float],
    *,
    width: int = 40,
    lo: float | None = None,
    hi: float | None = None,
) -> str:
    """A unicode block sparkline of ``values`` resampled to ``width`` cells.

    ``lo``/``hi`` pin the value range (e.g. 0..1 for utilizations);
    by default the range is the data's own min/max.
    """
    if not values:
        return ""
    if lo is None:
        lo = min(values)
    if hi is None:
        hi = max(values)
    span = hi - lo
    cells = []
    n = len(values)
    width = min(width, n) if n else width
    for i in range(width):
        # average the bucket of samples this cell covers
        a = i * n // width
        b = max((i + 1) * n // width, a + 1)
        v = sum(values[a:b]) / (b - a)
        frac = 0.0 if span <= 0 else (v - lo) / span
        frac = min(max(frac, 0.0), 1.0)
        cells.append(_SPARK_BLOCKS[round(frac * (len(_SPARK_BLOCKS) - 1))])
    return "".join(cells)


def render_top(
    header: Mapping[str, Any],
    store: TimeSeriesStore,
    *,
    width: int = 40,
    slo_report: Mapping[str, Any] | None = None,
) -> str:
    """The ``repro top`` frame: per-device strips + cluster health.

    Pure function of the series content (and optionally an SLO report),
    so CI can assert on it with ``--once``.
    """
    lines: list[str] = []
    utils = store.matching("device_util")
    serve_mode = False
    if not utils:
        # service episodes record serve_device_busy{device=} 0/1 flags
        # instead of batch device_util fractions
        serve_utils = store.matching("serve_device_busy")
        if serve_utils:
            utils = serve_utils
            serve_mode = True
    t_now = 0.0
    for pts in utils.values():
        if pts:
            t_now = max(t_now, pts[-1][0])
    run_id = header.get("run_id") or "-"
    interval = header.get("interval")
    lines.append(
        f"repro top — run {run_id}  t={t_now:.4f}s"
        + (f"  interval={interval:.4g}s" if interval else "")
    )
    lines.append("")
    if not utils:
        lines.append("(no device_util samples in this series file)")
        return "\n".join(lines)
    name_w = max(len(k.split("device=", 1)[-1].rstrip("}")) for k in utils)
    busy_col = "busy" if serve_mode else "busy_s"
    lines.append(
        f"{'device'.ljust(name_w)}  util  {'timeline'.ljust(width)}  {busy_col}"
    )
    for key in sorted(utils):
        device = key.split("device=", 1)[-1].rstrip("}")
        pts = utils[key]
        values = [v for _, v in pts]
        current = values[-1] if values else 0.0
        if serve_mode:
            share = sum(values) / len(values) if values else 0.0
            busy_cell = f"{share:.0%} of samples"
        else:
            busy_pts = store.points(
                _series_key("device_busy_s", {"device": device})
            )
            busy = busy_pts[-1][1] if busy_pts else 0.0
            busy_cell = f"{busy:.4f}"
        lines.append(
            f"{device.ljust(name_w)}  {current:>4.0%}  "
            f"{sparkline(values, width=width, lo=0.0, hi=1.0).ljust(width)}  "
            f"{busy_cell}"
        )
    lines.append("")
    if serve_mode:
        backlog = [v for _, v in store.points("serve_backlog_jobs")]
        completed = [v for _, v in store.points("serve_completed_total")]
        done = completed[-1] if completed else 0.0
        in_flight = backlog[-1] if backlog else 0.0
        total = done + in_flight
        pct = done / total if total else 0.0
        lines.append(
            f"backlog   {sparkline(backlog, width=width, lo=0.0).ljust(width)}  "
            f"{int(in_flight)} jobs in flight ({pct:.0%} done)"
        )
        goodput = [v for _, v in store.points("serve_goodput_jobs_per_s")]
        if goodput:
            lines.append(
                f"goodput   "
                f"{sparkline(goodput, width=width, lo=0.0).ljust(width)}  "
                f"{goodput[-1]:,.2f} jobs/s"
            )
        fairness = [v for _, v in store.points("serve_tenant_fairness")]
        queue = [v for _, v in store.points("serve_queue_depth")]
        shed = [v for _, v in store.points("serve_shed_total")]
        summary = []
        if fairness:
            summary.append(f"tenant-fairness {fairness[-1]:.3f}")
        if queue:
            summary.append(f"queue {int(queue[-1])}")
        if shed:
            summary.append(f"shed {int(shed[-1])}")
        if summary:
            lines.append("  ".join(summary))
        return _render_top_slo(lines, slo_report)
    backlog = [v for _, v in store.points("backlog_units")]
    completed = [v for _, v in store.points("completed_units")]
    outstanding = [v for _, v in store.points("outstanding_units")]
    # Work conservation: queued + in-flight + done = the domain size at
    # every tick; the first sample already has units in flight, so the
    # total must count all three.
    total = (
        backlog[0] + outstanding[0] + completed[0]
        if backlog and outstanding and completed
        else 0.0
    )
    done = completed[-1] if completed else 0.0
    pct = done / total if total else 0.0
    lines.append(
        f"backlog   {sparkline(backlog, width=width, lo=0.0).ljust(width)}  "
        f"{int(backlog[-1]) if backlog else 0} units left ({pct:.0%} done)"
    )
    goodput = [v for _, v in store.points("goodput_units_per_s")]
    if goodput:
        lines.append(
            f"goodput   {sparkline(goodput, width=width, lo=0.0).ljust(width)}  "
            f"{goodput[-1]:,.0f} units/s"
        )
    fairness = [v for _, v in store.points("fairness")]
    imbalance = [v for _, v in store.points("imbalance")]
    queue = [v for _, v in store.points("queue_depth")]
    summary = []
    if fairness:
        summary.append(f"fairness {fairness[-1]:.3f}")
    if imbalance:
        summary.append(f"imbalance {imbalance[-1]:.2f}x")
    if queue:
        summary.append(f"queue {int(queue[-1])}")
    if summary:
        lines.append("  ".join(summary))
    return _render_top_slo(lines, slo_report)


def _render_top_slo(
    lines: list[str], slo_report: Mapping[str, Any] | None
) -> str:
    if slo_report:
        lines.append("")
        lines.append(f"SLO: {slo_report.get('spec', '-')}")
        for row in slo_report.get("objectives", []):
            verdict = row.get("verdict", "-")
            mark = {"pass": "ok", "fail": "FAIL", "no-data": "n/a"}.get(
                verdict, verdict
            )
            measured = row.get("measured")
            shown = f"{measured:.4g}" if isinstance(measured, (int, float)) else "-"
            lines.append(
                f"  [{mark:>4}] {row.get('name')}: {row.get('expr')} "
                f"(measured {shown})"
            )
    return "\n".join(lines)
