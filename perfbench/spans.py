"""In-memory spans around calls into the program's layers.

The traced run patches a fixed set of the program's public entry
points with thin timing wrappers defined here, so the per-layer numbers
come from the benchmark's own files and the program is unchanged.  A
span records its name, start, end, parent span and a few attributes;
spans stay in memory and are summarised when the lap ends.

Patched entry points (span name -> callable):

* ``modeling.fit`` / ``modeling.add`` -> ``PerfProfile.fit`` / ``.add``
* ``solver.solve`` -> ``solve_block_partition`` (every module binding)
* ``service.rebalance`` -> ``ContinuousBalancer.rebalance``
* ``core.rebalance`` -> ``PLBHeC._rebalance`` (the paper's §III.D step)
* ``runtime.run`` -> ``Runtime.run``
* ``experiments.cache_load`` / ``experiments.cache_store`` ->
  ``ResultCache.load`` / ``.store``

Calls the benchmark makes itself (``ClusterService.run``, the obs
writers and readers) are timed at the call site with :meth:`Recorder.timed`.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullRecorder:
    """Tracing off: :meth:`timed` is a plain call."""

    active = False

    @staticmethod
    def timed(_name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


class Recorder:
    """Collects spans; :meth:`install` patches the program, ``close`` undoes it."""

    active = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        # modeling.stale_fit_frac bookkeeping, keyed by profile identity;
        # the profile itself is held so an id cannot be reused mid-lap
        self._adds: dict[int, list] = {}

    # ---- span primitives ------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; returns its result."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    # ---- queries ----------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, name: str) -> float:
        """Total duration of ``name`` spans minus their direct children."""
        total = 0.0
        wanted = {i for i, s in enumerate(self.spans) if s.name == name}
        for s in self.spans:
            if s.parent in wanted:
                total -= s.duration
        for i in wanted:
            total += self.spans[i].duration
        return total

    # ---- patching ---------------------------------------------------------
    def _span_method(self, owner: Any, attr: str, name: str, post=None) -> None:
        """Wrap ``owner.attr`` in a span; ``post(span, args, result)`` runs
        after each call that returns."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = self._close(index)
            if post is not None:
                post(span, args, result)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from repro.core.plb_hec import PLBHeC
        from repro.experiments.parallel import ResultCache
        from repro.modeling.perf_profile import PerfProfile
        from repro.runtime.runtime import Runtime
        from repro.service.balancer import ContinuousBalancer
        from repro.solver import partition

        adds = self._adds

        def profile_entry(profile) -> list:
            # [profile, adds so far, adds at its last fit]
            return adds.setdefault(id(profile), [profile, 0, -1])

        def add_post(_span: Span, args, _result) -> None:
            profile_entry(args[0])[1] += 1

        def fit_post(span: Span, args, _result) -> None:
            entry = profile_entry(args[0])
            span.attrs["stale"] = entry[1] == entry[2]
            entry[2] = entry[1]

        self._span_method(PerfProfile, "add", "modeling.add", post=add_post)
        self._span_method(PerfProfile, "fit", "modeling.fit", post=fit_post)

        def solve_post(span: Span, _args, result) -> None:
            span.attrs["method"] = result.method
            span.attrs["iterations"] = int(result.iterations)

        # callers bind the function at import time (``from ... import``),
        # so every loaded module holding the original is re-pointed
        solve = partition.solve_block_partition
        for module in list(sys.modules.values()):
            if getattr(module, "solve_block_partition", None) is solve:
                self._span_method(
                    module, "solve_block_partition", "solver.solve", post=solve_post
                )

        def run_post(span: Span, args, _result) -> None:
            span.attrs["policy"] = args[1].name

        self._span_method(ContinuousBalancer, "rebalance", "service.rebalance")
        self._span_method(PLBHeC, "_rebalance", "core.rebalance")
        self._span_method(Runtime, "run", "runtime.run", post=run_post)
        self._span_method(ResultCache, "load", "experiments.cache_load")
        self._span_method(ResultCache, "store", "experiments.cache_store")

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
