"""Span tracer for the traced run: wraps the program's public entry points.

Nothing inside ``src/`` changes.  :class:`Tracer` patches the public
functions and methods named in :func:`install_layer_hooks` (and every module that
imported a patched function by name) with wrappers that record a span per
call: name, start, end, parent span and a few attrs.  The span names are the
``<layer>.<operation>`` names the program's own instrumentation layer is to
adopt, so a trace recorded here and one recorded by the program line up.

A layer's self time is the sum of its spans' durations minus the part their
child spans cover.  Spans nest per thread; a root span on a helper thread
(the HTTP handler, the service loop) is parented to the latest-started span
of another thread that encloses it, which is exact while one request is in
flight -- the traced run sends one at a time.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    tid: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []
        self.main_tid = threading.get_ident()
        #: (start, end) of the traced window: hooks installed to removed.
        self.window = (0.0, 0.0)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(),
                    parent=stack[-1] if stack else None,
                    tid=threading.get_ident(), attrs=attrs)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def call(self, name: str, func, args, kwargs, before=None, after=None):
        """Run ``func`` inside a span; ``before``/``after`` fill its attrs."""
        state = before(args) if before is not None else None
        index = self.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            self.close(index)
        if after is not None:
            self.spans[index].attrs.update(after(state, args, result))
        return result

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def wrap_method(self, cls, attr: str, name: str, *, before=None,
                    after=None, when=None) -> None:
        """Trace ``cls.attr``; for a property, ``when(args)`` false skips
        the span."""
        original = cls.__dict__[attr]
        tracer = self
        if isinstance(original, property):
            getter = original.fget

            def traced_get(obj):
                if when is not None and not when((obj,)):
                    return getter(obj)
                return tracer.call(name, getter, (obj,), {}, before, after)

            setattr(cls, attr, property(traced_get, original.fset,
                                        original.fdel, original.__doc__))
        else:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                return tracer.call(name, original, args, kwargs, before,
                                   after)

            setattr(cls, attr, traced)
        self._undo.append(lambda: setattr(cls, attr, original))

    def wrap_function(self, module, attr: str, name: str, *, before=None,
                      after=None) -> None:
        """Trace ``module.attr`` and every by-name import of it."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, before, after)

        for module_name, loaded in list(sys.modules.items()):
            if (module_name.split(".")[0] == "repro"
                    and getattr(loaded, attr, None) is original):
                setattr(loaded, attr, traced)
                self._undo.append(
                    lambda loaded=loaded: setattr(loaded, attr, original))

    def wrap_generator(self, cls, attr: str, name: str) -> None:
        """Trace a generator method from its first item to exhaustion."""
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                yield from original(*args, **kwargs)
            finally:
                tracer.close(index)

        setattr(cls, attr, traced)
        self._undo.append(lambda: setattr(cls, attr, original))

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()
        self.window = (self.window[0], time.perf_counter())

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def _parents(self) -> List[Optional[int]]:
        """Each span's parent, inferring cross-thread causes (see module
        docstring)."""
        spans = self.spans
        parents = [span.parent for span in spans]
        order = sorted(range(len(spans)), key=lambda i: spans[i].start)
        starts = [spans[i].start for i in order]
        for index, span in enumerate(spans):
            if span.parent is not None or span.tid == self.main_tid:
                continue
            position = bisect.bisect_right(starts, span.start) - 1
            while position >= 0:
                other = spans[order[position]]
                if other.tid != span.tid and other.end >= span.end:
                    parents[index] = order[position]
                    break
                position -= 1
        return parents

    def span_self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        self_times = [span.duration for span in self.spans]
        for index, parent in enumerate(self._parents()):
            if parent is not None:
                self_times[parent] -= self.spans[index].duration
        return self_times

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        totals: Dict[str, float] = {}
        for span, self_time in zip(self.spans, self.span_self_times()):
            totals[span.name] = totals.get(span.name, 0.0) + self_time
        return totals

    def attributed(self) -> float:
        """Seconds covered by root spans (their union, so overlap counts
        once)."""
        parents = self._parents()
        intervals = sorted((span.start, span.end)
                           for span, parent in zip(self.spans, parents)
                           if parent is None)
        covered, reach = 0.0, float("-inf")
        for start, end in intervals:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return covered

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def chrome_trace(self, origin: float) -> dict:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        events = []
        for span in self.spans:
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.tid,
                "args": {key: value for key, value in span.attrs.items()
                         if isinstance(value, (int, float, str, bool))},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path, origin: float) -> None:
        path.write_text(json.dumps(self.chrome_trace(origin)))


def span_cost(samples: int = 20000) -> float:
    """Seconds one recorded span costs (a wrapped no-op call), median of
    five batches."""
    tracer = Tracer()
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(samples // 5):
            tracer.call("calibrate", int, (), {})
        costs.append((time.perf_counter() - start) / (samples // 5))
    return sorted(costs)[2]


# ---------------------------------------------------------------------- #
# The layer entry points
# ---------------------------------------------------------------------- #
def _memo_size(args):
    return len(args[1].memo)


def _tile_attrs(before, args, result):
    return {"built": len(args[1].memo) > before}


def install_layer_hooks(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (the list in README.md) and
    open the traced window.  Traced sweeps are serial, so the pool's
    ``shm.export`` is timed separately, in the parallel pass of
    ``workloads.pool_speedup``."""
    from repro.core import overbooking
    from repro.experiments import registry, scheduler, search, store
    from repro.experiments import sweep
    from repro.model import batch, engine, workload
    from repro.server import service
    from repro.tensor import suite
    from repro.tiling import base

    tracer.wrap_method(suite.WorkloadSpec, "build", "suite.build")
    tracer.wrap_method(suite.WorkloadSpec, "build_pair", "suite.build")
    tracer.wrap_method(workload.WorkloadDescriptor, "operation_counts",
                       "opcount", when=lambda args: args[0]._counts is None)
    for tiler in (overbooking.NaiveTiler, overbooking.PrescientTiler,
                  overbooking.OverbookingTiler):
        tracer.wrap_method(tiler, "tile", "tiling.tile", before=_memo_size,
                           after=_tile_attrs)
    tracer.wrap_method(base.Tiling, "occupancy_reductions", "tiling.reduce")
    tracer.wrap_method(batch.BatchWorkloadEvaluator, "__init__",
                       "batch.init")
    tracer.wrap_method(batch.BatchWorkloadEvaluator, "prime", "batch.prime",
                       after=lambda _, args, __: {"cells": len(args[1])})
    tracer.wrap_method(batch.BatchWorkloadEvaluator, "reports",
                       "batch.reports")
    tracer.wrap_method(engine.AnalyticalEngine, "evaluate", "engine.evaluate")
    tracer.wrap_method(store.ReportStore, "load", "store.load",
                       after=lambda _, args, result: {
                           "keys": 1, "hits": int(result is not None)})
    tracer.wrap_method(store.ReportStore, "load_many", "store.load",
                       after=lambda _, args, result: {
                           "keys": len(args[1]), "hits": len(result)})
    tracer.wrap_method(store.ReportStore, "store", "store.write")
    tracer.wrap_method(scheduler.EvaluationScheduler, "prefetch",
                       "scheduler.prefetch",
                       after=lambda _, args, stats: {
                           "units": (stats.batch_groups if stats.batched
                                     else stats.computed),
                           "unique": stats.unique, "warm": stats.warm})
    tracer.wrap_function(sweep, "plan_grid", "sweep.plan")
    tracer.wrap_function(sweep, "collect_result", "sweep.collect")
    tracer.wrap_function(search, "search_frontier", "search",
                         after=lambda _, args, result: {
                             "exact_evals": len(result.points)})
    tracer.wrap_method(registry.Experiment, "run", "experiment.run",
                       after=lambda _, args, __: {"experiment": args[0].name})
    tracer.wrap_generator(service.Ticket, "events", "service.wait")
    tracer.window = (time.perf_counter(), 0.0)
