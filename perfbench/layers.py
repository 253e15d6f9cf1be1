"""Per-layer tracing from outside the checker.

The benchmark never edits ``src/``.  It measures each layer by replacing the
public function where the layer is entered with a wrapper that records a
span (layer name, start, end, parent span, trace id) and, for a few layers,
work counters read before and after the call.  :meth:`Tracer.install`
patches every layer and :meth:`Tracer.remove` restores the original
objects, so untraced passes run unpatched code.

Spans stay in memory for the whole run and are written out once, at the
end (:meth:`Tracer.write_spans`).  A layer's *self time* is the span's
duration minus the part of it its child spans cover; summed over every span
of a trace, self times add up to the root span's duration.

The program's own ``repro.obs`` tracing stays off: these spans are the
benchmark's, not the checker's.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)


class Span(NamedTuple):
    """One timed call into a layer."""

    sid: int
    parent: int          # 0 for a root span
    trace: int           # one id per pass, job or invocation
    layer: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of ``[start, end]`` covered by ``intervals``."""
    clipped = sorted((max(start, a), min(end, b)) for a, b in intervals
                     if min(end, b) > max(start, a))
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {span.sid: span.duration - covered(span.start, span.end,
                                              children.get(span.sid, ()))
            for span in spans}


def layer_totals(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """``layer -> (calls, self seconds)`` over ``spans``."""
    selfs = self_times(spans)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        entry = totals[span.layer]
        entry[0] += 1
        entry[1] += selfs[span.sid]
    return {layer: (int(calls), seconds)
            for layer, (calls, seconds) in totals.items()}


# Counter hooks: ``before(args)`` returns a token, ``after(tracer, args,
# result, token)`` adds to the tracer's counters.

def _count_hits(tracer: "Tracer", _args, result, _token) -> None:
    tracer.counters["cache.lookups"] += 1
    if result is not None:
        tracer.counters["cache.hits"] += 1


def _count_stores(tracer: "Tracer", _args, _result, _token) -> None:
    tracer.counters["cache.stores"] += 1


def _count_decided(tracer: "Tracer", _args, result, _token) -> None:
    if result is not None:
        tracer.counters["oracle.decided"] += 1


def _count_records(tracer: "Tracer", _args, _result, _token) -> None:
    tracer.counters["sink.records"] += 1


def _clauses_before(args) -> int:
    return args[0].cnf.num_clauses


def _count_clauses(tracer: "Tracer", args, _result, before: int) -> None:
    tracer.counters["bitblast.clauses"] += args[0].cnf.num_clauses - before


_SAT_WORK = ("conflicts", "decisions", "propagations", "restarts")


def _sat_before(args) -> Tuple[int, ...]:
    return tuple(getattr(args[0], name) for name in _SAT_WORK)


def _count_sat(tracer: "Tracer", args, _result, before) -> None:
    for name, old in zip(_SAT_WORK, before):
        tracer.counters[f"sat.{name}"] += getattr(args[0], name) - old


def layer_patches():
    """``(owner, attribute, layer, before, after)`` for every layer.

    Names bound with ``from x import f`` are patched where the caller looks
    them up; lazily imported names and methods are patched at their
    definition.
    """
    import repro.api
    import repro.core.checker
    import repro.engine.cache
    import repro.lower.inline
    import repro.solver.solver
    from repro.core.encode import FunctionEncoder
    from repro.engine.cache import SolverQueryCache
    from repro.engine.sink import JsonlResultSink
    from repro.serve.client import ServeClient
    from repro.solver.bitblast import BitBlaster
    from repro.solver.sat import SatSolver
    from repro.solver.solver import Solver

    return [
        (repro.api, "parse", "frontend", None, None),
        (repro.api, "analyze", "frontend", None, None),
        (repro.api, "lower_translation_unit", "lower", None, None),
        (repro.lower.inline, "inline_module", "lower", None, None),
        (repro.core.checker, "verify_module", "lower", None, None),
        (FunctionEncoder, "__init__", "core", None, None),
        (repro.core.checker, "run_elimination", "core", None, None),
        (repro.core.checker, "run_simplification", "core", None, None),
        (repro.core.checker, "minimal_ub_conditions", "core", None, None),
        (repro.engine.cache, "canonical_query_key", "cache.key", None, None),
        (SolverQueryCache, "lookup", "cache.lookup", None, _count_hits),
        (SolverQueryCache, "store", "cache.store", None, _count_stores),
        (SolverQueryCache, "load", "cache.load", None, None),
        (repro.solver.solver, "simplify", "simplify", None, None),
        (repro.solver.solver, "preanswer", "oracle", None, _count_decided),
        (BitBlaster, "blast_bool", "bitblast", _clauses_before,
         _count_clauses),
        (SatSolver, "solve", "sat", _sat_before, _count_sat),
        (Solver, "check", "solver", None, None),
        (JsonlResultSink, "__init__", "sink", None, None),
        (JsonlResultSink, "write_unit", "sink", None, _count_records),
        (JsonlResultSink, "write_summary", "sink", None, _count_records),
        (JsonlResultSink, "write_record", "sink", None, _count_records),
        (JsonlResultSink, "close", "sink", None, None),
        (ServeClient, "submit", "serve.admit", None, None),
    ]


class Tracer:
    """Records spans at layer boundaries while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._ids_lock = threading.Lock()
        self._installed: List[Tuple[object, str, Callable]] = []

    # -- span recording -------------------------------------------------------

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._ids_lock:
            return next(self._ids)

    def begin_trace(self) -> None:
        """Start a new trace id on this thread (one pass, job or check)."""
        self._local.trace = self._next_id()

    def call(self, layer: str, fn: Callable, args, kwargs,
             before=None, after=None):
        """Run ``fn`` inside a span of ``layer``.

        A call made from inside a span of the same layer (a recursive
        ``blast_bool``) joins that span, so ``calls`` counts entries into
        the layer and each layer's work is counted once.
        """
        stack = self._stack()
        if stack and stack[-1][1] == layer:
            return fn(*args, **kwargs)
        token = before(args) if before is not None else None
        sid = self._next_id()
        parent = stack[-1][0] if stack else 0
        stack.append((sid, layer))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent,
                                   getattr(self._local, "trace", 0),
                                   layer, start, end))
        if after is not None:
            after(self, args, result, token)
        return result

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span the harness opens."""
        return self.call(layer, fn, args, kwargs)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point (see :func:`layer_patches`)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer, before, after in layer_patches():
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrapper(layer, original, before, after))
            self._installed.append((owner, attr, original))

    def _wrapper(self, layer: str, original: Callable, before, after):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(layer, original, args, kwargs, before, after)

        return traced

    def remove(self) -> None:
        """Restore every patched entry point to its original object."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def adopt(self, rows: Sequence[Sequence]) -> None:
        """Append spans another process recorded, as one trace, under fresh
        ids (rows as :meth:`write_spans` writes them)."""
        trace = self._next_id()
        mapping = {0: 0}
        for row in rows:
            mapping[row[0]] = self._next_id()
        for sid, parent, _trace, layer, start, end in rows:
            self.spans.append(Span(mapping[sid], mapping[parent], trace,
                                   layer, start, end))

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write every recorded span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(
                    [span.sid, span.parent, span.trace, span.layer,
                     round(span.start, 9), round(span.end, 9)]) + "\n")


def entry_points() -> List[object]:
    """The objects currently bound at every patched entry point.

    Comparing two snapshots by identity shows whether a tracer left a
    wrapper behind.
    """
    return [getattr(owner, attr)
            for owner, attr, _layer, _before, _after in layer_patches()]


def same_entry_points(first: Sequence[object],
                      second: Sequence[object]) -> bool:
    return len(first) == len(second) and \
        all(a is b for a, b in zip(first, second))
