"""Hierarchical tracing with deterministic span identities.

A :class:`Span` is one timed region of the pipeline — a checker stage, a
solver query, a repair gate.  Spans form a tree per run, and two properties
are load-bearing:

* **Deterministic identity.**  A span's id is derived from its parent's id,
  its name, and its sequence number among its siblings — never from
  wall-clock time, process ids, or memory addresses.  Two runs of the same
  work produce byte-identical span *trees* (ids, structure, args) whatever
  the worker count; only the out-of-band timings differ.  That is what lets
  the deterministic-JSONL modes stay byte-identical and lets tests diff
  whole traces across ``--workers 1/2/4``.
* **Out-of-band timings.**  ``ts``/``dur`` (monotonic seconds relative to
  the tracer's epoch) ride next to the identity payload, not inside it:
  :func:`span_payloads` carries identity only, :func:`span_timings` the
  parallel timing rows, and the Chrome-trace exporter
  (:mod:`repro.obs.chrometrace`) joins them back together.

The process-local :class:`Tracer` survives the engine's worker-process
fan-out by *not* trying to: each worker runs its unit under its own tracer
(:func:`repro.engine.workunit.check_work_unit`), serializes the finished
spans through the existing ``UnitResult.meta`` channel, and the parent
grafts every unit subtree back under one run root (:func:`graft`) —
re-deriving ids from the new path, which keeps the assembled tree
deterministic too.

Instrumentation sites call the module-level :func:`span` helper, which is a
no-op costing one global read when no tracer is active — the hot paths pay
nothing with tracing disabled.
"""

from __future__ import annotations

import functools
import hashlib
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
    "restore",
    "span",
    "tracing",
    "traced",
    "counter",
    "observe",
    "span_payloads",
    "span_timings",
    "graft",
]


def derive_span_id(parent_id: str, name: str, seq: int) -> str:
    """Deterministic 16-hex id from the span's path position.

    No wall-clock, pid, or object identity enters the derivation — the id
    is a pure function of (parent id, name, sibling index).
    """
    blob = f"{parent_id}/{name}#{seq}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class Span:
    """One node of the trace tree."""

    __slots__ = ("name", "span_id", "parent_id", "seq", "args",
                 "ts", "dur", "children")

    def __init__(self, name: str, parent_id: str = "", seq: int = 0,
                 args: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.parent_id = parent_id
        self.seq = seq
        self.span_id = derive_span_id(parent_id, name, seq)
        self.args: Dict[str, Any] = dict(args) if args else {}
        self.ts: float = 0.0          # seconds relative to the tracer epoch
        self.dur: float = 0.0         # seconds
        self.children: List["Span"] = []

    def child(self, name: str, args: Optional[Dict[str, Any]] = None) -> "Span":
        node = Span(name, parent_id=self.span_id, seq=len(self.children),
                    args=args)
        self.children.append(node)
        return node

    def set_arg(self, key: str, value: Any) -> None:
        """Attach a deterministic annotation (part of the identity payload)."""
        self.args[key] = value

    def identity(self) -> Dict[str, Any]:
        """The timing-free identity payload of this span."""
        return {"id": self.span_id, "parent": self.parent_id,
                "name": self.name, "seq": self.seq, "args": dict(self.args)}

    def walk(self) -> List["Span"]:
        """This span and every descendant in depth-first creation order."""
        out: List["Span"] = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def self_time(self) -> float:
        """Duration not covered by direct children."""
        return max(0.0, self.dur - sum(c.dur for c in self.children))

    def __repr__(self) -> str:
        return (f"<Span {self.name} id={self.span_id} seq={self.seq} "
                f"children={len(self.children)}>")


class _SpanHandle:
    """Context manager opening one child span on a tracer."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", node: Span) -> None:
        self._tracer = tracer
        self.span = node

    # Convenience pass-throughs so call sites read naturally.
    @property
    def dur(self) -> float:
        return self.span.dur

    def set_arg(self, key: str, value: Any) -> None:
        self.span.set_arg(key, value)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self._tracer._close(self.span)


class _NullSpan:
    """The do-nothing handle returned when no tracer is active."""

    __slots__ = ()
    dur = 0.0
    span = None

    def set_arg(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Process-local span collector with an attached metrics registry.

    Every closed span also feeds the fixed-bucket latency histogram
    ``latency.<name>`` in :attr:`metrics`, so per-stage and per-query
    latency distributions come for free with tracing.
    """

    def __init__(self, name: str = "run",
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.root = Span(name)
        self._epoch = time.monotonic()
        self._stack: List[Span] = [self.root]
        self._open: Dict[int, float] = {}          # id(span) -> monotonic start

    # -- span lifecycle ----------------------------------------------------------

    @property
    def current(self) -> Span:
        return self._stack[-1]

    def span(self, name: str, **args: Any) -> _SpanHandle:
        node = self.current.child(name, args=args or None)
        node.ts = time.monotonic() - self._epoch
        self._stack.append(node)
        self._open[id(node)] = time.monotonic()
        return _SpanHandle(self, node)

    def _close(self, node: Span) -> None:
        started = self._open.pop(id(node), None)
        if started is not None:
            node.dur = time.monotonic() - started
        if self._stack and self._stack[-1] is node:
            self._stack.pop()
        else:                          # tolerate out-of-order exits
            try:
                self._stack.remove(node)
            except ValueError:
                pass
        self.metrics.observe(f"latency.{node.name}", node.dur)

    def finish(self) -> Span:
        """Close the root span (idempotent) and return it."""
        self.root.dur = time.monotonic() - self._epoch
        return self.root

    # -- serialization -----------------------------------------------------------

    def payloads(self) -> List[Dict[str, Any]]:
        return span_payloads(self.root)

    def timings(self) -> List[List[float]]:
        return span_timings(self.root)

    def to_blob(self) -> Dict[str, Any]:
        """The picklable bundle carried through ``UnitResult.meta['obs']``."""
        self.finish()
        return {"spans": self.payloads(), "timings": self.timings(),
                "metrics": self.metrics.snapshot()}


# -- the process-local active tracer ------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    return _ACTIVE


def activate(tracer: Tracer) -> Optional[Tracer]:
    """Install ``tracer`` as the process-local tracer; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def restore(previous: Optional[Tracer]) -> None:
    """Reinstall the tracer :func:`activate` displaced."""
    global _ACTIVE
    _ACTIVE = previous


class tracing:
    """``with tracing(tracer): ...`` — activate for a scope, restore after."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = activate(self.tracer)
        return self.tracer

    def __exit__(self, *_exc) -> None:
        self.tracer.finish()
        restore(self._previous)


def span(name: str, **args: Any):
    """Open a span on the active tracer, or do nothing if tracing is off."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **args)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator wrapping a function call in a span named after it."""

    def decorate(func: Callable) -> Callable:
        label = name if name is not None else func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with span(label):
                return func(*args, **kwargs)

        return wrapper

    return decorate


def counter(name: str, value: int = 1) -> None:
    """Bump a counter on the active tracer's metrics registry (no-op when off)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.metrics.inc(name, value)


def observe(name: str, value: float,
            buckets: Optional[Sequence[float]] = None) -> None:
    """Record a histogram observation on the active tracer (no-op when off)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.metrics.observe(name, value, buckets=buckets)


# -- flat serialization and grafting ------------------------------------------------


def span_payloads(root: Span) -> List[Dict[str, Any]]:
    """Identity payloads of ``root``'s subtree in depth-first order."""
    return [node.identity() for node in root.walk()]


def span_timings(root: Span) -> List[List[float]]:
    """``[ts, dur]`` rows parallel to :func:`span_payloads`."""
    return [[node.ts, node.dur] for node in root.walk()]


def graft(parent: Span, payloads: Sequence[Dict[str, Any]],
          timings: Optional[Sequence[Sequence[float]]] = None,
          offset: float = 0.0) -> Optional[Span]:
    """Reattach a serialized subtree under ``parent``; returns its new root.

    Ids are re-derived from the new path, deterministically: the grafted
    root takes the next sibling slot of ``parent`` and every descendant
    keeps its original sequence number, so reassembly is a pure function of
    (parent position, serialized structure).  ``timings`` rows (parallel to
    ``payloads``) are shifted by ``offset`` seconds, which is how the engine
    lays concurrent units out on one logical timeline.
    """
    if not payloads:
        return None
    by_old_id: Dict[str, Span] = {}
    new_root: Optional[Span] = None
    for index, payload in enumerate(payloads):
        old_parent = payload["parent"]
        if new_root is None:
            node = parent.child(payload["name"], args=payload["args"] or None)
            new_root = node
        else:
            target = by_old_id.get(old_parent)
            if target is None:              # orphan row: attach to the root
                target = new_root
            node = target.child(payload["name"], args=payload["args"] or None)
        if timings is not None and index < len(timings):
            node.ts = float(timings[index][0]) + offset
            node.dur = float(timings[index][1])
        by_old_id[payload["id"]] = node
    return new_root
