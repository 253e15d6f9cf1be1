"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

The accounting surface of traced runs: per-layer work counters, the
``run.*`` totals of a finished run, and latency histograms.  Three
primitives:

* **counters** — monotonically increasing ints/floats (solver conflicts,
  propagations, restarts, blasted clauses, cache hits, oracle
  short-circuits, …).  Merged by addition.
* **gauges** — last-write-wins point samples (workers, corpus size).
  Merged by max, which matches how ``RunStats`` already treats ``workers``.
* **histograms** — fixed-bucket latency distributions (per-stage latency,
  per-unit serve latency).  Every histogram uses
  :data:`DEFAULT_LATENCY_BUCKETS`, so two registries recording the same
  series always merge bucket-by-bucket.

Everything speaks one ``snapshot()``/``merge()`` protocol; snapshots are
plain JSON-safe dicts, so they pickle across the worker-process fan-out
and serialize into JSONL ``{"type": "metric"}`` records unchanged.

The module also hosts two reflection helpers for the stats dataclasses
(``SolverStats``, ``RunStats``): :func:`merge_counter_dataclass` merges
*every* numeric field of a stats dataclass (so a newly added counter can
never be silently dropped — ``tests/test_stats_merge.py`` locks this in),
and :func:`absorb_dataclass` lifts a stats dataclass into a registry under
a name prefix.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "merge_counter_dataclass",
    "absorb_dataclass",
    "config_snapshot",
]

# Seconds.  Spans auto-observe their duration into ``latency.<name>``
# histograms, so the default buckets are tuned for solver-query through
# whole-run latencies.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max running stats."""

    __slots__ = ("buckets", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                index = i
                break
        self.bucket_counts[index] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(f"cannot merge histogram buckets {other.buckets} "
                             f"into {self.buckets}")
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            self.min = bound if self.min is None else min(self.min, bound)
            self.max = bound if self.max is None else max(self.max, bound)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.bucket_counts),
            "count": self.count,
            "sum": round(self.total, 9),
            "min": None if self.min is None else round(self.min, 9),
            "max": None if self.max is None else round(self.max, 9),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Histogram":
        hist = cls(payload.get("buckets", DEFAULT_LATENCY_BUCKETS))
        counts = payload.get("counts", [])
        for i, n in enumerate(counts[: len(hist.bucket_counts)]):
            hist.bucket_counts[i] = int(n)
        hist.count = int(payload.get("count", sum(hist.bucket_counts)))
        hist.total = float(payload.get("sum", 0.0))
        hist.min = payload.get("min")
        hist.max = payload.get("max")
        return hist


class MetricsRegistry:
    """Counters, gauges, and histograms behind one snapshot/merge protocol."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- recording ---------------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # -- reading -----------------------------------------------------------------

    def counter(self, name: str, default: float = 0) -> float:
        return self.counters.get(name, default)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self.histograms.get(name)

    # -- protocol ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe, picklable view: the cross-process interchange format."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {name: hist.as_dict()
                           for name, hist in sorted(self.histograms.items())},
        }

    @classmethod
    def from_snapshot(cls, payload: Mapping[str, Any]) -> "MetricsRegistry":
        registry = cls()
        registry.counters.update(payload.get("counters", {}))
        registry.gauges.update(payload.get("gauges", {}))
        for name, hist in payload.get("histograms", {}).items():
            registry.histograms[name] = Histogram.from_dict(hist)
        return registry

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            current = self.gauges.get(name)
            self.gauges[name] = value if current is None else max(current, value)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                clone = Histogram(hist.buckets)
                clone.merge(hist)
                self.histograms[name] = clone
            else:
                mine.merge(hist)
        return self

    def merge_snapshot(self, payload: Mapping[str, Any]) -> "MetricsRegistry":
        return self.merge(MetricsRegistry.from_snapshot(payload))


# -- dataclass bridge ---------------------------------------------------------------


def merge_counter_dataclass(target: Any, other: Any,
                            maxed: Sequence[str] = ()) -> Any:
    """Merge every field of a stats dataclass into ``target`` by reflection.

    Numeric fields add (``maxed`` names take the max instead — e.g.
    ``workers``) and booleans or together.  Because the field list comes from
    ``dataclasses.fields``, a counter added to the dataclass tomorrow is
    merged automatically — forgetting it is no longer possible.
    """
    if not dataclasses.is_dataclass(target):
        raise TypeError(f"not a dataclass: {target!r}")
    for field in dataclasses.fields(target):
        name = field.name
        mine = getattr(target, name)
        theirs = getattr(other, name)
        if isinstance(mine, bool) or isinstance(theirs, bool):
            setattr(target, name, mine or theirs)
        elif isinstance(mine, (int, float)) and isinstance(theirs, (int, float)):
            if name in maxed:
                setattr(target, name, max(mine, theirs))
            else:
                setattr(target, name, mine + theirs)
        # Non-numeric fields (strings, None, containers) keep the target's
        # value; merge() semantics only cover accounting fields.
    return target


def absorb_dataclass(registry: MetricsRegistry, prefix: str, stats: Any,
                     gauges: Sequence[str] = ()) -> MetricsRegistry:
    """Lift a stats dataclass into ``registry`` under ``prefix.<field>``.

    Numeric fields become counters (or gauges when named in ``gauges``);
    everything else is skipped.
    """
    if not dataclasses.is_dataclass(stats):
        raise TypeError(f"not a dataclass: {stats!r}")
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        name = f"{prefix}.{field.name}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            if field.name in gauges:
                registry.set_gauge(name, value)
            else:
                registry.inc(name, value)
    return registry


def config_snapshot(config: Any) -> Dict[str, Any]:
    """JSON-safe snapshot of a config dataclass (for run-summary records)."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        raw: Dict[str, Any] = dataclasses.asdict(config)
    elif isinstance(config, Mapping):
        raw = dict(config)
    else:
        raise TypeError(f"not a config dataclass or mapping: {config!r}")

    def sanitize(value: Any) -> Any:
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        if isinstance(value, Mapping):
            return {str(k): sanitize(v) for k, v in sorted(value.items(),
                                                           key=lambda kv: str(kv[0]))}
        if isinstance(value, (list, tuple)):
            return [sanitize(v) for v in value]
        return repr(value)

    return {key: sanitize(raw[key]) for key in sorted(raw)}
