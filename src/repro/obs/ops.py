"""Operational observability for long-running processes (``repro.obs.ops``).

The PR-8 observability layer (:mod:`repro.obs.trace`,
:mod:`repro.obs.metrics`) observes *batch* runs: everything it records
surfaces when the run ends.  A resident daemon (:mod:`repro.serve`) needs
the opposite — telemetry that streams *while* the process lives and
survives when it dies.  This module provides the pieces the serve daemon
wires together (docs/OBSERVABILITY.md, "Operating the daemon"):

* :class:`EventLog` — a leveled, structured, size-rotated JSONL event log.
  Every record is one schema'd line::

      {"type": "log", "ts": 1723000000.123456, "level": "info",
       "component": "server", "event": "listening", "fields": {...}}

  Timestamps are wall-clock and therefore **out-of-band by construction**:
  log records never enter the byte-identity-checked result streams — they
  go to their own file, full stop.
* :class:`Ops` — the hub one process owns: an event log, a
  :class:`~repro.obs.flightrec.FlightRecorder` fed every event (at *all*
  levels, so a post-mortem sees the debug trail the log filtered out), and
  the dump trigger (``emit(..., dump=True)`` writes a flight record).
* :class:`SlowQueryRecorder` — installed as the solver's query hook
  (:func:`repro.core.queries.set_query_hook`, one global read when off).
  Workers collect the records per unit (``UnitResult.slow_queries``) and
  the daemon turns them into ``slow-query`` log events with the query key,
  backend, verdict, and duration.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.flightrec import FlightRecorder

__all__ = [
    "LOG_LEVELS",
    "EventLog",
    "Ops",
    "SlowQueryRecorder",
    "validate_log_record",
]

#: Severity order; a log configured at ``level`` keeps that level and up.
LOG_LEVELS = ("debug", "info", "warn", "error")

_LEVEL_RANK = {name: rank for rank, name in enumerate(LOG_LEVELS)}


def _json_safe(value: Any) -> Any:
    """Clamp an event field to plain JSON types (repr for anything else)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


class EventLog:
    """Structured JSONL event log with size-based rotation.

    ``path=None`` builds records (for the flight recorder and tests)
    without writing anything.  Rotation is size-based: once the live file
    exceeds ``max_bytes`` after a write, it is renamed to ``<path>.1``
    (existing backups shift up; at most ``backups`` are kept) and a fresh
    file starts.  All methods are thread-safe — the daemon logs from its
    accept, reader, dispatcher, and collector threads concurrently.
    """

    def __init__(self, path: Optional[str] = None, level: str = "info",
                 max_bytes: int = 10_000_000, backups: int = 3) -> None:
        if level not in _LEVEL_RANK:
            raise ValueError(f"unknown log level {level!r} "
                             f"(choose from {LOG_LEVELS})")
        self.path = path
        self.level = level
        self.max_bytes = max(1024, int(max_bytes))
        self.backups = max(1, int(backups))
        self.rotations = 0
        self._rank = _LEVEL_RANK[level]
        self._lock = threading.Lock()
        self._handle = None
        if path:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(path, "a", encoding="utf-8")

    def build(self, level: str, component: str, event: str,
              **fields: Any) -> Dict[str, Any]:
        """One schema'd log record (not yet written)."""
        if level not in _LEVEL_RANK:
            raise ValueError(f"unknown log level {level!r}")
        return {
            "type": "log",
            "ts": round(time.time(), 6),
            "level": level,
            "component": component,
            "event": event,
            "fields": {key: _json_safe(value)
                       for key, value in sorted(fields.items())},
        }

    def emit(self, level: str, component: str, event: str,
             **fields: Any) -> Dict[str, Any]:
        """Build one record and write it if it clears the level filter."""
        record = self.build(level, component, event, **fields)
        if self._handle is not None and _LEVEL_RANK[level] >= self._rank:
            line = json.dumps(record, sort_keys=True,
                              separators=(",", ":")) + "\n"
            with self._lock:
                if self._handle is not None:
                    self._handle.write(line)
                    self._handle.flush()
                    self._maybe_rotate_locked()
        return record

    def _maybe_rotate_locked(self) -> None:
        if self._handle is None or self.path is None:
            return
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return
        if size <= self.max_bytes:
            return
        self._handle.close()
        for index in range(self.backups - 1, 0, -1):
            older = f"{self.path}.{index}"
            if os.path.exists(older):
                os.replace(older, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._handle = open(self.path, "a", encoding="utf-8")
        self.rotations += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def validate_log_record(record: Any) -> None:
    """Raise ``ValueError`` unless ``record`` matches the event-log schema."""
    if not isinstance(record, dict):
        raise ValueError("log record is not an object")
    if record.get("type") != "log":
        raise ValueError(f"log record type must be 'log', "
                         f"got {record.get('type')!r}")
    if not isinstance(record.get("ts"), (int, float)):
        raise ValueError("log record needs a numeric 'ts'")
    if record.get("level") not in _LEVEL_RANK:
        raise ValueError(f"unknown level {record.get('level')!r}")
    for key in ("component", "event"):
        if not isinstance(record.get(key), str) or not record[key]:
            raise ValueError(f"log record needs a non-empty {key!r} string")
    if not isinstance(record.get("fields"), dict):
        raise ValueError("log record needs a 'fields' object")


class Ops:
    """The operational hub of one long-running process.

    Routes every event to the (leveled, rotated) :class:`EventLog` *and*
    the unfiltered :class:`FlightRecorder` ring, so a post-mortem dump
    carries the debug-level trail even when the log is configured at
    ``info``.  ``emit(..., dump=True)`` additionally writes a flight
    record named after the event — the policy hook the worker pool uses
    for worker deaths.
    """

    def __init__(self, log: Optional[EventLog] = None,
                 flight: Optional[FlightRecorder] = None,
                 flight_dir: str = ".",
                 metrics_fn: Optional[Callable[[], Dict[str, Any]]] = None,
                 config_fn: Optional[Callable[[], Dict[str, Any]]] = None,
                 ) -> None:
        self.log = log if log is not None else EventLog()
        self.flight = flight if flight is not None else FlightRecorder()
        self.flight_dir = flight_dir
        self._metrics_fn = metrics_fn
        self._config_fn = config_fn

    def emit(self, level: str, component: str, event: str,
             dump: bool = False, **fields: Any) -> Dict[str, Any]:
        record = self.log.emit(level, component, event, **fields)
        self.flight.record_event(record)
        if dump:
            self.dump(f"{component}.{event}", detail=record["fields"])
        return record

    def dump(self, reason: str,
             detail: Optional[Dict[str, Any]] = None) -> str:
        """Write one flight-recorder post-mortem; returns its path."""
        metrics = self._metrics_fn() if self._metrics_fn is not None else None
        config = self._config_fn() if self._config_fn is not None else None
        path = self.flight.dump(reason, self.flight_dir, detail=detail,
                                metrics=metrics, config=config)
        self.log.emit("error", "flight", "dumped", reason=reason, path=path)
        return path

    def recent_events(self, count: int = 10) -> List[Dict[str, Any]]:
        return self.flight.recent_events(count)

    def close(self) -> None:
        self.log.close()


# -- the slow-query recorder ------------------------------------------------------


class SlowQueryRecorder:
    """Collects solver queries slower than a threshold (milliseconds).

    Activated per work unit by
    :func:`repro.engine.workunit.check_work_unit` when
    ``CheckerConfig.slow_query_ms`` is set, as the query hook of
    :mod:`repro.core.queries` (:meth:`note`).  Records are JSON-safe dicts —
    ``{"key", "backend", "verdict", "duration_ms"}`` — and deliberately
    ride on :class:`~repro.engine.workunit.UnitResult` *outside* ``meta``,
    so they can never leak into the deterministic JSONL unit records.
    """

    def __init__(self, threshold_ms: float, capacity: int = 256) -> None:
        self.threshold_ms = float(threshold_ms)
        self.capacity = max(1, int(capacity))
        self.records: List[Dict[str, Any]] = []
        self.dropped = 0

    def note(self, key: Optional[str], verdict: Any, elapsed: float,
             backend: str) -> None:
        duration_ms = elapsed * 1000.0
        if duration_ms < self.threshold_ms:
            return
        if len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self.records.append({
            "key": key or "",
            "backend": backend,
            "verdict": "unknown" if verdict is None else str(verdict),
            "duration_ms": round(duration_ms, 3),
        })

