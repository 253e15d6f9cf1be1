"""repro.engine — the parallel corpus-checking engine.

Scales the per-function :class:`~repro.core.checker.StackChecker` up to
archive-sized corpora (the paper's §6.5 workload): a warm worker pool
(shared with the checking daemon) over picklable work units, a
content-addressed solver-query cache shared across functions / workers /
runs, and a streaming JSONL result sink.

Attribute access is lazy (mirroring :mod:`repro`) so that lightweight
pieces — notably :mod:`repro.engine.cache`, which :mod:`repro.core.queries`
imports — can load without pulling in the checker stack.
"""

from __future__ import annotations

__all__ = [
    "CacheEntry",
    "CheckEngine",
    "EngineConfig",
    "EngineInterrupted",
    "EngineResult",
    "JsonlResultSink",
    "RunStats",
    "SolverQueryCache",
    "UnitResult",
    "WorkUnit",
    "aggregate_results",
    "canonical_query_key",
    "check_work_unit",
    "verdict_view",
]

_LAZY_ATTRS = {
    "CacheEntry": ("repro.engine.cache", "CacheEntry"),
    "SolverQueryCache": ("repro.engine.cache", "SolverQueryCache"),
    "canonical_query_key": ("repro.engine.cache", "canonical_query_key"),
    "CheckEngine": ("repro.engine.engine", "CheckEngine"),
    "EngineConfig": ("repro.engine.engine", "EngineConfig"),
    "EngineInterrupted": ("repro.engine.engine", "EngineInterrupted"),
    "EngineResult": ("repro.engine.engine", "EngineResult"),
    "RunStats": ("repro.engine.engine", "RunStats"),
    "aggregate_results": ("repro.engine.engine", "aggregate_results"),
    "JsonlResultSink": ("repro.engine.sink", "JsonlResultSink"),
    "verdict_view": ("repro.engine.sink", "verdict_view"),
    "UnitResult": ("repro.engine.workunit", "UnitResult"),
    "WorkUnit": ("repro.engine.workunit", "WorkUnit"),
    "check_work_unit": ("repro.engine.workunit", "check_work_unit"),
}


def __getattr__(name: str):
    target = _LAZY_ATTRS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro.engine' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target[0])
    value = getattr(module, target[1])
    globals()[name] = value
    return value
