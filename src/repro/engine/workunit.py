"""Picklable work units for the corpus-checking engine.

A :class:`WorkUnit` is one translation unit to check — either MiniC source
text (compiled inside the worker, so only strings cross the process
boundary) or an already-lowered IR module.  :func:`check_work_unit` is the
pure function a worker runs: compile if needed, check every function, and
retry with an escalated per-query budget while any function still blows it.
Everything it takes and returns pickles, which is what lets
:class:`~repro.engine.engine.CheckEngine` and the checking daemon fan
units out over the worker processes of
:class:`~repro.engine.pool.WarmWorkerPool`.

Each function is checked through incremental solver contexts (see
:mod:`repro.core.queries`); the per-function :class:`FunctionReport`
carries the aggregated :class:`~repro.solver.solver.SolverStats` counters,
and escalation retries replace a starved function's report wholesale — so
unit results always reflect the budget that actually produced them.
``escalate_config`` copies every checker field, including ``incremental``,
so retries run in the same solving mode as the base pass.

When ``CheckerConfig.trace`` is set, the whole unit runs under its own
process-local :class:`~repro.obs.trace.Tracer` — in the worker *and* in
sequential mode, so the span tree is identical either way — and the
finished spans travel back through ``UnitResult.meta["obs"]`` (identity
payloads, out-of-band timings, and a metrics snapshot), which the engine
pops off and grafts into the run-level trace (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.checker import CheckerConfig, StackChecker
from repro.core.report import BugReport
from repro.engine.cache import SolverQueryCache
from repro.ir.function import Module
from repro.obs import ops as obs_ops
from repro.obs import trace as obs_trace
from repro.obs.trace import span


@dataclass
class WorkUnit:
    """One unit of checking work: a named translation unit."""

    name: str
    source: Optional[str] = None         # MiniC source, compiled in the worker
    module: Optional[Module] = None      # or an already-lowered IR module
    filename: str = ""
    #: Caller-owned, picklable annotations (e.g. the fuzz campaign's
    #: scenario/seed tags); carried verbatim onto the UnitResult and into
    #: the JSONL unit record.
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.source is None) == (self.module is None):
            raise ValueError("a WorkUnit needs exactly one of source / module")
        if not self.filename:
            self.filename = f"{self.name}.c"


@dataclass
class UnitResult:
    """Outcome of checking one work unit."""

    name: str
    report: BugReport
    attempts: int = 1                    # 1 = the base budget sufficed
    escalated: bool = False              # any retry was needed
    error: Optional[str] = None          # compile/verify failure, if any
    cache_entries: List[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)   # the work unit's annotations
    #: Serialized trace blob (spans/timings/metrics) when tracing was on;
    #: populated by the engine from ``meta["obs"]`` before sink writes.
    trace: Optional[dict] = None
    #: Solver queries over ``CheckerConfig.slow_query_ms``, as JSON-safe
    #: dicts (key, backend, verdict, duration_ms).  Deliberately a dedicated
    #: field rather than a ``meta`` entry: ``meta`` is serialized into the
    #: deterministic JSONL unit records, and slow-query timings are
    #: wall-clock — they must stay out-of-band (docs/OBSERVABILITY.md).
    slow_queries: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


def escalate_config(config: CheckerConfig, factor: float) -> CheckerConfig:
    """A copy of ``config`` with the per-query budget scaled by ``factor``."""
    timeout = None if config.solver_timeout is None \
        else config.solver_timeout * factor
    conflicts = None if config.max_conflicts is None \
        else max(1, int(config.max_conflicts * factor))
    return dataclasses.replace(config, solver_timeout=timeout,
                               max_conflicts=conflicts)


def check_work_unit(unit: WorkUnit, config: CheckerConfig,
                    cache: Optional[SolverQueryCache] = None,
                    escalation_factors: Sequence[float] = (),
                    drain_cache: bool = True) -> UnitResult:
    """Check one work unit, escalating the budget for timing-out functions.

    The base pass checks the whole module.  While any function reports query
    timeouts and escalation steps remain, only those functions are re-checked
    under the next (cumulatively scaled) budget; their reports replace the
    starved ones.  Cached SAT/UNSAT verdicts are replayed across attempts,
    while cached ``unknown`` verdicts are ignored under a larger budget
    (see :mod:`repro.engine.cache`), so a retry re-solves exactly the
    queries that timed out.

    With ``config.trace`` set, the unit runs under a fresh tracer whose
    serialized spans ride home in ``meta["obs"]`` (see module docstring).
    With ``config.slow_query_ms`` set, a process-local
    :class:`~repro.obs.ops.SlowQueryRecorder` is active for the unit's
    lifetime and its records ride home in ``UnitResult.slow_queries``.
    """
    recorder = None
    previous_slow = None
    if config.slow_query_ms is not None:
        recorder = obs_ops.SlowQueryRecorder(config.slow_query_ms)
        previous_slow = obs_ops.activate_slow_queries(recorder)
    try:
        if not config.trace:
            result = _check_work_unit(unit, config, cache=cache,
                                      escalation_factors=escalation_factors,
                                      drain_cache=drain_cache)
        else:
            tracer = obs_trace.Tracer(name=f"unit:{unit.name}")
            previous = obs_trace.activate(tracer)
            try:
                result = _check_work_unit(
                    unit, config, cache=cache,
                    escalation_factors=escalation_factors,
                    drain_cache=drain_cache)
            finally:
                obs_trace.restore(previous)
            result.meta = dict(result.meta)
            result.meta["obs"] = tracer.to_blob()
    finally:
        if recorder is not None:
            obs_ops.restore_slow_queries(previous_slow)
    if recorder is not None:
        result.slow_queries = recorder.records
    return result


def _check_work_unit(unit: WorkUnit, config: CheckerConfig,
                     cache: Optional[SolverQueryCache] = None,
                     escalation_factors: Sequence[float] = (),
                     drain_cache: bool = True) -> UnitResult:
    if unit.module is None:
        from repro.api import compile_source

        try:
            with span("stage1.frontend", unit=unit.name):
                module = compile_source(unit.source, filename=unit.filename)
        except Exception as exc:                       # frontend rejection
            return UnitResult(name=unit.name, report=BugReport(module=unit.name),
                              error=f"{type(exc).__name__}: {exc}",
                              meta=dict(unit.meta))
    else:
        module = unit.module

    checker = StackChecker(config, query_cache=cache)
    report = checker.check_module(module)
    report.module = report.module or unit.name

    attempts = 1
    escalated = False
    functions_by_name = {fn.name: fn for fn in module.defined_functions()}
    for factor in escalation_factors:
        starved = [fr for fr in report.functions if fr.timeouts > 0]
        if not starved:
            break
        escalated = True
        attempts += 1
        retry_checker = StackChecker(escalate_config(config, factor),
                                     query_cache=cache)
        with span("unit.escalate", attempt=attempts):
            for function_report in starved:
                function = functions_by_name.get(function_report.function)
                if function is None:
                    continue
                retried = retry_checker.check_function(function)
                index = report.functions.index(function_report)
                report.functions[index] = retried

    # Workers drain their discoveries so the parent can absorb them; in
    # sequential mode the engine owns the cache and flushes it directly.
    entries = cache.drain_new_entries() if cache is not None and drain_cache else []
    return UnitResult(name=unit.name, report=report, attempts=attempts,
                      escalated=escalated, cache_entries=entries,
                      meta=dict(unit.meta))
