"""The corpus-checking engine: fan-out, caching, streaming.

The paper's headline experiment runs the checker over the entire Debian
Wheezy archive (§6.5, Figure 16).  :class:`CheckEngine` is the substrate for
that workload in this reproduction: it takes a corpus of translation units,
fans one work unit per unit out over a warm worker pool
(:mod:`repro.engine.pool`, the pool the checking daemon runs on), shares a
content-addressed solver-query cache across units / workers / runs, and
streams per-unit results to a JSONL sink together with run-level statistics.
Every function is checked once under ``CheckerConfig.max_propagations``, as
``check_source`` checks it, so a unit's record does not depend on the entry
point.

Sequential mode (``workers <= 1``) runs everything in-process with identical
semantics — it is the reference the parallel path is tested against.
Parallel runs send unit *i* to worker *i mod N* and write unit records in
submission order, so their counters repeat run to run.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.checker import CheckerConfig
from repro.core.report import BugReport, ClusterStats, Counters
from repro.engine.cache import SolverQueryCache
from repro.engine.sink import (JsonlResultSink, repair_block, solver_block,
                               witnesses_block)
from repro.engine.workunit import UnitResult, WorkUnit, check_work_unit
from repro.ir.function import Module
from repro.obs.metrics import (MetricsRegistry, absorb_dataclass,
                               config_snapshot, merge_counter_dataclass)
from repro.obs.trace import Span, graft, span_payloads

#: Anything convertible into a WorkUnit: the unit itself, a (name, source)
#: pair, bare source text, or a lowered IR module.
UnitLike = Union[WorkUnit, Tuple[str, str], str, Module]


@dataclass
class EngineConfig:
    """Configuration of a :class:`CheckEngine` run (see docs/ENGINE.md)."""

    #: Worker processes; 0 or 1 checks sequentially in-process.
    workers: int = 0
    #: Checker configuration applied to every work unit.
    checker: CheckerConfig = field(default_factory=CheckerConfig)
    #: Share solver verdicts across functions / workers / runs.
    cache_enabled: bool = True
    #: Cluster structurally identical functions across the corpus, solve
    #: one representative per cluster, and propagate solver-confirmed
    #: verdicts to the other members (docs/CLUSTER.md).
    cluster: bool = False
    #: JSONL file the cache is warmed from and flushed to (None = in-memory only).
    cache_path: Optional[str] = None
    #: JSONL file streaming one record per finished unit plus a run summary.
    results_path: Optional[str] = None
    #: Chrome trace-event JSON written after the run (implies tracing; load
    #: it in Perfetto / chrome://tracing).  See docs/OBSERVABILITY.md.
    trace_path: Optional[str] = None


@dataclass
class RunStats(Counters, ClusterStats):
    """Aggregate statistics of one engine run (the Figure 16 counters).

    The record counters come from :class:`~repro.core.report.Counters`,
    the clustering counters from :class:`~repro.core.report.ClusterStats`;
    the fields below are the run's own.
    """

    units: int = 0
    failed_units: int = 0
    functions: int = 0
    diagnostics: int = 0
    solver_queries: int = 0              # queries - cache_hits, stored so
                                         # merges and run.* metrics carry it
    workers: int = 0
    wall_clock: float = 0.0

    def merge(self, other: "RunStats") -> None:
        """Accumulate another run's counters into this one.

        Reflection-based (:func:`repro.obs.metrics.merge_counter_dataclass`):
        every numeric field adds and ``workers`` keeps the maximum fan-out
        seen — so a counter added to this dataclass later is merged
        automatically.  Batched drivers (the fuzz campaign checks its corpus
        one generated batch at a time) use this to report campaign-wide
        totals.
        """
        merge_counter_dataclass(self, other, maxed=("workers",))

    def registry(self) -> MetricsRegistry:
        """This run's counters lifted into the unified metrics registry
        (``run.<field>`` counters, ``run.workers`` gauge)."""
        registry = MetricsRegistry()
        return absorb_dataclass(registry, "run", self, gauges=("workers",))

    def as_dict(self) -> Dict[str, object]:
        """The nested run-summary schema (docs/ENGINE.md)."""
        return {
            "units": self.units,
            "failed_units": self.failed_units,
            "functions": self.functions,
            "diagnostics": self.diagnostics,
            "queries": self.queries,
            "solver_queries": self.solver_queries,
            "cache_hits": self.cache_hits,
            "timeouts": self.timeouts,
            "workers": self.workers,
            "wall_clock": round(self.wall_clock, 6),
            "analysis_time": round(self.analysis_time, 6),
            "solver": solver_block(self),
            "witnesses": witnesses_block(self),
            "repair": repair_block(self),
            "cluster": {
                "functions": self.cluster_functions,
                "clusters": self.cluster_clusters,
                "propagated": self.cluster_propagated,
                "confirmed": self.cluster_confirmed,
                "fallbacks": self.cluster_fallbacks,
                "cluster_time": round(self.cluster_time, 6),
            },
        }


def aggregate_results(results: Sequence[UnitResult], wall_clock: float,
                      workers: int = 1,
                      cluster: Optional[ClusterStats] = None) -> RunStats:
    """Fold per-unit results into one :class:`RunStats`.

    Shared by the engine (one call per run) and the checking daemon (one
    call per served job — docs/SERVE.md), so batch and served run-summary
    records are built by the same code.  ``cluster`` carries a clustered
    run's counters.
    """
    stats = RunStats(workers=max(1, workers), wall_clock=wall_clock,
                     **(asdict(cluster) if cluster is not None else {}))
    for result in results:
        stats.units += 1
        if not result.ok:
            stats.failed_units += 1
        report = result.report
        stats.functions += len(report.functions)
        stats.diagnostics += len(report.bugs)
        stats.add(report.totals())
    stats.solver_queries = stats.queries - stats.cache_hits
    return stats


class EngineInterrupted(KeyboardInterrupt):
    """A run cut short by SIGINT/SIGTERM, carrying its partial result.

    Raised by :meth:`CheckEngine.check_corpus` after the partial run summary
    (marked ``"interrupted": true``) has been flushed to the JSONL sink, so
    callers — the CLI exits 130 — still see everything that finished.
    """

    def __init__(self, result: "EngineResult") -> None:
        super().__init__("engine run interrupted")
        self.result = result


@dataclass
class EngineResult:
    """Everything one engine run produced."""

    results: List[UnitResult] = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)
    #: Assembled run-level span tree (tracing runs only).
    trace: Optional[Span] = None
    #: Metrics merged across all traced units (tracing runs only).
    metrics: Optional[MetricsRegistry] = None

    @property
    def reports(self) -> List[BugReport]:
        return [result.report for result in self.results]

    @property
    def bugs(self):
        return [bug for report in self.reports for bug in report.bugs]

    def merged(self, name: str = "corpus") -> BugReport:
        """All per-unit reports merged into a single :class:`BugReport`."""
        merged = BugReport(module=name)
        for report in self.reports:
            merged.merge(report)
        return merged


class CheckEngine:
    """Checks corpora of translation units at scale."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config if config is not None else EngineConfig()
        if self.config.trace_path and not self.config.checker.trace:
            # A trace file implies tracing; the caller's configs stay as given.
            self.config = replace(self.config, checker=replace(
                self.config.checker, trace=True))
        self.cache: Optional[SolverQueryCache] = None
        self._aux_trace_blobs: List[dict] = []
        if self.config.cache_enabled:
            self.cache = SolverQueryCache(path=self.config.cache_path)

    # -- public API ----------------------------------------------------------------

    def check_corpus(self, units: Iterable[UnitLike]) -> EngineResult:
        """Check every unit of a corpus; see module docstring for semantics.

        A ``KeyboardInterrupt`` (SIGINT, or SIGTERM routed through the CLI)
        does not lose finished work: the partial run summary is written to
        the sink with ``"interrupted": true``, the cache is flushed, and
        :class:`EngineInterrupted` re-raises with the partial result.
        """
        work = [self._coerce(unit, index) for index, unit in enumerate(units)]
        started = time.monotonic()
        sink = JsonlResultSink(self.config.results_path) \
            if self.config.results_path else None
        self._aux_trace_blobs = []
        collected: List[UnitResult] = []
        cluster_stats = None
        interrupted = False
        try:
            try:
                if self.config.cluster:
                    results, cluster_stats = self._run_clustered(
                        work, sink, collected=collected)
                elif self.config.workers > 1 and len(work) > 1:
                    results = self._run_parallel(work, sink,
                                                 collected=collected)
                else:
                    results = self._run_sequential(work, sink,
                                                   collected=collected)
            except KeyboardInterrupt:
                interrupted = True
                results = list(collected)
            wall_clock = time.monotonic() - started
            stats = aggregate_results(results, wall_clock,
                                      workers=self.config.workers,
                                      cluster=cluster_stats)
            trace_root, trace_metrics = (None, None) if interrupted \
                else self._assemble_trace(results, wall_clock)
            if trace_root is not None:
                trace_metrics.merge(stats.registry())
                if sink is not None:
                    for payload in span_payloads(trace_root):
                        sink.write_record(dict(payload, type="span"))
                    self._write_metric_records(sink, trace_metrics)
                if self.config.trace_path:
                    from repro.obs.chrometrace import write_chrome_trace
                    write_chrome_trace(self.config.trace_path, trace_root,
                                       metrics=trace_metrics.snapshot()["counters"])
            if sink is not None:
                summary = self._summary_dict(stats)
                if interrupted:
                    summary["interrupted"] = True
                sink.write_summary(summary)
        finally:
            if sink is not None:
                sink.close()
        if self.cache is not None and self.config.cache_path is not None:
            self.cache.flush()
        outcome = EngineResult(results=results, stats=stats,
                               trace=trace_root, metrics=trace_metrics)
        if interrupted:
            raise EngineInterrupted(outcome)
        return outcome

    def check_modules(self, modules: Iterable[Module]) -> EngineResult:
        """Check already-lowered IR modules (pickled to workers if parallel)."""
        return self.check_corpus(modules)

    # -- execution strategies ---------------------------------------------------------

    def _run_sequential(self, work: List[WorkUnit],
                        sink: Optional[JsonlResultSink],
                        config: Optional[CheckerConfig] = None,
                        collected: Optional[List[UnitResult]] = None,
                        ) -> List[UnitResult]:
        checker = config if config is not None else self.config.checker
        results: List[UnitResult] = []
        for unit in work:
            result = check_work_unit(unit, checker, cache=self.cache,
                                     drain_cache=False)
            result.trace = result.meta.pop("obs", None)
            results.append(result)
            self._record(result, sink, collected)
        return results

    def _run_parallel(self, work: List[WorkUnit],
                      sink: Optional[JsonlResultSink],
                      config: Optional[CheckerConfig] = None,
                      collected: Optional[List[UnitResult]] = None,
                      ) -> List[UnitResult]:
        from repro.engine.pool import WarmWorkerPool

        ordered: List[Optional[UnitResult]] = [None] * len(work)
        written = 0
        with WarmWorkerPool(
                workers=min(self.config.workers, len(work)),
                checker=config if config is not None else self.config.checker,
                cache=self.cache) as pool:
            # Submitting everything before the first collect() sends unit i
            # to worker i mod N, so every worker's cache sees a fixed run.
            for index, unit in enumerate(work):
                pool.submit(str(index), unit)
            while pool.outstanding:
                for event in pool.collect():
                    if event.kind == "retried":    # no outcome yet
                        continue
                    event.result.trace = event.result.meta.pop("obs", None)
                    ordered[int(event.task_id)] = event.result
                while written < len(work) and ordered[written] is not None:
                    self._record(ordered[written], sink, collected)
                    written += 1
            pool.close()
        return [result for result in ordered if result is not None]

    def _run_clustered(self, work: List[WorkUnit],
                       sink: Optional[JsonlResultSink],
                       collected: Optional[List[UnitResult]] = None):
        """Cluster the whole corpus, solve representatives, propagate.

        The engine is the only driver of clustering.  Units are compiled
        (and inlined, per the checker config) in the parent so their
        functions can be fingerprinted across unit boundaries; one
        mini-unit per cluster representative then goes through the ordinary
        sequential/parallel machinery with inlining already done, and the
        propagation layer distributes the verdicts.  Unit records stream in
        submission order regardless of worker count, followed by one record
        per cluster — which is what makes clustered runs byte-comparable
        across ``--workers`` settings.
        """
        from repro.cluster.cluster import cluster_functions
        from repro.cluster.propagate import propagate_clusters
        from repro.ir.verifier import verify_module

        checker = self.config.checker
        base = replace(checker, inline=False)

        modules: List[Optional[Module]] = []
        errors: List[Optional[str]] = []
        for unit in work:
            try:
                if unit.module is None:
                    from repro.api import compile_source
                    module = compile_source(unit.source, filename=unit.filename)
                else:
                    module = unit.module
                verify_module(module)
                if checker.inline:
                    from repro.lower.inline import inline_module
                    inline_module(module)
                modules.append(module)
                errors.append(None)
            except Exception as exc:               # frontend/verifier rejection
                modules.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")

        started = time.monotonic()
        clusters = cluster_functions(
            (unit_index, function_index, work[unit_index].name, function)
            for unit_index, module in enumerate(modules) if module is not None
            for function_index, function in enumerate(module.defined_functions()))
        fingerprint_time = time.monotonic() - started

        # One mini-unit per representative through the ordinary fan-out.
        rep_units: List[WorkUnit] = []
        for cluster_index, cluster in enumerate(clusters):
            rep_module = Module(name=f"cluster{cluster_index}")
            rep_module.add_function(cluster.representative.function)
            rep_units.append(WorkUnit(name=f"cluster{cluster_index}",
                                      module=rep_module))
        if self.config.workers > 1 and len(rep_units) > 1:
            rep_unit_results = self._run_parallel(rep_units, None, config=base)
        else:
            rep_unit_results = self._run_sequential(rep_units, None, config=base)
        # Representative mini-units carry the only traces of a clustered
        # run; stash them for the run-level assembly (the per-unit results
        # below are synthesized in the parent, outside any tracer).
        self._aux_trace_blobs = [r.trace for r in rep_unit_results if r.trace]
        rep_results = {}
        for cluster_index, result in enumerate(rep_unit_results):
            if result.error is None and result.report.functions:
                rep_results[cluster_index] = result.report.functions[0]

        reports, cluster_stats, records = propagate_clusters(
            clusters, base, cache=self.cache, rep_results=rep_results)
        cluster_stats.cluster_time += fingerprint_time

        results: List[UnitResult] = []
        for unit_index, unit in enumerate(work):
            module, error = modules[unit_index], errors[unit_index]
            report = BugReport(module=unit.name)
            if module is not None:
                report.module = module.name or unit.name
                for function_index in range(len(module.defined_functions())):
                    report.functions.append(reports[(unit_index,
                                                     function_index)])
            result = UnitResult(name=unit.name, report=report, error=error,
                                meta=dict(unit.meta))
            results.append(result)
            self._record(result, sink, collected)
        if sink is not None:
            for record in records:
                sink.write_record(record)
        return results, cluster_stats

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _record(result: UnitResult, sink: Optional[JsonlResultSink],
                collected: Optional[List[UnitResult]]) -> None:
        """Hand one finished unit to the interrupt log and the JSONL sink."""
        if collected is not None:
            collected.append(result)
        if sink is not None:
            sink.write_unit(result.name, result.report, error=result.error,
                            meta=result.meta)

    @staticmethod
    def _coerce(unit: UnitLike, index: int) -> WorkUnit:
        if isinstance(unit, WorkUnit):
            return unit
        if isinstance(unit, Module):
            return WorkUnit(name=unit.name or f"unit{index}", module=unit)
        if isinstance(unit, str):
            return WorkUnit(name=f"unit{index}", source=unit)
        if isinstance(unit, tuple) and len(unit) == 2:
            name, source = unit
            return WorkUnit(name=name, source=source)
        raise TypeError(f"cannot build a WorkUnit from {type(unit).__name__}")

    def _assemble_trace(self, results: Sequence[UnitResult],
                        wall_clock: float):
        """Graft every unit's serialized spans under one run root.

        Units are laid out in submission order on one logical timeline
        (each shifted past the previous unit's duration), so the assembled
        tree — ids, structure, args — is identical whatever the worker
        count; only the recorded durations differ.  Returns
        ``(None, None)`` when tracing was off.
        """
        blobs = [result.trace for result in results if result.trace]
        blobs.extend(self._aux_trace_blobs)
        if not blobs:
            return None, None
        root = Span("run")
        metrics = MetricsRegistry()
        offset = 0.0
        for blob in blobs:
            graft(root, blob.get("spans", ()), blob.get("timings", ()),
                  offset=offset)
            timings = blob.get("timings") or ()
            if timings:
                offset += float(timings[0][1])     # the unit root's duration
            metrics.merge_snapshot(blob.get("metrics", {}))
        root.dur = max(wall_clock, offset)
        return root, metrics

    @staticmethod
    def _write_metric_records(sink: JsonlResultSink,
                              metrics: MetricsRegistry) -> None:
        """One sorted-key ``{"type": "metric"}`` record per metric."""
        snapshot = metrics.snapshot()
        for name, value in snapshot["counters"].items():
            sink.write_record({"type": "metric", "kind": "counter",
                               "name": name, "value": value})
        for name, value in snapshot["gauges"].items():
            sink.write_record({"type": "metric", "kind": "gauge",
                               "name": name, "value": value})
        for name, hist in snapshot["histograms"].items():
            sink.write_record(dict(hist, type="metric", kind="histogram",
                                   name=name))

    def _summary_dict(self, stats: RunStats) -> Dict[str, object]:
        import repro

        summary = stats.as_dict()
        summary["version"] = repro.__version__
        summary["config"] = {
            "checker": config_snapshot(self.config.checker),
            "engine": {
                "workers": self.config.workers,
                "cache_enabled": self.config.cache_enabled,
                "cluster": self.config.cluster,
            },
        }
        if self.cache is not None:
            # Derive hit/miss from this run's aggregated report counters: in
            # parallel mode the lookups happen inside worker-process cache
            # copies, so the parent cache's own counters would read zero.
            total = stats.queries
            summary["cache"] = {
                "entries": len(self.cache),
                "hits": stats.cache_hits,
                "misses": stats.solver_queries,
                "hit_rate": round(stats.cache_hits / total, 4) if total else 0.0,
            }
        return summary
