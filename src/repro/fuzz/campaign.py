"""Checker-guided fuzzing campaigns: generate, check, diff, reduce, stream.

A campaign is the scenario factory of the reproduction: it draws programs
from :mod:`repro.fuzz.generator`, fans them through the existing
:class:`~repro.engine.engine.CheckEngine` (frontend → lowering →
StackChecker → stage-5 witness replay → optional stage-6 repair), runs the
seeded differential optimizer over every generated module, delta-debugs
every unstable finding down to a minimal reproducer, and streams one JSONL
record per program plus a run summary.

Three properties are load-bearing and tested by ``benchmarks/bench_fuzz.py``:

* **Determinism per seed.**  One ``random.Random(seed)`` instance drives
  everything — scenario scheduling, program parameters, the stage-5 witness
  replay seed, and the differential runner's input vectors.  Solver budgets
  are counted in propagations (never on the clock) and the JSONL records
  carry no timing, so two runs with one seed are byte-identical —
  regardless of worker count, because the engine returns results in
  submission order.
* **Zero unexplained miscompiles.**  Every divergence the differential
  runner observes on a UB-free execution is a miscompile and is counted
  (and, like any unstable finding, reduced); the built-in profiles must
  produce none.
* **Reproducers for every finding.**  With ``reduce=True`` every flagged
  program gets a ddmin-minimized case that still reproduces the verdict;
  minimization is memoised on the de-tagged program shape.

Scheduling is verdict-coverage-guided: after every batch, scenario classes
that have not yet produced all of {flagged, clean, confirmed-witness} get
their selection weight boosted, so the campaign spends its budget on the
templates whose behaviour it has seen least of.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.checker import CheckerConfig
from repro.engine.engine import CheckEngine, EngineConfig, RunStats
from repro.engine.sink import JsonlResultSink
from repro.engine.workunit import UnitResult, WorkUnit
from repro.fuzz.generator import (
    ALL_SCENARIOS,
    GeneratedProgram,
    ProgramGenerator,
)
from repro.fuzz.reduce import ReducedCase, reduce_module, reduce_source

#: The verdict outcomes the scheduler wants to observe per scenario class.
_COVERAGE_GOALS = ("flagged", "clean", "confirmed")

#: Programs per engine fan-out (one check_corpus call per batch).
BATCH_SIZE = 25

#: Argument vectors per function in the differential runner.
DIFF_INPUTS = 4


@dataclass
class FuzzConfig:
    """Configuration of one fuzzing campaign (see docs/FUZZ.md)."""

    #: Campaign seed: determines every generated program and every replay.
    seed: int = 0
    #: Total number of programs to generate and check.
    budget: int = 100
    #: Engine worker processes (0/1 = sequential, same results either way).
    workers: int = 0
    #: Delta-debug every unstable finding to a minimal reproducer.
    reduce: bool = False
    #: Deterministic JSONL output path (None = keep records in memory only).
    out: Optional[str] = None
    #: Scenario classes to draw from (default: all of them).
    scenarios: Tuple[str, ...] = ALL_SCENARIOS
    #: Stage-5 witness replay for every diagnostic.
    validate_witnesses: bool = True
    #: Seeded differential optimizer run per generated program.
    differential: bool = True
    #: Stage-6 auto-repair for every diagnostic (off by default: slow).
    repair: bool = False
    #: Chrome trace-event JSON path; enables span recording across every
    #: engine batch (docs/OBSERVABILITY.md).  The JSONL stream stays
    #: byte-identical — spans never enter campaign records.
    trace: Optional[str] = None

    def checker_config(self, witness_seed: int) -> CheckerConfig:
        """The deterministic checker configuration campaign units run under."""
        return CheckerConfig(
            validate_witnesses=self.validate_witnesses,
            witness_seed=witness_seed,
            repair=self.repair,
            trace=self.trace is not None,
        )


@dataclass
class FuzzStats:
    """Aggregate counters of one campaign (the deterministic summary)."""

    seed: int = 0
    programs: int = 0
    minic_programs: int = 0
    ir_programs: int = 0
    failed_units: int = 0                 # compile/verify/crash — must be 0
    flagged_programs: int = 0
    diagnostics: int = 0
    expected_unstable: int = 0
    expectation_mismatches: int = 0       # expected != observed verdict
    witnesses_confirmed: int = 0
    witnesses_unconfirmed: int = 0
    witnesses_inconclusive: int = 0
    diff_executions: int = 0
    diff_agreements: int = 0
    diff_ub_justified: int = 0
    miscompiles: int = 0                  # unexplained divergences — must be 0
    diff_inconclusive: int = 0
    reduced_cases: int = 0                # distinct minimized reproducers
    reduction_checker_runs: int = 0
    by_scenario: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Aggregated engine counters across every batch (RunStats.merge).
    engine: RunStats = field(default_factory=RunStats)
    #: Campaign wall-clock; deliberately absent from the JSONL summary.
    wall_clock: float = 0.0

    @property
    def throughput(self) -> float:
        """Programs checked per second of campaign wall-clock."""
        if self.wall_clock <= 0.0:
            return 0.0
        return self.programs / self.wall_clock

    def scenario_row(self, scenario: str) -> Dict[str, int]:
        return self.by_scenario.setdefault(scenario, {
            "programs": 0, "expected_unstable": 0, "flagged": 0,
            "diagnostics": 0, "confirmed": 0, "miscompiles": 0,
            "mismatches": 0, "reduced": 0,
        })

    def as_dict(self) -> Dict[str, object]:
        """Deterministic summary (no timing, no scheduling-order counters)."""
        return {
            "seed": self.seed,
            "programs": self.programs,
            "minic_programs": self.minic_programs,
            "ir_programs": self.ir_programs,
            "failed_units": self.failed_units,
            "flagged_programs": self.flagged_programs,
            "diagnostics": self.diagnostics,
            "expected_unstable": self.expected_unstable,
            "expectation_mismatches": self.expectation_mismatches,
            "witnesses": {
                "confirmed": self.witnesses_confirmed,
                "unconfirmed": self.witnesses_unconfirmed,
                "inconclusive": self.witnesses_inconclusive,
            },
            "diff": {
                "executions": self.diff_executions,
                "agree": self.diff_agreements,
                "ub_justified": self.diff_ub_justified,
                "miscompile": self.miscompiles,
                "inconclusive": self.diff_inconclusive,
            },
            "reduced_cases": self.reduced_cases,
            "reduction_checker_runs": self.reduction_checker_runs,
            "by_scenario": {name: dict(row) for name, row
                            in sorted(self.by_scenario.items())},
        }


@dataclass
class FuzzResult:
    """Everything one campaign produced."""

    stats: FuzzStats
    records: List[Dict[str, object]] = field(default_factory=list)
    #: De-tagged shape key -> minimized reproducer.
    reduced: Dict[str, ReducedCase] = field(default_factory=dict)
    out: Optional[str] = None

    @property
    def flagged_records(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r["flagged"]]


class FuzzCampaign:
    """Runs one seeded campaign end to end."""

    def __init__(self, config: Optional[FuzzConfig] = None) -> None:
        self.config = config if config is not None else FuzzConfig()
        if self.config.budget <= 0:
            raise ValueError("fuzz budget must be positive")
        #: The one rng threading the whole pipeline (docs/FUZZ.md).
        self.rng = random.Random(self.config.seed)
        self.generator = ProgramGenerator(self.rng, self.config.scenarios)
        self.weights: Dict[str, float] = {s: 1.0 for s in self.config.scenarios}
        self._coverage: Dict[str, set] = {s: set() for s in self.config.scenarios}
        self._reduction_cache = None      # shared SolverQueryCache, lazy

    # -- public API ----------------------------------------------------------------

    def run(self) -> FuzzResult:
        """Generate, check, diff, and (optionally) reduce ``budget`` programs."""
        cfg = self.config
        started = time.monotonic()
        stats = FuzzStats(seed=cfg.seed)
        result = FuzzResult(stats=stats, out=cfg.out)

        # Draw order is part of the campaign's identity: the stage-5 witness
        # seed comes first, then generation and per-program differential
        # seeds interleave in program order.
        witness_seed = self.rng.getrandbits(32)
        checker = cfg.checker_config(witness_seed)
        engine = CheckEngine(EngineConfig(workers=cfg.workers, checker=checker))

        trace_root: Optional["Span"] = None
        trace_metrics = None
        trace_offset = 0.0
        if cfg.trace:
            from repro.obs.metrics import MetricsRegistry
            from repro.obs.trace import Span

            trace_root = Span("fuzz-campaign")
            trace_metrics = MetricsRegistry()

        sink = JsonlResultSink(cfg.out) if cfg.out else None
        interrupted = False
        try:
            try:
                index = 0
                while index < cfg.budget:
                    batch_size = min(BATCH_SIZE, cfg.budget - index)
                    programs = self._generate_batch(index, batch_size)
                    index += batch_size
                    outcome = engine.check_corpus(self._work_units(programs))
                    stats.engine.merge(outcome.stats)
                    if trace_root is not None and outcome.trace is not None:
                        from repro.obs.trace import graft, span_payloads, \
                            span_timings

                        graft(trace_root, span_payloads(outcome.trace),
                              span_timings(outcome.trace), offset=trace_offset)
                        trace_offset += outcome.trace.dur
                        if outcome.metrics is not None:
                            trace_metrics.merge(outcome.metrics)
                    for program, unit in zip(programs, outcome.results):
                        record = self._process_program(program, unit, result)
                        result.records.append(record)
                        if sink is not None:
                            sink.write_record(record)
                    self._reschedule()
            except KeyboardInterrupt as exc:
                # Ctrl-C / SIGTERM mid-campaign: fold in whatever the
                # interrupted batch finished, then fall through so the
                # partial summary still reaches the stream before exit 130.
                from repro.engine.engine import EngineInterrupted

                interrupted = True
                if isinstance(exc, EngineInterrupted):
                    stats.engine.merge(exc.result.stats)
            summary = {"type": "fuzz-run"}
            summary.update(stats.as_dict())
            import repro
            from repro.obs.metrics import config_snapshot

            summary["version"] = repro.__version__
            # Execution-environment knobs (output paths, worker count,
            # tracing) never influence the verdict stream, so they stay out
            # of the summary: runs that must be byte-identical may differ
            # in all three.
            snapshot = config_snapshot(cfg)
            for knob in ("out", "workers", "trace"):
                snapshot.pop(knob, None)
            summary["config"] = snapshot
            if interrupted:
                summary["interrupted"] = True
            if sink is not None:
                sink.write_record(summary)
        finally:
            if sink is not None:
                sink.close()
        stats.wall_clock = time.monotonic() - started
        if interrupted:
            raise KeyboardInterrupt("fuzz campaign interrupted")
        if trace_root is not None:
            from repro.obs.chrometrace import write_chrome_trace

            trace_root.dur = max(stats.wall_clock, trace_offset)
            write_chrome_trace(
                cfg.trace, trace_root,
                metrics=trace_metrics.snapshot()["counters"])
        return result

    # -- generation and scheduling ---------------------------------------------------

    def _generate_batch(self, start: int, count: int) -> List[GeneratedProgram]:
        scenarios = list(self.config.scenarios)
        weights = [self.weights[s] for s in scenarios]
        picks = self.rng.choices(scenarios, weights=weights, k=count)
        return [self.generator.generate(start + offset, scenario)
                for offset, scenario in enumerate(picks)]

    def _reschedule(self) -> None:
        """Boost scenarios whose verdict coverage is still incomplete."""
        for scenario in self.config.scenarios:
            missing = len(set(_COVERAGE_GOALS) - self._coverage[scenario])
            self.weights[scenario] = 1.0 + 2.0 * missing

    @staticmethod
    def _work_units(programs: Sequence[GeneratedProgram]) -> List[WorkUnit]:
        units = []
        for program in programs:
            meta = {"scenario": program.scenario, "mode": program.mode,
                    "tag": program.tag,
                    "expected_unstable": program.expected_unstable}
            if program.mode == "minic":
                units.append(WorkUnit(name=program.name, source=program.source,
                                      filename=f"{program.name}.c", meta=meta))
            else:
                units.append(WorkUnit(name=program.name,
                                      module=program.build_module(), meta=meta))
        return units

    # -- per-program processing --------------------------------------------------------

    def _process_program(self, program: GeneratedProgram, unit: UnitResult,
                         result: FuzzResult) -> Dict[str, object]:
        stats = result.stats
        report = unit.report
        flagged = bool(report.bugs)
        row = stats.scenario_row(program.scenario)

        stats.programs += 1
        row["programs"] += 1
        if program.mode == "minic":
            stats.minic_programs += 1
        else:
            stats.ir_programs += 1
        if not unit.ok:
            stats.failed_units += 1
        if program.expected_unstable:
            stats.expected_unstable += 1
            row["expected_unstable"] += 1
        if flagged:
            stats.flagged_programs += 1
            row["flagged"] += 1
            self._coverage[program.scenario].add("flagged")
        elif unit.ok:
            self._coverage[program.scenario].add("clean")
        stats.diagnostics += len(report.bugs)
        row["diagnostics"] += len(report.bugs)
        # A verdict matches the generator's expectation only if the flagged
        # state agrees *and* (when anything was flagged and a single UB
        # condition was isolated) the observed UB kinds intersect the
        # scenario's taxonomy annotation — which keeps expected_kinds
        # load-bearing rather than decorative.
        flagged_kinds = {k for bug in report.bugs for k in bug.ub_kinds}
        kind_mismatch = bool(
            flagged and program.expected_kinds and flagged_kinds
            and not (flagged_kinds & set(program.expected_kinds)))
        mismatch = unit.ok and (flagged != program.expected_unstable
                                or kind_mismatch)
        if mismatch:
            stats.expectation_mismatches += 1
            row["mismatches"] += 1

        stats.witnesses_confirmed += report.witnesses_confirmed
        stats.witnesses_unconfirmed += report.witnesses_unconfirmed
        stats.witnesses_inconclusive += report.witnesses_inconclusive
        row["confirmed"] += report.witnesses_confirmed
        if report.witnesses_confirmed:
            self._coverage[program.scenario].add("confirmed")

        diagnostics = []
        for bug in report.bugs:
            diagnostics.append({
                "location": str(bug.location),
                "algorithm": bug.algorithm.value,
                "kinds": sorted(k.value for k in set(bug.ub_kinds)),
                "fragment": bug.fragment,
                "witness": bug.witness.verdict.value
                if bug.witness is not None else None,
            })

        diff_record = None
        if self.config.differential and unit.ok:
            diff_record = self._run_diff(program, stats, row)

        reduced_record = None
        if self.config.reduce and flagged:
            reduced_record = self._reduce(program, report, result)

        return {
            "type": "fuzz-program",
            "index": program.index,
            "name": program.name,
            "scenario": program.scenario,
            "mode": program.mode,
            "tag": program.tag,
            "expected_unstable": program.expected_unstable,
            "error": unit.error,
            "flagged": flagged,
            "matches_expectation": not mismatch,
            "diagnostics": diagnostics,
            "witnesses": {
                "confirmed": report.witnesses_confirmed,
                "unconfirmed": report.witnesses_unconfirmed,
                "inconclusive": report.witnesses_inconclusive,
            },
            "diff": diff_record,
            "reduced": reduced_record,
        }

    def _fresh_module(self, program: GeneratedProgram):
        """A module the checker has not inlined/mutated, for diff/reduction."""
        if program.mode == "minic":
            from repro.api import compile_source

            return compile_source(program.source, filename=f"{program.name}.c")
        return program.build_module()

    def _run_diff(self, program: GeneratedProgram, stats: FuzzStats,
                  row: Dict[str, int]) -> Dict[str, object]:
        from repro.exec.diff import DiffClassification, run_differential

        module = self._fresh_module(program)
        diff = run_differential([(program.name, module)],
                                inputs_per_function=DIFF_INPUTS,
                                rng=self.rng)
        counts = diff.counts
        agree = counts.get(DiffClassification.AGREE.value, 0)
        justified = counts.get(DiffClassification.UB_JUSTIFIED.value, 0)
        miscompiles = counts.get(DiffClassification.MISCOMPILE.value, 0)
        inconclusive = counts.get(DiffClassification.INCONCLUSIVE.value, 0)
        stats.diff_executions += diff.executions
        stats.diff_agreements += agree
        stats.diff_ub_justified += justified
        stats.miscompiles += miscompiles
        stats.diff_inconclusive += inconclusive
        row["miscompiles"] += miscompiles
        return {
            "executions": diff.executions,
            "agree": agree,
            "ub_justified": justified,
            "miscompile": miscompiles,
            "inconclusive": inconclusive,
            "cases": [case.describe() for case in diff.miscompiles],
        }

    # -- reduction -----------------------------------------------------------------

    def _shape_key(self, program: GeneratedProgram) -> str:
        if program.mode == "minic":
            return f"minic:{program.template}"
        spec = {k: v for k, v in sorted(program.ir_spec.items()) if k != "tag"}
        return f"ir:{spec!r}"

    def _reduce(self, program: GeneratedProgram, report,
                result: FuzzResult) -> Optional[Dict[str, object]]:
        key = self._shape_key(program)
        stats = result.stats
        case = result.reduced.get(key)
        if case is None:
            # Programs of one de-tagged shape minimize identically, so the
            # first one pays for the reduction and the rest replay it.
            if self._reduction_cache is None:
                from repro.engine.cache import SolverQueryCache

                self._reduction_cache = SolverQueryCache(capacity=200_000)
            kinds = sorted({k for bug in report.bugs for k in bug.ub_kinds},
                           key=lambda k: k.value)
            if program.mode == "minic":
                case = reduce_source(program.source, kinds=kinds,
                                     filename=f"{program.name}.c",
                                     cache=self._reduction_cache)
            else:
                case = reduce_module(lambda p=program: p.build_module(),
                                     kinds=kinds, cache=self._reduction_cache)
            if case is None:
                return None
            if case.mode == "minic":
                # De-tag once, with the tag of the program that produced the
                # case; memo hits from other tags then reuse it verbatim.
                case.source = case.source.replace(program.tag, "{S}")
            result.reduced[key] = case
            stats.reduced_cases += 1
            stats.reduction_checker_runs += case.checker_runs
            stats.scenario_row(program.scenario)["reduced"] += 1
        return {
            "template": case.source,
            "mode": case.mode,
            "kinds": [k.value for k in case.kinds],
            "elements_before": case.elements_before,
            "elements_after": case.elements_after,
        }


def run_fuzz_campaign(config: Optional[FuzzConfig] = None, **kwargs) -> FuzzResult:
    """Convenience wrapper: build a :class:`FuzzCampaign` and run it.

    Keyword arguments become :class:`FuzzConfig` fields when no config is
    given::

        result = run_fuzz_campaign(seed=7, budget=50, reduce=True)
        assert result.stats.miscompiles == 0
    """
    if config is None:
        config = FuzzConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either a FuzzConfig or keyword fields, not both")
    return FuzzCampaign(config).run()
