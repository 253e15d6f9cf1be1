"""The StackChecker facade: the four-stage pipeline of Figure 7.

Stage 1 — the frontend — lives in :mod:`repro.frontend` / :mod:`repro.lower`
(`stack-build` intercepting the compiler corresponds to
:func:`repro.api.compile_source`).  This module implements stages 2–4 on IR:

2. UB-condition insertion (via :class:`~repro.core.encode.FunctionEncoder`),
3. solver-based optimization — elimination, then simplification with the
   boolean oracle, then the algebra oracle (§4.4),
4. bug report generation — compiler-origin filtering, minimal UB sets, and
   classification (§4.5).

With ``CheckerConfig.validate_witnesses`` a fifth stage runs after report
generation: every diagnostic's solver model is replayed through the concrete
interpreter (:mod:`repro.exec`), before and after the UB-exploiting
optimizer, and the witness verdict is attached to the diagnostic
(docs/EXEC.md).

With ``CheckerConfig.repair`` a sixth stage runs after that: the repair
template library (:mod:`repro.repair`) proposes candidate rewrites for each
diagnostic, and every candidate must clear the three-gate verifier (solver
equivalence on UB-free inputs, stability re-check under every built-in
compiler profile, witness replay) before the patch is attached as
``Diagnostic.repair`` (docs/REPAIR.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import List, Optional

from repro.core.classify import classify_all
from repro.core.elimination import EliminationFinding, run_elimination
from repro.core.encode import FunctionEncoder
from repro.core.mincond import minimal_ub_conditions
from repro.core.queries import QueryEngine
from repro.core.report import (
    SOLVER_COUNTERS,
    Algorithm,
    BugReport,
    Diagnostic,
    FunctionReport,
    MinimalUBSet,
)
from repro.core.simplification import (
    AlgebraOracle,
    BooleanOracle,
    SimplificationFinding,
    run_simplification,
)
from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction
from repro.ir.printer import print_instruction
from repro.ir.verifier import verify_module
from repro.obs.trace import span
from repro.solver.solver import DEFAULT_MAX_PROPAGATIONS


@dataclass
class CheckerConfig:
    """Configuration of a checker run."""

    #: Per-query budget in SAT propagations (the paper gives Boolector 5 s;
    #: this is about as much CDCL work, counted without the clock).
    max_propagations: Optional[int] = DEFAULT_MAX_PROPAGATIONS
    #: Batch related queries into incremental solver contexts (shared base
    #: asserted once, per-query deltas as assumptions, learned clauses and
    #: bit-blasted encodings retained).  Disable to solve every query from
    #: scratch — the reference mode the benchmarks compare against.
    incremental: bool = True
    #: Inline same-module callees before checking (§4.2).
    inline: bool = True
    #: Compute minimal UB sets (Figure 8).  Disabling skips the extra queries.
    minimize_ub_sets: bool = True
    #: Classify diagnostics into the §6.2 taxonomy.
    classify: bool = True
    #: Stage 5: replay a solver model for every diagnostic through the
    #: concrete interpreter, pre- and post-optimization, and attach the
    #: witness verdict (docs/EXEC.md).
    validate_witnesses: bool = False
    #: Seed of the external environment used by witness replay and the
    #: repair verifier's replay gate (CLI: ``--seed``), so validation runs
    #: reproduce exactly.
    witness_seed: int = 0
    #: Stage 6: propose template rewrites for every diagnostic and attach
    #: the patches that clear the three-gate verifier (docs/REPAIR.md).
    repair: bool = False
    #: The SAT backend every solver query goes to: "builtin" (in-process
    #: CDCL), "pysat" or "dimacs" (docs/SOLVER.md).
    backend: str = "builtin"
    #: Record hierarchical spans + metrics for every stage and solver query
    #: (repro.obs; CLI: ``--trace OUT.json``).  Span identities are
    #: deterministic — see docs/OBSERVABILITY.md.
    trace: bool = False
    #: Record every solver query slower than this many milliseconds (key,
    #: backend, verdict, duration) on ``UnitResult.slow_queries`` — the serve
    #: daemon's slow-query log (docs/OBSERVABILITY.md).  None disables the
    #: recorder entirely.
    slow_query_ms: Optional[float] = None

    def describe(self) -> str:
        """Render the active configuration for reports and logs.

        One ``name = value`` line per field.  ``docs/ENGINE.md`` carries the
        paper citation for every field.
        """
        lines = ["CheckerConfig:"]
        for config_field in fields(self):
            lines.append(f"  {config_field.name} = "
                         f"{getattr(self, config_field.name)!r}")
        return "\n".join(lines)


class StackChecker:
    """Detects optimization-unstable code in IR modules.

    ``query_cache`` (a :class:`~repro.engine.cache.SolverQueryCache`) is
    shared by every function this checker analyzes: structurally identical
    solver queries are answered once and replayed thereafter.
    """

    def __init__(self, config: Optional[CheckerConfig] = None,
                 query_cache: Optional["SolverQueryCache"] = None) -> None:
        self.config = config if config is not None else CheckerConfig()
        self.query_cache = query_cache

    # -- public API ----------------------------------------------------------------

    def check_module(self, module: Module) -> BugReport:
        """Check every defined function in ``module``."""
        verify_module(module)
        if self.config.inline:
            from repro.lower.inline import inline_module
            inline_module(module)
        report = BugReport(module=module.name)
        for function in module.defined_functions():
            report.functions.append(self.check_function(function))
        return report

    def check_function(self, function: Function) -> FunctionReport:
        """Check a single function and return its report.

        With ``config.trace`` set (and a tracer active), the stage 2–6
        sub-phases each record a span under one ``check.function`` span.
        """
        with span("check.function", function=function.name):
            return self._check_function(function)

    def _check_function(self, function: Function) -> FunctionReport:
        started = time.monotonic()
        result = FunctionReport(function=function.name)
        with span("stage2.encode", function=function.name):
            encoder = FunctionEncoder(function)
            engine = QueryEngine(encoder,
                                 max_propagations=self.config.max_propagations,
                                 cache=self.query_cache,
                                 incremental=self.config.incremental,
                                 backend=self.config.backend, stats=result)

        with span("stage3.elimination"):
            elimination_findings = run_elimination(encoder, engine)

        # Comparisons inside blocks already proven unreachable need no second
        # look by the simplification oracles.
        dead_instructions: List[Instruction] = []
        for finding in elimination_findings:
            dead_instructions.extend(finding.block.instructions)

        with span("stage3.simplification"):
            simplification_findings = run_simplification(
                encoder, engine, [BooleanOracle(), AlgebraOracle()],
                skip_instructions=dead_instructions)

        diagnostics: List[Diagnostic] = []
        witness_work = []         # (diagnostic, hypothesis, conditions) triples
        repair_work = []          # the same, plus the originating finding
        suppressed = 0
        with span("stage4.report"):
            for finding in elimination_findings:
                if finding.trivially_dead:
                    continue
                diagnostic = self._diagnostic_from_elimination(
                    encoder, engine, finding)
                if diagnostic is None:
                    suppressed += 1
                    continue
                diagnostics.append(diagnostic)
                witness_work.append((diagnostic, finding.hypothesis,
                                     finding.conditions))
                repair_work.append((diagnostic, finding, finding.hypothesis,
                                    finding.conditions))
            for finding in simplification_findings:
                if finding.trivially_simplified:
                    continue
                diagnostic = self._diagnostic_from_simplification(
                    encoder, engine, finding)
                if diagnostic is None:
                    suppressed += 1
                    continue
                diagnostics.append(diagnostic)
                witness_work.append((diagnostic, finding.hypothesis,
                                     finding.conditions))
                repair_work.append((diagnostic, finding, finding.hypothesis,
                                    finding.conditions))

            if self.config.classify:
                classify_all(diagnostics)

        if self.config.validate_witnesses and witness_work:
            from repro.exec.witness import validate_diagnostics

            with span("stage5.witness", diagnostics=len(witness_work)):
                validate_diagnostics(
                    function, encoder, witness_work, result,
                    max_propagations=self.config.max_propagations,
                    seed=self.config.witness_seed)

        if self.config.repair and repair_work:
            from repro.repair import repair_diagnostics

            with span("stage6.repair", diagnostics=len(repair_work)):
                repair_diagnostics(function, encoder, repair_work,
                                   self.config, result, cache=self.query_cache)

        result.diagnostics = diagnostics
        result.suppressed_compiler_origin = suppressed
        solver_stats = engine.solver_stats
        for name in SOLVER_COUNTERS:
            setattr(result, name, getattr(solver_stats, name))
        result.analysis_time = time.monotonic() - started
        return result

    # -- diagnostic construction -------------------------------------------------------

    def _minimal_set(self, encoder: FunctionEncoder, engine: QueryEngine,
                     hypothesis, conditions) -> MinimalUBSet:
        if not self.config.minimize_ub_sets:
            return MinimalUBSet(list(conditions))
        return minimal_ub_conditions(engine, hypothesis, conditions)

    def _diagnostic_from_elimination(
        self, encoder: FunctionEncoder, engine: QueryEngine,
        finding: EliminationFinding,
    ) -> Optional[Diagnostic]:
        representative = finding.representative
        if representative is None:
            return None
        if not representative.origin.is_user_code():
            return None
        ub_set = self._minimal_set(encoder, engine,
                                   finding.hypothesis, finding.conditions)
        fragment = print_instruction(representative)
        message = ("this code becomes unreachable once the compiler assumes "
                   "the program never invokes undefined behavior")
        return Diagnostic(
            function=encoder.function.name,
            location=representative.location,
            algorithm=Algorithm.ELIMINATION,
            message=message,
            fragment=fragment,
            replacement="(code removed)",
            ub_set=ub_set,
            origin=representative.origin,
        )

    def _diagnostic_from_simplification(
        self, encoder: FunctionEncoder, engine: QueryEngine,
        finding: SimplificationFinding,
    ) -> Optional[Diagnostic]:
        inst = finding.instruction
        if not inst.origin.is_user_code():
            return None
        ub_set = self._minimal_set(encoder, engine,
                                   finding.hypothesis, finding.conditions)
        fragment = print_instruction(inst)
        message = ("this comparison can be simplified once the compiler assumes "
                   "the program never invokes undefined behavior")
        return Diagnostic(
            function=encoder.function.name,
            location=inst.location,
            algorithm=finding.algorithm,
            message=message,
            fragment=fragment,
            replacement=finding.proposal.description,
            ub_set=ub_set,
            origin=inst.origin,
        )
