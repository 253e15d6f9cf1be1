"""Witness replay: from solver model to confirmed diagnostic.

Every elimination/simplification diagnostic rests on a SAT/UNSAT pair: the
fragment is live under plain C* semantics (SAT — some input reaches it) but
dead under the well-defined-program assumption Δ (UNSAT — every such input
first triggers undefined behavior).  The SAT half has a *model*, and a model
is an input vector.  This module extracts it, maps it onto interpreter
inputs, and replays the function concretely on both sides of the
two-compiler divide:

1. solve ``H ∧ (⋁ U_d over the reported minimal set)`` for a model — an
   input that reaches the fragment *and* trips the reported UB (falling
   back to plain ``H`` when the strengthened query is not satisfiable
   within budget),
2. run the function as written under that input, recording concrete UB
   events (:mod:`repro.exec.ubdetect`),
3. run a clone optimized by the full UB-exploiting pipeline
   (:mod:`repro.compilers`) under the *same* input and external world,
4. compare.

A diagnostic is **confirmed** when the witness concretely triggers at least
one UB condition from the reported minimal set — the optimizer is then
entitled to any divergence the replay observed, which is exactly the
paper's argument for why the warning matters.  A witness that triggers no
reported UB marks the diagnostic a probable false positive
(**unconfirmed**); a divergence *without* any UB would be a miscompile and
is surfaced in the report's reason.  Budget exhaustion (no model, fuel) is
**inconclusive**.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compilers.passes import Capability
from repro.compilers.pipeline import OptimizationPipeline
from repro.core.encode import FunctionEncoder
from repro.core.report import Counters, Diagnostic
from repro.core.ubconditions import UBCondition, UBKind
from repro.exec.clone import clone_function
from repro.exec.interp import ExecResult, ExecStatus, ExternalEnv, run_function
from repro.ir.function import Function
from repro.ir.instructions import Call, Load
from repro.obs.trace import span
from repro.solver.solver import DEFAULT_MAX_PROPAGATIONS, CheckResult, Solver
from repro.solver.terms import Term


class WitnessVerdict(enum.Enum):
    """Outcome of replaying one diagnostic's witness."""

    CONFIRMED = "confirmed"            # witness trips the reported UB concretely
    UNCONFIRMED = "unconfirmed"        # replayed, but no reported UB fired
    INCONCLUSIVE = "inconclusive"      # no model / out of fuel / trap


@dataclass
class WitnessReport:
    """The concrete evidence attached to one diagnostic."""

    verdict: WitnessVerdict
    reason: str = ""
    #: Function inputs the witness used (argument name -> bit pattern).
    inputs: Dict[str, int] = field(default_factory=dict)
    observed_kinds: Tuple[UBKind, ...] = ()
    reported_kinds: Tuple[UBKind, ...] = ()
    diverged: bool = False
    pre: Optional[Tuple[str, Optional[int]]] = None    # observable() pairs
    post: Optional[Tuple[str, Optional[int]]] = None

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON view for the engine's result sink."""
        return {
            "verdict": self.verdict.value,
            "reason": self.reason,
            "inputs": {name: value for name, value in sorted(self.inputs.items())},
            "observed_kinds": [kind.value for kind in self.observed_kinds],
            "reported_kinds": [kind.value for kind in self.reported_kinds],
            "diverged": self.diverged,
            "pre": list(self.pre) if self.pre is not None else None,
            "post": list(self.post) if self.post is not None else None,
        }

    def describe(self) -> str:
        inputs = ", ".join(f"{k}={v}" for k, v in sorted(self.inputs.items()))
        parts = [f"witness {self.verdict.value}"]
        if inputs:
            parts.append(f"on inputs [{inputs}]")
        if self.diverged:
            parts.append("(pre/post optimization runs diverge)")
        if self.reason:
            parts.append(f"- {self.reason}")
        return " ".join(parts)


#: Every UB-exploiting capability at once: the "second compiler" of the
#: paper's model, maximally entitled to exploit the well-defined assumption.
FULL_CAPABILITIES = frozenset(Capability)


def solve_witness_model(
        encoder: FunctionEncoder, hypothesis: Sequence[Term],
        conditions: Sequence[UBCondition],
        max_propagations: Optional[int] = DEFAULT_MAX_PROPAGATIONS,
) -> Optional[Dict[str, int]]:
    """A model of ``hypothesis`` that also trips a reported UB condition.

    First tries the strengthened query (hypothesis ∧ ⋁ U_d); if that is not
    satisfiable within budget, falls back to the plain hypothesis — whose
    satisfiability is what produced the finding in the first place.
    """
    manager = encoder.manager
    attempts: List[List[Term]] = []
    live = [c.condition for c in conditions
            if not (c.condition.is_const() and not c.condition.value)]
    if live:
        attempts.append(list(hypothesis) + [manager.or_(*live)])
    attempts.append(list(hypothesis))

    for terms in attempts:
        solver = Solver(manager, max_propagations=max_propagations)
        for term in terms:
            solver.add(term)
        for definition in encoder.definitions_for(*terms):
            solver.add(definition)
        if solver.check() is CheckResult.SAT:
            return solver.model().as_dict()
    return None


def model_to_inputs(encoder: FunctionEncoder,
                    model: Dict[str, int]) -> Tuple[List[int], Dict[str, int]]:
    """Split a model into argument values and external-value overrides.

    Arguments are looked up under the encoder's ``<fn>.arg.<name>`` naming.
    Loads and calls were encoded as fresh variables; whenever the model
    constrains one, the interpreter's external environment is overridden at
    the matching instruction (keyed by result name, which survives cloning
    and optimization), so the concrete run sees the world the solver chose.
    """
    function = encoder.function
    args = [model.get(f"{function.name}.arg.{argument.name}", 0)
            for argument in function.arguments]

    overrides: Dict[str, int] = {}
    for inst in function.instructions():
        if not isinstance(inst, (Load, Call)) or inst.type.is_void():
            continue
        if not inst.name:
            continue
        term = encoder.term(inst)
        if term.is_var() and term.name in model:
            overrides[inst.name] = model[term.name]
    return args, overrides


def replay_model(function: Function, encoder: FunctionEncoder,
                 model: Dict[str, int], seed: int = 0,
                 ) -> Tuple[List[int], ExecResult, ExecResult]:
    """Run ``function`` on ``model``'s inputs before and after the
    full-capability pipeline, in one external world.

    ``encoder`` encodes the function the model was solved for; its
    arguments and external values give the inputs.  Returns the argument
    values and the two runs.  Stage 5 replays a diagnostic's own function
    this way, and the repair verifier's replay gate replays the patch.
    """
    args, overrides = model_to_inputs(encoder, model)
    env = ExternalEnv(seed=seed, overrides=overrides, zero_fill=True)
    pre = run_function(function, args, env=env)
    optimized = clone_function(function)
    OptimizationPipeline(capabilities=set(FULL_CAPABILITIES)).run_function(
        optimized)
    post = run_function(optimized, args, env=env)
    return args, pre, post


def replay_diagnostic(
        function: Function, encoder: FunctionEncoder,
        diagnostic: Diagnostic, hypothesis: Sequence[Term],
        conditions: Sequence[UBCondition],
        max_propagations: Optional[int] = DEFAULT_MAX_PROPAGATIONS,
        seed: int = 0) -> WitnessReport:
    """Extract a witness for one diagnostic and replay it pre/post optimizer."""
    reported = tuple(dict.fromkeys(diagnostic.ub_kinds)) or \
        tuple(dict.fromkeys(c.kind for c in conditions))

    model = solve_witness_model(encoder, hypothesis, conditions,
                                max_propagations=max_propagations)
    if model is None:
        return WitnessReport(WitnessVerdict.INCONCLUSIVE,
                             reason="no satisfying model within budget",
                             reported_kinds=reported)

    args, pre, post = replay_model(function, encoder, model, seed=seed)
    inputs = {argument.name: value
              for argument, value in zip(function.arguments, args)}
    return _judge(pre, post, inputs, reported)


def _judge(pre: ExecResult, post: ExecResult, inputs: Dict[str, int],
           reported: Tuple[UBKind, ...]) -> WitnessReport:
    report = WitnessReport(WitnessVerdict.INCONCLUSIVE, inputs=inputs,
                           observed_kinds=tuple(dict.fromkeys(
                               e.kind for e in pre.events)),
                           reported_kinds=reported,
                           pre=pre.observable(), post=post.observable())
    for label, result in (("replay", pre), ("optimized replay", post)):
        if result.status in (ExecStatus.OUT_OF_FUEL, ExecStatus.TRAPPED):
            # A starved or trapped run on either side is a budget artifact,
            # not evidence of divergence.
            report.reason = f"{label} {result.status.value}" + \
                (f": {result.error}" if result.error else "")
            return report
    report.diverged = pre.observable() != post.observable()

    observed = set(report.observed_kinds)
    if observed & set(reported):
        report.verdict = WitnessVerdict.CONFIRMED
        report.reason = ("witness triggers the reported undefined behavior"
                         + ("; optimized code diverges" if report.diverged
                            else "; optimizer left the fragment intact"))
    elif observed:
        report.verdict = WitnessVerdict.UNCONFIRMED
        report.reason = ("witness triggers only undefined behavior outside "
                         "the reported set")
    else:
        report.verdict = WitnessVerdict.UNCONFIRMED
        report.reason = "witness triggers no undefined behavior" + \
            ("; divergence without UB would be a miscompile"
             if report.diverged else " — probable false positive")
    return report


def validate_diagnostics(
        function: Function, encoder: FunctionEncoder,
        findings: Sequence[Tuple[Diagnostic, Sequence[Term],
                                 Sequence[UBCondition]]],
        counters: Counters,
        max_propagations: Optional[int] = DEFAULT_MAX_PROPAGATIONS,
        seed: int = 0) -> None:
    """Stage-5 entry point used by the checker.

    Replays every ``(diagnostic, hypothesis, conditions)`` triple, attaches
    the :class:`WitnessReport` to the diagnostic, and counts each verdict
    and the time spent into ``counters`` (the function's report).
    ``seed`` feeds the replay's :class:`ExternalEnv` so CLI and library runs
    reproduce bit for bit.
    """
    started = time.monotonic()
    for diagnostic, hypothesis, conditions in findings:
        with span("witness.replay") as replay_span:
            witness = replay_diagnostic(function, encoder, diagnostic,
                                        hypothesis, conditions,
                                        max_propagations=max_propagations,
                                        seed=seed)
            replay_span.set_arg("verdict", witness.verdict.value)
        diagnostic.witness = witness
        if witness.verdict is WitnessVerdict.CONFIRMED:
            counters.witnesses_confirmed += 1
        elif witness.verdict is WitnessVerdict.UNCONFIRMED:
            counters.witnesses_unconfirmed += 1
        else:
            counters.witnesses_inconclusive += 1
    counters.witness_time += time.monotonic() - started
