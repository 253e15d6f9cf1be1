"""Stage 6 orchestration: propose, verify, and report patches.

For every diagnostic the checker hands over, :func:`repair_diagnostic`
asks the template library for candidates and pushes each one through the
three-gate verifier in order (solver equivalence → stability re-check →
witness replay).  The first candidate to clear all three gates becomes the
diagnostic's :class:`RepairReport`, carrying a unified before/after IR diff
of the patched function.  Candidates are cheap and gates are expensive, so
gate order matters: the equivalence query kills semantically wrong
proposals before any profile re-checks run.

A diagnostic with no matching template is reported ``no template`` — an
honest gap, not a failure; one whose every candidate dies in a gate is
``rejected`` with per-gate counts, which the experiments tabulate as the
template library's error bars.
"""

from __future__ import annotations

import difflib
import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.encode import FunctionEncoder
from repro.core.report import Counters, Diagnostic
from repro.core.ubconditions import UBCondition
from repro.exec.witness import solve_witness_model
from repro.ir.function import Function
from repro.ir.printer import print_function
from repro.obs.trace import span
from repro.repair.templates import DEFAULT_TEMPLATES, propose_candidates
from repro.repair.verify import (
    GateResult,
    prove_equivalence,
    recheck_stability,
    replay_original_witness,
)
from repro.solver.terms import Term

#: Gate keys, in verification order (also the sink/report vocabulary).
GATES = ("equivalence", "recheck", "replay")


class RepairStatus(enum.Enum):
    """Outcome of attempting to repair one diagnostic."""

    REPAIRED = "repaired"          # a candidate cleared all three gates
    REJECTED = "rejected"          # candidates existed; every one failed a gate
    NO_TEMPLATE = "no template"    # the library had nothing to propose


@dataclass
class RepairReport:
    """The repair verdict attached to one diagnostic."""

    status: RepairStatus
    template: str = ""
    description: str = ""
    #: Unified diff of the printed IR, original → patched.
    patch: str = ""
    reason: str = ""
    candidates_tried: int = 0
    #: Gate results of the *winning* candidate (all passed), or of the last
    #: rejected candidate (for post-mortems).
    gates: List[GateResult] = field(default_factory=list)
    #: gate key -> how many candidates that gate rejected.
    gate_rejections: Dict[str, int] = field(default_factory=dict)

    @property
    def repaired(self) -> bool:
        return self.status is RepairStatus.REPAIRED

    @property
    def all_gates_passed(self) -> bool:
        return len(self.gates) == len(GATES) and \
            all(gate.passed for gate in self.gates)

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON view for the engine's result sink."""
        return {
            "status": self.status.value,
            "template": self.template,
            "description": self.description,
            "patch": self.patch,
            "reason": self.reason,
            "candidates_tried": self.candidates_tried,
            "gates": [gate.as_dict() for gate in self.gates],
            "gate_rejections": dict(sorted(self.gate_rejections.items())),
        }

    def describe(self) -> str:
        if self.status is RepairStatus.REPAIRED:
            return (f"repair: {self.template} — {self.description} "
                    f"(all {len(self.gates)} gates passed)")
        if self.status is RepairStatus.REJECTED:
            rejections = ", ".join(f"{gate}={count}" for gate, count
                                   in sorted(self.gate_rejections.items()))
            return (f"repair: rejected after {self.candidates_tried} "
                    f"candidate(s) [{rejections}] — {self.reason}")
        return "repair: no template applies"


def unified_patch(original: Function, patched: Function) -> str:
    """A unified diff of the printed IR, the ``--patch-out`` payload."""
    before = print_function(original).splitlines(keepends=True)
    after = print_function(patched).splitlines(keepends=True)
    name = original.name
    diff = difflib.unified_diff(before, after,
                                fromfile=f"a/{name}.ll",
                                tofile=f"b/{name}.ll", lineterm="\n")
    text = "".join(line if line.endswith("\n") else line + "\n"
                   for line in diff)
    return text


def repair_diagnostic(function: Function, encoder: FunctionEncoder,
                      diagnostic: Diagnostic, finding,
                      hypothesis: Sequence[Term],
                      conditions: Sequence[UBCondition],
                      config, cache=None,
                      templates: Sequence = DEFAULT_TEMPLATES,
                      gate_memo: Optional[Dict[str, Tuple[GateResult,
                                                          Optional[GateResult]]]]
                      = None) -> RepairReport:
    """Propose and verify patches for one diagnostic (see module docstring).

    ``gate_memo`` caches equivalence/re-check results by patched-IR text:
    the elimination and simplification diagnostics of one unstable check
    usually propose the *same* candidate, whose first two gates depend only
    on the patched function — only the witness replay (gate 3) is specific
    to the diagnostic and always runs.
    """
    candidates = propose_candidates(function, diagnostic, finding,
                                    templates=templates)
    if not candidates:
        return RepairReport(RepairStatus.NO_TEMPLATE,
                            reason="no repair template matches this "
                                   "diagnostic")

    # The replay gate's witness model depends only on the diagnostic, not
    # on the candidate: solve it at most once, when the first candidate
    # reaches gate 3.
    witness_model_memo: List[Optional[Dict[str, int]]] = []

    def witness_model() -> Optional[Dict[str, int]]:
        if not witness_model_memo:
            witness_model_memo.append(solve_witness_model(
                encoder, hypothesis, conditions,
                max_propagations=config.max_propagations))
        return witness_model_memo[0]

    rejections: Dict[str, int] = {}
    last_gates: List[GateResult] = []
    last_reason = ""
    # The equivalence proof is one query standing in for a hand-written
    # patch review, so it gets four times the per-query budget.
    equivalence_budget = None if config.max_propagations is None \
        else config.max_propagations * 4
    for candidate in candidates:
        gates: List[GateResult] = []
        memo_key = None
        memoised: Optional[Tuple[GateResult, Optional[GateResult]]] = None
        if gate_memo is not None:
            memo_key = f"{candidate.template}\n" + \
                print_function(candidate.patched)
            memoised = gate_memo.get(memo_key)

        if memoised is not None:
            equivalence, recheck = memoised
        else:
            with span("repair.gate.equivalence", template=candidate.template):
                equivalence = prove_equivalence(
                    function, candidate.patched,
                    max_propagations=equivalence_budget)
            recheck = None
            if equivalence.passed:
                with span("repair.gate.recheck", template=candidate.template):
                    recheck = recheck_stability(candidate.patched, config,
                                                cache=cache)
            if gate_memo is not None and memo_key is not None:
                gate_memo[memo_key] = (equivalence, recheck)

        gates.append(equivalence)
        if not equivalence.passed:
            rejections["equivalence"] = rejections.get("equivalence", 0) + 1
            last_gates, last_reason = gates, equivalence.reason
            continue

        assert recheck is not None
        gates.append(recheck)
        if not recheck.passed:
            rejections["recheck"] = rejections.get("recheck", 0) + 1
            last_gates, last_reason = gates, recheck.reason
            continue

        model = witness_model()
        if model is None:
            replay = GateResult("witness-replay", False,
                                "no witness model within the solver budget")
        else:
            with span("repair.gate.replay", template=candidate.template):
                replay = replay_original_witness(
                    candidate.patched, encoder, model,
                    seed=config.witness_seed)
        gates.append(replay)
        if not replay.passed:
            rejections["replay"] = rejections.get("replay", 0) + 1
            last_gates, last_reason = gates, replay.reason
            continue

        return RepairReport(
            RepairStatus.REPAIRED,
            template=candidate.template,
            description=candidate.description,
            patch=unified_patch(function, candidate.patched),
            candidates_tried=len(candidates),
            gates=gates,
            gate_rejections=rejections)

    return RepairReport(
        RepairStatus.REJECTED,
        reason=last_reason or "every candidate failed verification",
        candidates_tried=len(candidates),
        gates=last_gates,
        gate_rejections=rejections)


#: The checker hands stage 6 one of these per diagnostic.
RepairWorkItem = Tuple[Diagnostic, object, Sequence[Term],
                       Sequence[UBCondition]]


def repair_diagnostics(function: Function, encoder: FunctionEncoder,
                       work: Sequence[RepairWorkItem], config,
                       counters: Counters, cache=None) -> None:
    """Stage-6 entry point used by the checker.

    Repairs every ``(diagnostic, finding, hypothesis, conditions)`` item,
    attaches the :class:`RepairReport` to the diagnostic, and counts each
    outcome, each gate rejection and the time spent into ``counters`` (the
    function's report).
    """
    started = time.monotonic()
    gate_memo: Dict[str, Tuple[GateResult, Optional[GateResult]]] = {}
    for diagnostic, finding, hypothesis, conditions in work:
        report = repair_diagnostic(function, encoder, diagnostic, finding,
                                   hypothesis, conditions, config,
                                   cache=cache, gate_memo=gate_memo)
        diagnostic.repair = report
        counters.repairs_attempted += 1
        if report.status is RepairStatus.REPAIRED:
            counters.repairs_succeeded += 1
        elif report.status is RepairStatus.REJECTED:
            counters.repairs_rejected += 1
        else:
            counters.repairs_no_template += 1
        rejections = report.gate_rejections
        counters.repair_gate_equivalence_rejects += \
            rejections.get("equivalence", 0)
        counters.repair_gate_recheck_rejects += rejections.get("recheck", 0)
        counters.repair_gate_replay_rejects += rejections.get("replay", 0)
    counters.repair_time += time.monotonic() - started
