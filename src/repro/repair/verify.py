"""The three-gate patch verifier: no candidate ships unproven.

A template proposal is only a hypothesis.  Before a patch is reported it
must clear, in order:

1. **Solver equivalence** (:func:`prove_equivalence`) — a single QF_BV
   query proving the patched function returns the same value as the
   original on every input whose *original* execution is free of undefined
   behavior.  Both functions are encoded into one shared
   :class:`~repro.solver.terms.TermManager`; arguments are equated, the
   external world is correlated the same way the witness layer does it
   (loads, external calls, allocas, and undefs match up by result name,
   partially-axiomatized divisions by operand congruence), the
   reachability-guarded well-defined assumption ``⋀ (reach(d) → ¬U_d)`` of
   the original is assumed, and ``ret_original ≠ ret_patched`` must come
   back UNSAT.  SAT means the template changed defined behavior; UNKNOWN
   (budget) is treated as a rejection — never as a pass.
2. **Stability re-check** (:func:`recheck_stability`) — the patched
   function is run back through the full :class:`StackChecker`, both as
   written and after each built-in :class:`CompilerProfile`'s most
   aggressive (-O3) pass pipeline, and must produce zero diagnostics every
   time.  Profiles with identical -O3 capability sets are checked once.
3. **Witness replay** (:func:`replay_original_witness`) — the solver model
   that justified the diagnostic (the input that trips the reported UB in
   the original) is replayed through the interpreter on the patched
   function, before and after the maximally UB-exploiting pipeline, and
   the two runs must agree: the very input that exposed the original
   instability can no longer make compilers disagree about the patch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compilers.pipeline import OptimizationPipeline
from repro.compilers.profiles import ALL_PROFILES, CompilerProfile
from repro.core.encode import FunctionEncoder
from repro.exec.clone import clone_function
from repro.exec.interp import ExecStatus
from repro.exec.witness import replay_model
from repro.ir.function import Function
from repro.ir.instructions import Alloca, BinaryOp, BinOpKind, Call, Instruction, Load
from repro.ir.values import GlobalVariable, UndefValue
from repro.ir.verifier import verify_function
from repro.solver.solver import DEFAULT_MAX_PROPAGATIONS, CheckResult, Solver
from repro.solver.terms import Term, TermManager


@dataclass
class GateResult:
    """Outcome of one verification gate."""

    gate: str
    passed: bool
    reason: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {"gate": self.gate, "passed": self.passed, "reason": self.reason}

    def describe(self) -> str:
        verdict = "passed" if self.passed else "REJECTED"
        return f"{self.gate}: {verdict}" + (f" — {self.reason}"
                                            if self.reason else "")


_DIVISION_KINDS = (BinOpKind.SDIV, BinOpKind.UDIV,
                   BinOpKind.SREM, BinOpKind.UREM)


def return_term(encoder: FunctionEncoder) -> Optional[Term]:
    """The function's return value as one term: an ite-chain over returns."""
    manager = encoder.manager
    pairs: List[Tuple[Term, Term]] = []
    for inst in encoder.function.returns():
        if inst.value is None or inst.parent is None:
            return None
        pairs.append((encoder.block_reach(inst.parent),
                      encoder.term(inst.value)))
    if not pairs:
        return None
    result = pairs[-1][1]
    for reach, value in reversed(pairs[:-1]):
        result = manager.ite(reach, value, result)
    return result


def _external_world_correlation(enc_a: FunctionEncoder,
                                enc_b: FunctionEncoder) -> List[Term]:
    """Constraints making both encodings see one external world.

    Mirrors :meth:`repro.exec.interp.Interpreter._key`: loads, external
    calls, and allocas are correlated by result name, undef values and
    globals by object identity (clones share them), and partially
    axiomatized division results by operand congruence — same operands,
    same quotient.
    """
    original, patched = enc_a.function, enc_b.function
    manager = enc_a.manager
    constraints: List[Term] = []

    for arg_a, arg_b in zip(original.arguments, patched.arguments):
        constraints.append(manager.eq(enc_a.term(arg_a), enc_b.term(arg_b)))

    def named_externals(function: Function) -> Dict[str, Instruction]:
        out: Dict[str, Instruction] = {}
        for inst in function.instructions():
            if isinstance(inst, (Load, Alloca)) and inst.name:
                out[inst.name] = inst
            elif isinstance(inst, Call) and inst.name \
                    and not inst.type.is_void() \
                    and inst.callee not in FunctionEncoder.PURE_LIBRARY_FUNCTIONS:
                out[inst.name] = inst
        return out

    externals_b = named_externals(patched)
    for name, inst_a in named_externals(original).items():
        inst_b = externals_b.get(name)
        if inst_b is None or type(inst_a) is not type(inst_b):
            continue
        constraints.append(manager.eq(enc_a.term(inst_a), enc_b.term(inst_b)))

    divisions_b = {inst.name: inst for inst in patched.instructions()
                   if isinstance(inst, BinaryOp)
                   and inst.kind in _DIVISION_KINDS and inst.name}
    for inst_a in original.instructions():
        if not (isinstance(inst_a, BinaryOp)
                and inst_a.kind in _DIVISION_KINDS and inst_a.name):
            continue
        inst_b = divisions_b.get(inst_a.name)
        if inst_b is None or inst_b.kind is not inst_a.kind:
            continue
        same_operands = manager.and_(
            manager.eq(enc_a.term(inst_a.lhs), enc_b.term(inst_b.lhs)),
            manager.eq(enc_a.term(inst_a.rhs), enc_b.term(inst_b.rhs)))
        constraints.append(manager.implies(
            same_operands,
            manager.eq(enc_a.term(inst_a), enc_b.term(inst_b))))

    shared: List = []
    for inst in original.instructions():
        for operand in inst.operands:
            if isinstance(operand, (UndefValue, GlobalVariable)):
                shared.append(operand)
    for value in shared:
        if any(value in inst.operands for inst in patched.instructions()):
            constraints.append(manager.eq(enc_a.term(value),
                                          enc_b.term(value)))
    return constraints


def well_defined_original(enc_a: FunctionEncoder) -> List[Term]:
    """⋀ (reach(d) → ¬U_d) over every instruction of the original."""
    manager = enc_a.manager
    assumptions: List[Term] = []
    for inst in enc_a.function.instructions():
        for condition in enc_a.ub_conditions(inst):
            assumptions.append(manager.implies(
                enc_a.instruction_reach(inst),
                manager.not_(condition.condition)))
    return assumptions


def equivalence_query(enc_a: FunctionEncoder, enc_b: FunctionEncoder,
                      ret_a: Term, ret_b: Term, well_defined: Sequence[Term],
                      max_propagations: Optional[int],
                      ) -> CheckResult:
    """Solve ``ret_a ≠ ret_b`` under one external world and ``well_defined``.

    Both encoders share one manager.  UNSAT proves the two functions return
    the same value on every input the assumptions allow.  The terms go to
    the solver in a fixed order (correlation, well-definedness, the
    disequality, then each encoder's definitions), so a query repeats its
    verdict and its search.
    """
    manager = enc_a.manager
    terms: List[Term] = []
    terms.extend(_external_world_correlation(enc_a, enc_b))
    terms.extend(well_defined)
    terms.append(manager.distinct(ret_a, ret_b))

    solver = Solver(manager, max_propagations=max_propagations)
    for term in terms:
        solver.add(term)
    for definitions in (enc_a.definitions_for(*terms),
                        enc_b.definitions_for(*terms)):
        for definition in definitions:
            solver.add(definition)
    return solver.check()


def prove_equivalence(
        original: Function, patched: Function,
        max_propagations: Optional[int] = DEFAULT_MAX_PROPAGATIONS,
) -> GateResult:
    """Gate 1: original ≡ patched on every UB-free input of the original."""
    gate = "solver-equivalence"
    # Both functions are encoded under the same name into one manager, so
    # every unchanged subexpression hash-conses to the *same* term and the
    # disequality collapses onto the rewritten part.  A disjoint serial
    # range keeps the patched side's fresh variables (loads, calls, divs)
    # distinct; the correlation constraints tie them back together
    # explicitly and soundly.
    manager = TermManager()
    enc_a = FunctionEncoder(original, manager)
    enc_b = FunctionEncoder(patched, manager, serial_start=1_000_000)

    ret_a = return_term(enc_a)
    ret_b = return_term(enc_b)
    if ret_a is None or ret_b is None:
        return GateResult(gate, False,
                          "function has no return value to compare")
    if ret_a.width != ret_b.width:
        return GateResult(gate, False, "return widths differ")

    verdict = equivalence_query(enc_a, enc_b, ret_a, ret_b,
                                well_defined_original(enc_a),
                                max_propagations)
    if verdict is CheckResult.UNSAT:
        return GateResult(gate, True,
                          "patched function proven equivalent on all "
                          "UB-free inputs")
    if verdict is CheckResult.SAT:
        return GateResult(gate, False,
                          "patched function differs from the original on a "
                          "UB-free input")
    return GateResult(gate, False, "equivalence query exceeded the solver "
                                   "budget")


def _unique_capability_sets(profiles: Sequence[CompilerProfile],
                            level: int = 3):
    """-O3 capability sets, deduplicated, each tagged with a profile name."""
    seen = {}
    for profile in profiles:
        capabilities = frozenset(profile.capabilities_at(level))
        seen.setdefault(capabilities, profile.name)
    return sorted(seen.items(), key=lambda item: item[1])


def recheck_stability(patched: Function, config,
                      profiles: Sequence[CompilerProfile] = tuple(ALL_PROFILES),
                      cache=None) -> GateResult:
    """Gate 2: zero diagnostics, as written and after every profile's -O3."""
    from repro.core.checker import StackChecker

    gate = "stability-recheck"
    recheck_config = dataclasses.replace(
        config, repair=False, validate_witnesses=False, classify=False,
        minimize_ub_sets=False)
    checker = StackChecker(recheck_config, query_cache=cache)

    report = checker.check_function(clone_function(patched))
    if report.diagnostics:
        return GateResult(gate, False,
                          f"patched function is still flagged "
                          f"({len(report.diagnostics)} diagnostic(s))")
    if report.timeouts:
        return GateResult(gate, False,
                          "re-check hit the solver budget; stability unproven")

    for capabilities, profile_name in _unique_capability_sets(profiles):
        optimized = clone_function(patched)
        OptimizationPipeline(capabilities=set(capabilities)).run_function(
            optimized)
        problems = verify_function(optimized)
        if problems:
            return GateResult(gate, False,
                              f"{profile_name} -O3 output fails the IR "
                              f"verifier: {problems[0]}")
        report = checker.check_function(optimized)
        if report.diagnostics:
            return GateResult(gate, False,
                              f"still flagged after the {profile_name} -O3 "
                              f"pipeline")
        if report.timeouts:
            return GateResult(gate, False,
                              f"re-check after {profile_name} -O3 hit the "
                              f"solver budget")
    checked = len(_unique_capability_sets(profiles))
    return GateResult(gate, True,
                      f"no diagnostics as written or under {checked} "
                      f"distinct -O3 capability sets "
                      f"({len(profiles)} profiles)")


def replay_original_witness(
        patched: Function, encoder: FunctionEncoder, model: Dict[str, int],
        seed: int = 0,
) -> GateResult:
    """Gate 3: the diagnostic's own witness no longer splits the compilers.

    ``model`` is the original's witness model (``encoder`` encodes the
    original).  It depends only on the diagnostic, not the candidate, so
    the orchestrator solves it once per diagnostic.
    """
    gate = "witness-replay"
    args, pre, post = replay_model(patched, encoder, model, seed=seed)
    for label, result in (("unoptimized", pre), ("optimized", post)):
        if result.status in (ExecStatus.OUT_OF_FUEL, ExecStatus.TRAPPED):
            return GateResult(gate, False,
                              f"{label} replay {result.status.value}"
                              + (f": {result.error}" if result.error else ""))
    if pre.observable() != post.observable():
        return GateResult(gate, False,
                          f"witness still diverges pre/post optimization: "
                          f"{pre.observable()} vs {post.observable()}")
    inputs = ", ".join(f"{argument.name}={value}" for argument, value
                       in zip(patched.arguments, args))
    return GateResult(gate, True,
                      f"original witness [{inputs}] agrees pre/post the "
                      f"full UB-exploiting pipeline")
