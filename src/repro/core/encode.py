"""Encoding of IR into solver terms: values, reachability, UB conditions.

This module is the bridge between the IR substrate and the constraint solver.
For one function it provides:

* ``term(value)`` — the bit-vector term denoting an SSA value,
* ``block_reach(block)`` / ``edge_condition(pred, succ)`` — the reachability
  condition R'_e(x) of §4.4, computed within the function with back edges
  dropped (the paper's approximate reachability, in the spirit of the gated
  SSA construction of Tu and Padua that STACK uses),
* ``ub_conditions(inst)`` — the undefined-behavior conditions of Figure 3
  attached to each instruction (the ``bug_on`` insertion of §4.3),
* ``well_defined_over(instructions)`` — the dominator-scoped well-defined
  program assumption ⋀ ¬U_d of equation (5).

Division is encoded with a partial axiomatization (result values are fresh
variables constrained by implications such as ``b == -1 → q == -a``) rather
than a full divider circuit; this keeps queries small for the pure-Python SAT
solver while still deciding the paper's division examples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ir.cfg import back_edges
from repro.ir.dominators import DominatorTree
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    BinOpKind,
    Branch,
    Call,
    Cast,
    CastKind,
    CondBranch,
    GetElementPtr,
    ICmp,
    ICmpPred,
    Instruction,
    Load,
    Phi,
    Return,
    Select,
    Store,
    Unreachable,
)
from repro.ir.values import Argument, Constant, UndefValue, Value
from repro.core.ubconditions import UBCondition, UBKind
from repro.solver.terms import Term, TermManager


class FunctionEncoder:
    """Encodes one IR function into solver terms."""

    #: Library functions whose return value the encoder models precisely.
    PURE_LIBRARY_FUNCTIONS = {"abs", "labs"}

    def __init__(self, function: Function,
                 manager: Optional[TermManager] = None,
                 serial_start: int = 0) -> None:
        self.function = function
        self.manager = manager if manager is not None else TermManager()
        self.dominators = DominatorTree(function)
        self._back_edges = back_edges(function)
        self._terms: Dict[int, Term] = {}
        self._reach: Dict[int, Term] = {}
        self._ub: Dict[int, List[UBCondition]] = {}
        self._definitions: Dict[str, List[Term]] = {}
        # Two encoders can share one manager (the repair equivalence gate
        # encodes original and patched side by side): a distinct serial
        # range keeps their fresh variables from accidentally unifying,
        # while same-named arguments still hash-cons to shared terms.
        self._serial = serial_start
        self._freed_pointers: List[Tuple[Call, Value, str]] = []
        self._collect_lifetime_events()

    # -- helpers -----------------------------------------------------------------

    def _fresh_name(self, prefix: str) -> str:
        self._serial += 1
        return f"{self.function.name}.{prefix}.{self._serial}"

    def _fresh_var(self, prefix: str, width: int) -> Term:
        return self.manager.bv_var(self._fresh_name(prefix), width)

    @staticmethod
    def _width_of(value: Value) -> int:
        return value.type.bit_width

    def _resize(self, term: Term, width: int, signed: bool = False) -> Term:
        """Adjust a term to ``width`` bits (defensive width reconciliation)."""
        if term.width == width:
            return term
        if term.width > width:
            return self.manager.extract(term, width - 1, 0)
        extra = width - term.width
        return self.manager.sext(term, extra) if signed else self.manager.zext(term, extra)

    # -- value encoding -----------------------------------------------------------

    def term(self, value: Value) -> Term:
        """The bit-vector term for an SSA value."""
        cached = self._terms.get(id(value))
        if cached is not None:
            return cached
        term = self._encode_value(value)
        self._terms[id(value)] = term
        return term

    def bool_term(self, value: Value) -> Term:
        """A boolean term that is true iff ``value`` is non-zero."""
        term = self.term(value)
        zero = self.manager.bv_const(0, term.width)
        return self.manager.distinct(term, zero)

    def _encode_value(self, value: Value) -> Term:
        mgr = self.manager
        if isinstance(value, Constant):
            return mgr.bv_const(value.value, self._width_of(value))
        if isinstance(value, Argument):
            return mgr.bv_var(f"{self.function.name}.arg.{value.name}",
                              self._width_of(value))
        if isinstance(value, UndefValue):
            return self._fresh_var(f"undef.{value.name}", self._width_of(value))
        if isinstance(value, Instruction):
            return self._encode_instruction(value)
        if isinstance(value, BasicBlock):
            raise TypeError("basic blocks have no term encoding")
        # Globals and anything else: unconstrained.
        return self._fresh_var(f"opaque.{value.name or 'value'}",
                               self._width_of(value))

    def _encode_instruction(self, inst: Instruction) -> Term:
        mgr = self.manager
        if isinstance(inst, BinaryOp):
            return self._encode_binop(inst)
        if isinstance(inst, ICmp):
            cmp_bool = self._icmp_bool(inst)
            one = mgr.bv_const(1, 1)
            zero = mgr.bv_const(0, 1)
            return mgr.ite(cmp_bool, one, zero)
        if isinstance(inst, Select):
            cond = self.bool_term(inst.condition)
            then = self.term(inst.on_true)
            els = self._resize(self.term(inst.on_false), then.width, signed=True)
            return mgr.ite(cond, then, els)
        if isinstance(inst, Cast):
            return self._encode_cast(inst)
        if isinstance(inst, Load):
            return self._fresh_var(f"load.{inst.name or 'mem'}", self._width_of(inst))
        if isinstance(inst, Alloca):
            # The address of a stack slot: unconstrained but non-null.
            address = self._fresh_var(f"alloca.{inst.name or 'slot'}",
                                      self._width_of(inst))
            zero = mgr.bv_const(0, address.width)
            self._definitions.setdefault(address.name, []).append(
                mgr.distinct(address, zero))
            return address
        if isinstance(inst, GetElementPtr):
            return self._encode_gep(inst)
        if isinstance(inst, Call):
            return self._encode_call(inst)
        if isinstance(inst, Phi):
            return self._encode_phi(inst)
        if isinstance(inst, (Store, Branch, CondBranch, Return, Unreachable)):
            raise TypeError(f"{type(inst).__name__} has no value")
        return self._fresh_var(f"unknown.{inst.opcode()}", self._width_of(inst))

    _BINOP_BUILDERS = {
        BinOpKind.ADD: "bvadd", BinOpKind.SUB: "bvsub", BinOpKind.MUL: "bvmul",
        BinOpKind.AND: "bvand", BinOpKind.OR: "bvor", BinOpKind.XOR: "bvxor",
        BinOpKind.SHL: "bvshl", BinOpKind.LSHR: "bvlshr", BinOpKind.ASHR: "bvashr",
    }

    def _encode_binop(self, inst: BinaryOp) -> Term:
        mgr = self.manager
        lhs = self.term(inst.lhs)
        rhs = self._resize(self.term(inst.rhs), lhs.width, signed=True)
        builder_name = self._BINOP_BUILDERS.get(inst.kind)
        if builder_name is not None:
            return getattr(mgr, builder_name)(lhs, rhs)
        if inst.kind in (BinOpKind.SDIV, BinOpKind.UDIV,
                         BinOpKind.SREM, BinOpKind.UREM):
            return self._encode_division(inst, lhs, rhs)
        raise NotImplementedError(f"unhandled binary op {inst.kind}")

    def _encode_division(self, inst: BinaryOp, lhs: Term, rhs: Term) -> Term:
        mgr = self.manager
        width = lhs.width
        result = self._fresh_var(f"div.{inst.name or inst.kind.value}", width)
        zero = mgr.bv_const(0, width)
        one = mgr.bv_const(1, width)
        minus_one = mgr.bv_const(-1, width)
        axioms: List[Term] = []
        if inst.kind is BinOpKind.SDIV:
            axioms.append(mgr.implies(mgr.eq(rhs, one), mgr.eq(result, lhs)))
            axioms.append(mgr.implies(mgr.eq(rhs, minus_one),
                                      mgr.eq(result, mgr.bvneg(lhs))))
            axioms.append(mgr.implies(
                mgr.and_(mgr.eq(lhs, zero), mgr.distinct(rhs, zero)),
                mgr.eq(result, zero)))
            # Sign relation: a>0, b>0 -> q >= 0 ; a<0, b>0, b != 0 -> q <= 0
            axioms.append(mgr.implies(
                mgr.and_(mgr.bvsge(lhs, zero), mgr.bvsgt(rhs, zero)),
                mgr.bvsge(result, zero)))
            axioms.append(mgr.implies(
                mgr.and_(mgr.bvsle(lhs, zero), mgr.bvsgt(rhs, zero)),
                mgr.bvsle(result, zero)))
        elif inst.kind is BinOpKind.UDIV:
            axioms.append(mgr.implies(mgr.eq(rhs, one), mgr.eq(result, lhs)))
            axioms.append(mgr.implies(mgr.distinct(rhs, zero),
                                      mgr.bvule(result, lhs)))
            axioms.append(mgr.implies(
                mgr.and_(mgr.bvult(lhs, rhs), mgr.distinct(rhs, zero)),
                mgr.eq(result, zero)))
        elif inst.kind is BinOpKind.SREM:
            axioms.append(mgr.implies(mgr.eq(rhs, one), mgr.eq(result, zero)))
            axioms.append(mgr.implies(mgr.eq(rhs, minus_one), mgr.eq(result, zero)))
            axioms.append(mgr.implies(
                mgr.and_(mgr.eq(lhs, zero), mgr.distinct(rhs, zero)),
                mgr.eq(result, zero)))
            axioms.append(mgr.implies(
                mgr.and_(mgr.bvsge(lhs, zero), mgr.distinct(rhs, zero)),
                mgr.bvsge(result, zero)))
        else:  # UREM
            axioms.append(mgr.implies(mgr.eq(rhs, one), mgr.eq(result, zero)))
            axioms.append(mgr.implies(mgr.distinct(rhs, zero),
                                      mgr.bvult(result, rhs)))
            axioms.append(mgr.implies(
                mgr.and_(mgr.bvult(lhs, rhs), mgr.distinct(rhs, zero)),
                mgr.eq(result, lhs)))
        self._definitions.setdefault(result.name, []).extend(axioms)
        return result

    _ICMP_BUILDERS = {
        ICmpPred.EQ: "eq", ICmpPred.NE: "distinct",
        ICmpPred.ULT: "bvult", ICmpPred.ULE: "bvule",
        ICmpPred.UGT: "bvugt", ICmpPred.UGE: "bvuge",
        ICmpPred.SLT: "bvslt", ICmpPred.SLE: "bvsle",
        ICmpPred.SGT: "bvsgt", ICmpPred.SGE: "bvsge",
    }

    def _icmp_bool(self, inst: ICmp) -> Term:
        lhs = self.term(inst.lhs)
        rhs = self._resize(self.term(inst.rhs), lhs.width, signed=True)
        return getattr(self.manager, self._ICMP_BUILDERS[inst.pred])(lhs, rhs)

    def comparison_bool(self, inst: ICmp) -> Term:
        """Public accessor for the boolean meaning of an ICmp (for oracles)."""
        return self._icmp_bool(inst)

    def _encode_cast(self, inst: Cast) -> Term:
        mgr = self.manager
        source = self.term(inst.value)
        target_width = self._width_of(inst)
        if inst.kind is CastKind.TRUNC:
            return mgr.extract(source, target_width - 1, 0)
        if inst.kind is CastKind.ZEXT:
            return mgr.zext(source, target_width - source.width)
        if inst.kind is CastKind.SEXT:
            return mgr.sext(source, target_width - source.width)
        # ptrtoint / inttoptr / bitcast: representation-preserving.
        return self._resize(source, target_width, signed=False)

    def _encode_gep(self, inst: GetElementPtr) -> Term:
        mgr = self.manager
        pointer = self.term(inst.pointer)
        index = self._resize(self.term(inst.index), pointer.width, signed=True)
        scale = mgr.bv_const(inst.element_size, pointer.width)
        return mgr.bvadd(pointer, mgr.bvmul(index, scale))

    def _encode_call(self, inst: Call) -> Term:
        mgr = self.manager
        width = self._width_of(inst) if not inst.type.is_void() else 8
        if inst.callee in self.PURE_LIBRARY_FUNCTIONS and inst.args:
            arg = self.term(inst.args[0])
            zero = mgr.bv_const(0, arg.width)
            result = mgr.ite(mgr.bvslt(arg, zero), mgr.bvneg(arg), arg)
            return self._resize(result, width, signed=True)
        return self._fresh_var(f"call.{inst.callee}", width)

    def _encode_phi(self, inst: Phi) -> Term:
        mgr = self.manager
        width = self._width_of(inst)
        block = inst.parent
        result: Optional[Term] = None
        for value, pred in reversed(inst.incoming):
            if block is not None and (id(pred), id(block)) in self._back_edges:
                incoming_term: Term = self._fresh_var(
                    f"loopcarried.{inst.name}", width)
            else:
                incoming_term = self._resize(self.term(value), width, signed=True)
            if result is None:
                result = incoming_term
                continue
            cond = self.edge_condition(pred, block) if block is not None else mgr.true()
            result = mgr.ite(cond, incoming_term, result)
        if result is None:
            return self._fresh_var(f"phi.{inst.name}", width)
        return result

    # -- reachability ----------------------------------------------------------------

    def edge_condition(self, pred: BasicBlock, succ: BasicBlock) -> Term:
        """Condition under which control flows along the edge pred→succ."""
        mgr = self.manager
        term = pred.terminator
        reach = self.block_reach(pred)
        if isinstance(term, Branch):
            return reach
        if isinstance(term, CondBranch):
            if term.if_true is succ and term.if_false is succ:
                return reach
            cond = self.bool_term(term.condition)
            if term.if_true is succ:
                return mgr.and_(reach, cond)
            return mgr.and_(reach, mgr.not_(cond))
        return mgr.false()

    def block_reach(self, block: BasicBlock) -> Term:
        """Reachability condition of a block from the function entry (R'_e)."""
        cached = self._reach.get(id(block))
        if cached is not None:
            return cached
        mgr = self.manager
        if block is self.function.entry:
            result = mgr.true()
        else:
            incoming = []
            for pred in block.predecessors():
                if (id(pred), id(block)) in self._back_edges:
                    continue
                incoming.append(self.edge_condition(pred, block))
            result = mgr.or_(*incoming) if incoming else mgr.false()
        self._reach[id(block)] = result
        return result

    def instruction_reach(self, inst: Instruction) -> Term:
        if inst.parent is None:
            return self.manager.true()
        return self.block_reach(inst.parent)

    # -- undefined-behavior conditions ---------------------------------------------

    def ub_conditions(self, inst: Instruction) -> List[UBCondition]:
        """The UB conditions attached to one instruction (Figure 3 rows)."""
        cached = self._ub.get(id(inst))
        if cached is not None:
            return cached
        conditions = self._compute_ub(inst)
        self._ub[id(inst)] = conditions
        return conditions

    def _compute_ub(self, inst: Instruction) -> List[UBCondition]:
        mgr = self.manager
        out: List[UBCondition] = []
        if isinstance(inst, BinaryOp):
            out.extend(self._ub_binop(inst))
        elif isinstance(inst, (Load, Store)):
            pointer = inst.pointer
            # Dereferencing any address derived from a null base pointer is
            # undefined, so the condition applies to the *root* of the
            # GEP/cast chain (e.g. `req` for `req->status`), as STACK's
            # bug_on insertion does for member accesses.
            base = self._base_pointer(pointer)
            base_term = self.term(base)
            zero = mgr.bv_const(0, base_term.width)
            out.append(UBCondition(UBKind.NULL_DEREF, mgr.eq(base_term, zero), inst,
                                   note=f"dereference of {base.short_name()}"))
            out.extend(self._ub_lifetime(inst, pointer))
        elif isinstance(inst, GetElementPtr):
            out.extend(self._ub_gep(inst))
        elif isinstance(inst, Call):
            out.extend(self._ub_call(inst))
        return out

    def _ub_binop(self, inst: BinaryOp) -> List[UBCondition]:
        mgr = self.manager
        out: List[UBCondition] = []
        lhs = self.term(inst.lhs)
        rhs = self._resize(self.term(inst.rhs), lhs.width, signed=True)
        width = lhs.width
        signed = inst.type.is_integer() and inst.type.signed

        if inst.kind in (BinOpKind.ADD, BinOpKind.SUB, BinOpKind.MUL) and signed:
            out.append(UBCondition(
                UBKind.SIGNED_OVERFLOW,
                self._signed_overflow(inst.kind, lhs, rhs),
                inst, note=f"{inst.kind.value} on i{width}"))
        if inst.kind in (BinOpKind.SDIV, BinOpKind.SREM,
                         BinOpKind.UDIV, BinOpKind.UREM):
            zero = mgr.bv_const(0, width)
            out.append(UBCondition(UBKind.DIV_BY_ZERO, mgr.eq(rhs, zero), inst))
            if inst.kind in (BinOpKind.SDIV, BinOpKind.SREM):
                int_min = mgr.bv_const(1 << (width - 1), width)
                minus_one = mgr.bv_const(-1, width)
                out.append(UBCondition(
                    UBKind.SIGNED_OVERFLOW,
                    mgr.and_(mgr.eq(lhs, int_min), mgr.eq(rhs, minus_one)),
                    inst, note="INT_MIN / -1"))
        if inst.kind in (BinOpKind.SHL, BinOpKind.LSHR, BinOpKind.ASHR):
            bound = mgr.bv_const(width, rhs.width)
            out.append(UBCondition(
                UBKind.OVERSIZED_SHIFT, mgr.bvuge(rhs, bound), inst,
                note=f"shift amount >= {width}"))
        return out

    def _signed_overflow(self, kind: BinOpKind, lhs: Term, rhs: Term) -> Term:
        """x∞ op y∞ outside [-2^(n-1), 2^(n-1)-1] (Figure 3)."""
        mgr = self.manager
        width = lhs.width
        if kind is BinOpKind.MUL:
            extra = width
        else:
            extra = 1
        wide_lhs = mgr.sext(lhs, extra)
        wide_rhs = mgr.sext(rhs, extra)
        op = {BinOpKind.ADD: mgr.bvadd, BinOpKind.SUB: mgr.bvsub,
              BinOpKind.MUL: mgr.bvmul}[kind]
        wide = op(wide_lhs, wide_rhs)
        lo = mgr.bv_const(-(1 << (width - 1)), width + extra)
        hi = mgr.bv_const((1 << (width - 1)) - 1, width + extra)
        return mgr.or_(mgr.bvslt(wide, lo), mgr.bvsgt(wide, hi))

    def _ub_gep(self, inst: GetElementPtr) -> List[UBCondition]:
        mgr = self.manager
        out: List[UBCondition] = []
        pointer = self.term(inst.pointer)
        index = self._resize(self.term(inst.index), pointer.width, signed=True)
        width = pointer.width
        scale = mgr.bv_const(inst.element_size, width + 2)
        wide_ptr = mgr.zext(pointer, 2)
        wide_idx = mgr.sext(index, 2)
        wide_sum = mgr.bvadd(wide_ptr, mgr.bvmul(wide_idx, scale))
        zero = mgr.bv_const(0, width + 2)
        limit = mgr.bv_const((1 << width) - 1, width + 2)
        overflow = mgr.or_(mgr.bvslt(wide_sum, zero), mgr.bvsgt(wide_sum, limit))
        out.append(UBCondition(UBKind.POINTER_OVERFLOW, overflow, inst,
                               note=f"{inst.pointer.short_name()} + index"))
        if inst.array_size is not None:
            capacity = mgr.bv_const(inst.array_size, index.width)
            index_zero = mgr.bv_const(0, index.width)
            out.append(UBCondition(
                UBKind.BUFFER_OVERFLOW,
                mgr.or_(mgr.bvslt(index, index_zero), mgr.bvsge(index, capacity)),
                inst, note=f"capacity {inst.array_size}"))
        return out

    def _ub_call(self, inst: Call) -> List[UBCondition]:
        mgr = self.manager
        out: List[UBCondition] = []
        callee = inst.callee
        if callee in ("abs", "labs") and inst.args:
            arg = self.term(inst.args[0])
            int_min = mgr.bv_const(1 << (arg.width - 1), arg.width)
            out.append(UBCondition(UBKind.ABS_OVERFLOW, mgr.eq(arg, int_min), inst))
        elif callee == "memcpy" and len(inst.args) >= 3:
            dst = self.term(inst.args[0])
            src = self._resize(self.term(inst.args[1]), dst.width)
            length = self._resize(self.term(inst.args[2]), dst.width)
            distance = mgr.ite(mgr.bvugt(dst, src), mgr.bvsub(dst, src),
                               mgr.bvsub(src, dst))
            zero = mgr.bv_const(0, dst.width)
            out.append(UBCondition(
                UBKind.MEMCPY_OVERLAP,
                mgr.and_(mgr.bvult(distance, length), mgr.distinct(length, zero)),
                inst))
        return out

    # -- use-after-free / use-after-realloc --------------------------------------------

    def _collect_lifetime_events(self) -> None:
        for inst in self.function.instructions():
            if isinstance(inst, Call) and inst.callee in ("free", "realloc") and inst.args:
                self._freed_pointers.append((inst, inst.args[0], inst.callee))

    def _ub_lifetime(self, inst: Instruction, pointer: Value) -> List[UBCondition]:
        if not self._freed_pointers:
            return []
        mgr = self.manager
        out: List[UBCondition] = []
        roots = self._pointer_roots(pointer)
        for call, freed, callee in self._freed_pointers:
            if call.parent is None or inst.parent is None:
                continue
            if not self._executes_before(call, inst):
                continue
            if id(freed) not in roots and freed is not pointer:
                continue
            if callee == "free":
                out.append(UBCondition(UBKind.USE_AFTER_FREE, mgr.true(), inst,
                                       note=f"freed at {call.location}"))
            else:
                result = self.term(call)
                zero = mgr.bv_const(0, result.width)
                out.append(UBCondition(
                    UBKind.USE_AFTER_REALLOC, mgr.distinct(result, zero), inst,
                    note=f"realloc'd at {call.location}"))
        return out

    @staticmethod
    def _base_pointer(pointer: Value) -> Value:
        """The root of a GEP/cast chain (the object the access derives from)."""
        current = pointer
        while True:
            if isinstance(current, GetElementPtr):
                current = current.pointer
            elif isinstance(current, Cast) and current.value.type.is_pointer():
                current = current.value
            else:
                return current

    def _pointer_roots(self, pointer: Value) -> Set[int]:
        """Values this pointer is derived from via GEPs/casts (may-alias set)."""
        roots: Set[int] = set()
        worklist = [pointer]
        while worklist:
            value = worklist.pop()
            if id(value) in roots:
                continue
            roots.add(id(value))
            if isinstance(value, GetElementPtr):
                worklist.append(value.pointer)
            elif isinstance(value, Cast):
                worklist.append(value.value)
            elif isinstance(value, Phi):
                worklist.extend(v for v, _b in value.incoming)
        return roots

    def _executes_before(self, first: Instruction, second: Instruction) -> bool:
        """True if ``first`` is guaranteed to execute before ``second``."""
        if first.parent is second.parent and first.parent is not None:
            block = first.parent.instructions
            return block.index(first) < block.index(second)
        if first.parent is None or second.parent is None:
            return False
        return (first.parent is not second.parent
                and self.dominators.dominates(first.parent, second.parent))

    # -- well-defined program assumption -----------------------------------------------

    def dominating_ub_conditions(self, inst: Instruction) -> List[UBCondition]:
        """UB conditions of all instructions that dominate ``inst``."""
        out: List[UBCondition] = []
        for dom in self.dominators.dominating_instructions(inst):
            out.extend(self.ub_conditions(dom))
        return out

    def block_dominating_ub_conditions(self, block: BasicBlock) -> List[UBCondition]:
        """UB conditions of instructions in all strict dominators of ``block``."""
        out: List[UBCondition] = []
        for dom_block in self.dominators.dominators_of(block):
            if dom_block is block:
                continue
            for inst in dom_block.instructions:
                out.extend(self.ub_conditions(inst))
        return out

    def well_defined_over(self, conditions: Sequence[UBCondition]) -> Term:
        """⋀ ¬U_d over the given UB conditions (equation 5)."""
        mgr = self.manager
        result = mgr.true()
        for ub in conditions:
            result = mgr.and_(result, mgr.not_(ub.condition))
        return result

    # -- auxiliary definitions -----------------------------------------------------------

    def definitions_for(self, *terms: Term) -> List[Term]:
        """Auxiliary constraints (division axioms, alloca non-nullness, ...)
        for every defined variable appearing in ``terms``, transitively."""
        from repro.solver.terms import collect_variables

        needed: List[Term] = []
        seen_names: Set[str] = set()
        worklist = list(terms)
        while worklist:
            term = worklist.pop()
            for name in collect_variables(term):
                if name in seen_names:
                    continue
                seen_names.add(name)
                for constraint in self._definitions.get(name, ()):
                    needed.append(constraint)
                    worklist.append(constraint)
        return needed
