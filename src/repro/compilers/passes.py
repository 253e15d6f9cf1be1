"""Optimization passes that exploit undefined behavior.

These are the transformations the paper's compiler survey observes in the
wild (§2.2–2.3): folding a sanity check to a constant because the C standard
says the input that would make it true cannot occur in a well-defined
program.  Each transformation is gated on a :class:`Capability`, so a
compiler profile can enable them selectively per optimization level.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.ir.dominators import DominatorTree
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
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
    Store,
)
from repro.ir.types import IntType
from repro.ir.values import Constant, Value


class Capability(enum.Enum):
    """UB-exploiting optimization capabilities (the columns of Figure 4)."""

    POINTER_OVERFLOW_FOLD = "fold p + c < p using no-pointer-overflow"
    NULL_CHECK_ELIMINATION = "remove null checks dominated by a dereference"
    SIGNED_OVERFLOW_FOLD = "fold x + c < x using no-signed-overflow"
    VALUE_RANGE_SIGNED = "value-range reasoning with no-signed-overflow"
    OVERSIZED_SHIFT_FOLD = "fold 1 << x != 0 using no-oversized-shift"
    ABS_FOLD = "fold abs(x) < 0 using library semantics"
    ALGEBRAIC_POINTER_REWRITE = "rewrite p + x < p into x < 0"


@dataclass
class OptimizationContext:
    """What the optimizer is allowed to assume / able to do."""

    capabilities: Set[Capability] = field(default_factory=set)
    #: Statistics: how many checks each pass folded.
    folded_comparisons: int = 0
    removed_blocks: int = 0

    def has(self, capability: Capability) -> bool:
        return capability in self.capabilities


def _const_i1(value: bool) -> Constant:
    return Constant(IntType(1, signed=False), int(value))


def _is_zero_constant(value: Value) -> bool:
    return isinstance(value, Constant) and value.value == 0


def _positive_constant(value: Value) -> Optional[int]:
    if isinstance(value, Constant) and value.value > 0:
        return value.value
    return None


def _strip_casts(value: Value) -> Value:
    while isinstance(value, Cast):
        value = value.value
    return value


class ValueRangeAnalysis:
    """Flow-sensitive sign facts derived from dominating branch conditions.

    This is a miniature version of gcc 4.x's value-range propagation (the
    paper credits VRP for gcc's increased aggressiveness, §2.3): for each
    block it records which values are known positive / non-negative /
    negative because a dominating conditional branch tested them.
    """

    def __init__(self, function: Function) -> None:
        self.function = function
        self.dominators = DominatorTree(function)
        self._facts: Dict[int, Set[Tuple[int, str]]] = {}
        self._compute()

    def _compute(self) -> None:
        for block in self.function.blocks:
            facts: Set[Tuple[int, str]] = set()
            for dom in self.dominators.dominators_of(block):
                if dom is block:
                    continue
                terminator = dom.terminator
                if not isinstance(terminator, CondBranch):
                    continue
                condition = terminator.condition
                if not isinstance(condition, ICmp):
                    continue
                # Which successor leads (only) toward `block`?
                true_path = self.dominators.dominates(terminator.if_true, block) \
                    and not self.dominators.dominates(terminator.if_false, block)
                false_path = self.dominators.dominates(terminator.if_false, block) \
                    and not self.dominators.dominates(terminator.if_true, block)
                if not (true_path or false_path):
                    continue
                facts.update(self._facts_from(condition, taken=true_path))
            self._facts[id(block)] = facts

    @staticmethod
    def _facts_from(cmp: ICmp, taken: bool) -> Set[Tuple[int, str]]:
        facts: Set[Tuple[int, str]] = set()
        lhs, rhs, pred = cmp.lhs, cmp.rhs, cmp.pred
        if not _is_zero_constant(rhs):
            return facts
        mapping_true = {
            ICmpPred.SGT: "positive", ICmpPred.SGE: "non-negative",
            ICmpPred.SLT: "negative", ICmpPred.SLE: "non-positive",
        }
        mapping_false = {
            ICmpPred.SLE: "positive", ICmpPred.SLT: "non-negative",
            ICmpPred.SGE: "negative", ICmpPred.SGT: "non-positive",
        }
        mapping = mapping_true if taken else mapping_false
        fact = mapping.get(pred)
        if fact is not None:
            facts.add((id(_strip_casts(lhs)), fact))
        return facts

    def is_known(self, block: BasicBlock, value: Value, fact: str) -> bool:
        return (id(_strip_casts(value)), fact) in self._facts.get(id(block), set())


class UBAwareInstSimplifyPass:
    """Folds comparisons to constants using undefined-behavior assumptions."""

    name = "instsimplify"

    def run(self, function: Function, context: OptimizationContext) -> int:
        ranges = ValueRangeAnalysis(function) if \
            context.has(Capability.VALUE_RANGE_SIGNED) else None
        dominators = DominatorTree(function)
        folded = 0
        for block in function.blocks:
            for inst in list(block.instructions):
                if not isinstance(inst, ICmp):
                    continue
                replacement = self._fold(inst, block, context, ranges, dominators,
                                         function)
                if replacement is None:
                    continue
                self._replace_uses(function, inst, replacement)
                # Retire the folded comparison, as a real compiler would:
                # leaving it in place would re-match the rule every
                # iteration and the pipeline would never reach a fixed
                # point (its statistics counted each re-fold).
                block.instructions.remove(inst)
                folded += 1
        context.folded_comparisons += folded
        return folded

    # -- folding rules ---------------------------------------------------------------

    def _fold(self, inst: ICmp, block: BasicBlock, context: OptimizationContext,
              ranges: Optional[ValueRangeAnalysis], dominators: DominatorTree,
              function: Function) -> Optional[Constant]:
        rule_sets = (
            self._fold_pointer_overflow,
            self._fold_signed_overflow,
            self._fold_value_range,
            self._fold_shift,
            self._fold_abs,
        )
        for rule in rule_sets:
            result = rule(inst, block, context, ranges)
            if result is not None:
                return result
        if context.has(Capability.NULL_CHECK_ELIMINATION):
            return self._fold_null_check(inst, dominators, function)
        return None

    def _fold_pointer_overflow(self, inst: ICmp, block, context,
                               ranges) -> Optional[Constant]:
        if not context.has(Capability.POINTER_OVERFLOW_FOLD):
            return None
        lhs, rhs = inst.lhs, inst.rhs
        for compound, other, smaller_when_true in (
                (lhs, rhs, True), (rhs, lhs, False)):
            if not isinstance(compound, GetElementPtr):
                continue
            if compound.pointer is not other:
                continue
            index = _strip_casts(compound.index)
            offset = _positive_constant(index)
            unsigned_index = isinstance(compound.index, Cast) and \
                compound.index.kind is CastKind.ZEXT
            if offset is None and not unsigned_index:
                continue
            # p + nonneg  is never (unsigned) below p under no-pointer-overflow.
            if inst.pred is ICmpPred.ULT and smaller_when_true:
                return _const_i1(False)
            if inst.pred is ICmpPred.UGE and smaller_when_true:
                return _const_i1(True)
            if inst.pred is ICmpPred.UGT and not smaller_when_true:
                return _const_i1(False)
            if inst.pred is ICmpPred.ULE and not smaller_when_true:
                return _const_i1(True)
        return None

    def _fold_signed_overflow(self, inst: ICmp, block, context,
                              ranges) -> Optional[Constant]:
        if not context.has(Capability.SIGNED_OVERFLOW_FOLD):
            return None
        lhs, rhs = inst.lhs, inst.rhs
        for compound, other, smaller_when_true in (
                (lhs, rhs, True), (rhs, lhs, False)):
            if not isinstance(compound, BinaryOp) or compound.kind is not BinOpKind.ADD:
                continue
            if not (compound.type.is_integer() and compound.type.signed):
                continue
            base, addend = None, None
            if compound.lhs is other:
                base, addend = compound.lhs, compound.rhs
            elif compound.rhs is other:
                base, addend = compound.rhs, compound.lhs
            if base is None or _positive_constant(addend) is None:
                continue
            # x + positive_const compared against x: no overflow means the sum
            # is strictly larger.
            if inst.pred in (ICmpPred.SLT, ICmpPred.SLE) and smaller_when_true:
                return _const_i1(False)
            if inst.pred in (ICmpPred.SGT, ICmpPred.SGE) and smaller_when_true:
                return _const_i1(True)
            if inst.pred in (ICmpPred.SGT, ICmpPred.SGE) and not smaller_when_true:
                return _const_i1(False)
            if inst.pred in (ICmpPred.SLT, ICmpPred.SLE) and not smaller_when_true:
                return _const_i1(True)
        return None

    def _fold_value_range(self, inst: ICmp, block, context,
                          ranges: Optional[ValueRangeAnalysis]) -> Optional[Constant]:
        if ranges is None or not context.has(Capability.SIGNED_OVERFLOW_FOLD):
            return None
        lhs, rhs = inst.lhs, inst.rhs
        if not _is_zero_constant(rhs):
            return None
        if not isinstance(lhs, BinaryOp) or lhs.kind is not BinOpKind.ADD:
            return None
        if not (lhs.type.is_integer() and lhs.type.signed):
            return None
        base, addend = lhs.lhs, lhs.rhs
        if _positive_constant(addend) is None:
            base, addend = lhs.rhs, lhs.lhs
        if _positive_constant(addend) is None:
            return None
        if not (ranges.is_known(block, base, "positive")
                or ranges.is_known(block, base, "non-negative")):
            return None
        # positive + positive constant cannot be negative without overflow.
        if inst.pred is ICmpPred.SLT:
            return _const_i1(False)
        if inst.pred is ICmpPred.SGE:
            return _const_i1(True)
        return None

    def _fold_shift(self, inst: ICmp, block, context, ranges) -> Optional[Constant]:
        if not context.has(Capability.OVERSIZED_SHIFT_FOLD):
            return None
        lhs, rhs = inst.lhs, inst.rhs
        if not _is_zero_constant(rhs):
            return None
        if not isinstance(lhs, BinaryOp) or lhs.kind is not BinOpKind.SHL:
            return None
        base = lhs.lhs
        if not (isinstance(base, Constant) and base.value != 0):
            return None
        # (nonzero << x) == 0 only via an oversized shift, which is assumed away.
        if inst.pred is ICmpPred.EQ:
            return _const_i1(False)
        if inst.pred is ICmpPred.NE:
            return _const_i1(True)
        return None

    def _fold_abs(self, inst: ICmp, block, context, ranges) -> Optional[Constant]:
        if not context.has(Capability.ABS_FOLD):
            return None
        lhs, rhs = inst.lhs, inst.rhs
        if not _is_zero_constant(rhs):
            return None
        source = _strip_casts(lhs)
        if not (isinstance(source, Call) and source.callee in ("abs", "labs")):
            return None
        # abs() is non-negative unless it overflows, which is assumed away.
        if inst.pred is ICmpPred.SLT:
            return _const_i1(False)
        if inst.pred is ICmpPred.SGE:
            return _const_i1(True)
        return None

    def _fold_null_check(self, inst: ICmp, dominators: DominatorTree,
                         function: Function) -> Optional[Constant]:
        lhs, rhs = inst.lhs, inst.rhs
        pointer = None
        if rhs.type.is_pointer() and _is_zero_constant(lhs):
            pointer = rhs
        elif lhs.type.is_pointer() and _is_zero_constant(rhs):
            pointer = lhs
        if pointer is None:
            return None
        if not self._dereference_dominates(pointer, inst, dominators, function):
            return None
        if inst.pred is ICmpPred.EQ:
            return _const_i1(False)
        if inst.pred is ICmpPred.NE:
            return _const_i1(True)
        return None

    @staticmethod
    def _dereference_dominates(pointer: Value, inst: ICmp,
                               dominators: DominatorTree,
                               function: Function) -> bool:
        for candidate in dominators.dominating_instructions(inst):
            accessed: Optional[Value] = None
            if isinstance(candidate, (Load, Store)):
                accessed = candidate.pointer
            if accessed is None:
                continue
            root = accessed
            while isinstance(root, (GetElementPtr, Cast)):
                root = root.pointer if isinstance(root, GetElementPtr) else root.value
            if root is pointer:
                return True
        return False

    # -- use replacement -----------------------------------------------------------------

    @staticmethod
    def _replace_uses(function: Function, old: Instruction, new: Constant) -> None:
        for block in function.blocks:
            for inst in block.instructions:
                if inst is old:
                    continue
                inst.replace_operand(old, new)


class NullCheckEliminationPass:
    """Standalone wrapper for the dominating-dereference null-check removal.

    gcc exposes this behaviour behind ``-fdelete-null-pointer-checks`` (§7);
    it is also available through :class:`UBAwareInstSimplifyPass` when the
    NULL_CHECK_ELIMINATION capability is enabled.
    """

    name = "null-check-elim"

    def run(self, function: Function, context: OptimizationContext) -> int:
        if not context.has(Capability.NULL_CHECK_ELIMINATION):
            return 0
        simplify = UBAwareInstSimplifyPass()
        dominators = DominatorTree(function)
        folded = 0
        for block in function.blocks:
            for inst in list(block.instructions):
                if not isinstance(inst, ICmp):
                    continue
                replacement = simplify._fold_null_check(inst, dominators, function)
                if replacement is None:
                    continue
                simplify._replace_uses(function, inst, replacement)
                block.instructions.remove(inst)
                folded += 1
        context.folded_comparisons += folded
        return folded


class SimplifyCfgPass:
    """Constant-folds branches and removes unreachable blocks."""

    name = "simplifycfg"

    def run(self, function: Function, context: OptimizationContext) -> int:
        changed = 0
        changed += self._fold_constant_branches(function)
        changed += self._remove_unreachable_blocks(function, context)
        return changed

    @staticmethod
    def _fold_constant_branches(function: Function) -> int:
        changed = 0
        for block in function.blocks:
            terminator = block.terminator
            if not isinstance(terminator, CondBranch):
                continue
            condition = terminator.condition
            if not isinstance(condition, Constant):
                continue
            target = terminator.if_true if condition.value else terminator.if_false
            abandoned = terminator.if_false if condition.value else terminator.if_true
            block.instructions[-1] = Branch(target, location=terminator.location,
                                            origin=terminator.origin)
            block.instructions[-1].parent = block
            for phi in abandoned.phis():
                phi.incoming = [(v, b) for v, b in phi.incoming if b is not block]
            changed += 1
        return changed

    @staticmethod
    def _remove_unreachable_blocks(function: Function,
                                   context: OptimizationContext) -> int:
        from repro.ir.cfg import reachable_blocks

        reachable = reachable_blocks(function)
        dead = [b for b in function.blocks if id(b) not in reachable]
        for block in dead:
            for live in function.blocks:
                for phi in live.phis():
                    phi.incoming = [(v, b) for v, b in phi.incoming if b is not block]
            function.remove_block(block)
        context.removed_blocks += len(dead)
        return len(dead)
