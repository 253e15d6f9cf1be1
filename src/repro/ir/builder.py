"""IRBuilder: a convenience API for constructing IR programmatically.

The lowering pass (:mod:`repro.lower`) and the unit tests both build IR
through this class.  It mirrors the corresponding LLVM helper: it keeps an
insertion point (a basic block) and appends new instructions there, assigning
fresh names as it goes.  Source location and origin metadata can be set once
and applies to subsequently created instructions.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
from repro.ir.source import Origin, SourceLocation, USER_ORIGIN
from repro.ir.types import IntType, IRType
from repro.ir.values import Constant, Value


class IRBuilder:
    """Appends instructions to a basic block, tracking metadata."""

    def __init__(self, function: Function, block: Optional[BasicBlock] = None) -> None:
        self.function = function
        self.block = block if block is not None else (
            function.blocks[0] if function.blocks else function.add_block("entry"))
        self.location = SourceLocation()
        self.origin: Origin = USER_ORIGIN

    # -- positioning / metadata ------------------------------------------------

    def set_block(self, block: BasicBlock) -> None:
        self.block = block

    def set_location(self, filename: str, line: int, column: int = 0) -> None:
        self.location = SourceLocation(filename, line, column)

    def set_origin(self, origin: Origin) -> None:
        self.origin = origin

    def new_block(self, name: str = "") -> BasicBlock:
        return self.function.add_block(name)

    def _meta(self) -> dict:
        return {"location": self.location, "origin": self.origin}

    def _emit(self, inst: Instruction) -> Instruction:
        if not inst.name and not inst.type.is_void():
            inst.name = self.function.next_name()
        return self.block.append(inst)

    # -- constants ----------------------------------------------------------------

    def const_int(self, ty: IntType, value: int) -> Constant:
        return Constant(ty, value)

    # -- arithmetic ------------------------------------------------------------------

    def binop(self, kind: BinOpKind, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._emit(BinaryOp(kind, lhs, rhs, name, **self._meta()))

    def add(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop(BinOpKind.ADD, lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop(BinOpKind.SUB, lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop(BinOpKind.MUL, lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop(BinOpKind.SDIV, lhs, rhs, name)

    def udiv(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop(BinOpKind.UDIV, lhs, rhs, name)

    def srem(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop(BinOpKind.SREM, lhs, rhs, name)

    def urem(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop(BinOpKind.UREM, lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop(BinOpKind.SHL, lhs, rhs, name)

    def lshr(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop(BinOpKind.LSHR, lhs, rhs, name)

    def ashr(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop(BinOpKind.ASHR, lhs, rhs, name)

    def and_(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop(BinOpKind.AND, lhs, rhs, name)

    def or_(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop(BinOpKind.OR, lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop(BinOpKind.XOR, lhs, rhs, name)

    def neg(self, value: Value, name: str = "") -> Value:
        zero = Constant(value.type, 0)
        return self.binop(BinOpKind.SUB, zero, value, name)

    # -- comparisons ---------------------------------------------------------------

    def icmp(self, pred: ICmpPred, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._emit(ICmp(pred, lhs, rhs, name, **self._meta()))

    def select(self, cond: Value, on_true: Value, on_false: Value, name: str = "") -> Value:
        return self._emit(Select(cond, on_true, on_false, name, **self._meta()))

    # -- casts -----------------------------------------------------------------------

    def cast(self, kind: CastKind, value: Value, target: IRType, name: str = "") -> Value:
        return self._emit(Cast(kind, value, target, name, **self._meta()))

    def trunc(self, value: Value, target: IRType, name: str = "") -> Value:
        return self.cast(CastKind.TRUNC, value, target, name)

    def zext(self, value: Value, target: IRType, name: str = "") -> Value:
        return self.cast(CastKind.ZEXT, value, target, name)

    def sext(self, value: Value, target: IRType, name: str = "") -> Value:
        return self.cast(CastKind.SEXT, value, target, name)

    # -- memory ---------------------------------------------------------------------

    def alloca(self, allocated: IRType, name: str = "") -> Value:
        return self._emit(Alloca(allocated, name, **self._meta()))

    def load(self, ptr: Value, name: str = "") -> Value:
        return self._emit(Load(ptr, name, **self._meta()))

    def store(self, value: Value, ptr: Value) -> Value:
        return self._emit(Store(value, ptr, **self._meta()))

    def gep(self, ptr: Value, index: Value, name: str = "",
            element_type: Optional[IRType] = None,
            array_size: Optional[int] = None) -> Value:
        return self._emit(GetElementPtr(
            ptr, index, name, element_type=element_type,
            array_size=array_size, **self._meta()))

    # -- calls ----------------------------------------------------------------------

    def call(self, callee: str, args: Sequence[Value], return_type: IRType,
             name: str = "") -> Value:
        return self._emit(Call(callee, args, return_type, name, **self._meta()))

    # -- phi ------------------------------------------------------------------------

    def phi(self, ty: IRType, name: str = "") -> Phi:
        phi = Phi(ty, name, **self._meta())
        if not phi.name:
            phi.name = self.function.next_name("phi")
        # Phi nodes always go to the front of the block, before other code.
        phi.parent = self.block
        insert_at = 0
        for i, existing in enumerate(self.block.instructions):
            if isinstance(existing, Phi):
                insert_at = i + 1
        self.block.instructions.insert(insert_at, phi)
        return phi

    # -- terminators -------------------------------------------------------------

    def br(self, target: BasicBlock) -> Instruction:
        return self._emit(Branch(target, **self._meta()))

    def cond_br(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> Instruction:
        return self._emit(CondBranch(cond, if_true, if_false, **self._meta()))

    def ret(self, value: Optional[Value] = None) -> Instruction:
        return self._emit(Return(value, **self._meta()))

    def unreachable(self) -> Instruction:
        return self._emit(Unreachable(**self._meta()))
