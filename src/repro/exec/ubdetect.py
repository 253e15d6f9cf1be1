"""Concrete undefined-behavior detection for the IR interpreter.

This is the runtime mirror of :mod:`repro.core.ubconditions` (the paper's
Figure 3): where the encoder attaches a *symbolic* sufficient condition to
an instruction, the :class:`UBMonitor` evaluates the same condition over the
concrete operand values of one execution.  A run therefore yields not just a
result but the ordered list of UB events it triggered, each attributed to
the triggering instruction's source location and origin — which is what lets
the witness layer check that a divergence is justified by exactly the UB the
diagnostic reported.

The interpreter keeps executing after an event using the deterministic
"hardware" semantics of the C* dialect (two's-complement wraparound,
defined shifts, division by zero yielding 0), so both sides of a
differential run stay comparable; callers that want fail-stop behavior pass
``stop_on_ub=True`` to the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.ubconditions import UBKind
from repro.ir.instructions import BinaryOp, BinOpKind, Call, GetElementPtr, Instruction
from repro.ir.types import IntType


@dataclass
class UBEvent:
    """One concrete undefined-behavior occurrence during interpretation."""

    kind: UBKind
    instruction: Instruction
    note: str = ""
    step: int = 0                  # instruction count at which it fired

    @property
    def location(self):
        return self.instruction.location

    def describe(self) -> str:
        where = f" at {self.location}" if self.location.is_known() else ""
        note = f" ({self.note})" if self.note else ""
        return f"{self.kind.value}{note}{where}"

    def __repr__(self) -> str:
        return f"<UBEvent {self.kind.name} step={self.step} {self.location}>"


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned bit pattern as a two's-complement integer."""
    value &= (1 << width) - 1
    if value >= 1 << (width - 1):
        return value - (1 << width)
    return value


def to_unsigned(value: int, width: int) -> int:
    """Normalise a Python int to its ``width``-bit unsigned bit pattern."""
    return value & ((1 << width) - 1)


class UBMonitor:
    """Evaluates Figure 3's sufficient conditions over concrete values.

    The monitor is stateful only for the lifetime rows (use-after-free /
    use-after-realloc): ``note_free`` / ``note_realloc`` record the concrete
    addresses passed to ``free``/``realloc`` so later accesses through the
    same address can be flagged.
    """

    def __init__(self) -> None:
        self.events: List[UBEvent] = []
        self._freed: Dict[int, str] = {}          # address -> "free at <loc>"
        self._realloced: Dict[int, Tuple[int, str]] = {}  # old addr -> (result, loc)
        self._step = 0

    def begin_step(self, step: int) -> None:
        self._step = step

    def record(self, kind: UBKind, inst: Instruction, note: str = "") -> UBEvent:
        event = UBEvent(kind, inst, note=note, step=self._step)
        self.events.append(event)
        return event

    @property
    def kinds(self) -> Set[UBKind]:
        return {event.kind for event in self.events}

    # -- arithmetic (signed overflow, division, shifts) -----------------------

    def check_binop(self, inst: BinaryOp, lhs: int, rhs: int) -> None:
        width = inst.type.bit_width
        signed = isinstance(inst.type, IntType) and inst.type.signed
        slhs, srhs = to_signed(lhs, width), to_signed(rhs, width)

        if inst.kind in (BinOpKind.ADD, BinOpKind.SUB, BinOpKind.MUL) and signed:
            exact = {BinOpKind.ADD: slhs + srhs, BinOpKind.SUB: slhs - srhs,
                     BinOpKind.MUL: slhs * srhs}[inst.kind]
            if not (-(1 << (width - 1)) <= exact <= (1 << (width - 1)) - 1):
                self.record(UBKind.SIGNED_OVERFLOW, inst,
                            note=f"{inst.kind.value} on i{width}")
        elif inst.kind in (BinOpKind.SDIV, BinOpKind.UDIV,
                           BinOpKind.SREM, BinOpKind.UREM):
            if rhs == 0:
                self.record(UBKind.DIV_BY_ZERO, inst)
            elif inst.kind in (BinOpKind.SDIV, BinOpKind.SREM) and \
                    slhs == -(1 << (width - 1)) and srhs == -1:
                self.record(UBKind.SIGNED_OVERFLOW, inst, note="INT_MIN / -1")
        elif inst.kind in (BinOpKind.SHL, BinOpKind.LSHR, BinOpKind.ASHR):
            if rhs >= width:
                self.record(UBKind.OVERSIZED_SHIFT, inst,
                            note=f"shift amount >= {width}")

    # -- memory (null, pointer overflow, buffer overflow) ---------------------

    def check_access(self, inst: Instruction, root_value: int,
                     address: int, root_name: str = "") -> None:
        """Checks at a Load/Store: null dereference and lifetime violations."""
        if root_value == 0 or address == 0:
            self.record(UBKind.NULL_DEREF, inst,
                        note=f"dereference of {root_name or 'pointer'}")
        freed_at = self._freed.get(root_value)
        if freed_at is not None:
            self.record(UBKind.USE_AFTER_FREE, inst, note=freed_at)
        realloc = self._realloced.get(root_value)
        if realloc is not None and realloc[0] != 0:
            self.record(UBKind.USE_AFTER_REALLOC, inst, note=realloc[1])

    def check_gep(self, inst: GetElementPtr, pointer: int, index: int,
                  width: int) -> None:
        signed_index = to_signed(index, width)
        exact = pointer + signed_index * inst.element_size
        if exact < 0 or exact > (1 << width) - 1:
            self.record(UBKind.POINTER_OVERFLOW, inst,
                        note=f"{inst.pointer.short_name()} + index")
        if inst.array_size is not None:
            if signed_index < 0 or signed_index >= inst.array_size:
                self.record(UBKind.BUFFER_OVERFLOW, inst,
                            note=f"capacity {inst.array_size}")

    # -- library calls ---------------------------------------------------------

    def check_abs(self, inst: Call, argument: int, width: int) -> None:
        if to_signed(argument, width) == -(1 << (width - 1)):
            self.record(UBKind.ABS_OVERFLOW, inst)

    def check_memcpy(self, inst: Call, dst: int, src: int, length: int) -> None:
        if length != 0 and abs(dst - src) < length:
            self.record(UBKind.MEMCPY_OVERLAP, inst)

    def note_free(self, inst: Call, address: int) -> None:
        if address:
            self._freed[address] = f"freed at {inst.location}"

    def note_realloc(self, inst: Call, address: int, result: int) -> None:
        if address:
            self._realloced[address] = (result, f"realloc'd at {inst.location}")
