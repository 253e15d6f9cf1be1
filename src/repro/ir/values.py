"""IR values: the base class, constants, undef, and function arguments."""

from __future__ import annotations

from typing import List

from repro.ir.types import IRType, PointerType


class Value:
    """Base class of everything that can be used as an operand.

    Every value has a type and an optional name (used for printing and for
    mapping back to the programmer's variables in diagnostics).
    """

    def __init__(self, ty: IRType, name: str = "") -> None:
        self.type = ty
        self.name = name
        self.uses: List["Value"] = []

    def short_name(self) -> str:
        return f"%{self.name}" if self.name else "%<anon>"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short_name()}: {self.type!r}>"


class Constant(Value):
    """An integer or pointer constant.

    The value is stored as a Python int; signed constants may be negative and
    are normalised to two's-complement when encoded for the solver.
    """

    def __init__(self, ty: IRType, value: int) -> None:
        super().__init__(ty, name=str(value))
        if not (ty.is_integer() or ty.is_pointer()):
            raise TypeError(f"constants must be integers or pointers, got {ty!r}")
        self.value = int(value)

    @staticmethod
    def null(ty: PointerType) -> "Constant":
        return Constant(ty, 0)

    def as_unsigned(self) -> int:
        """The two's-complement (unsigned) bit pattern of this constant."""
        width = self.type.bit_width
        return self.value & ((1 << width) - 1)

    def short_name(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"<Constant {self.value}: {self.type!r}>"


class UndefValue(Value):
    """An unconstrained value (e.g. the result of reading uninitialised memory)."""

    def short_name(self) -> str:
        return "undef"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, ty: IRType, name: str, index: int) -> None:
        super().__init__(ty, name)
        self.index = index

    def __repr__(self) -> str:
        return f"<Argument %{self.name} #{self.index}: {self.type!r}>"


class GlobalVariable(Value):
    """A module-level variable; its value is an address (pointer type)."""

    def __init__(self, ty: PointerType, name: str) -> None:
        super().__init__(ty, name)

    def short_name(self) -> str:
        return f"@{self.name}"
