"""IR type system: sized integers, pointers, arrays, void, and functions.

The widths mirror the C data model the checker assumes (LP64): ``char`` is 8
bits, ``int`` 32, ``long``/pointers 64.  Signedness is carried on the integer
type so the checker knows which undefined-behavior conditions (signed
overflow vs. unsigned wrap-around) apply to an operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


class IRType:
    """Base class for all IR types."""

    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    def is_bool(self) -> bool:
        return isinstance(self, IntType) and self.width == 1

    @property
    def bit_width(self) -> int:
        """Width in bits when the type is materialised as a bit vector."""
        raise NotImplementedError


@dataclass(frozen=True)
class VoidType(IRType):
    """The void type (only valid as a function return type)."""

    def __repr__(self) -> str:
        return "void"

    @property
    def bit_width(self) -> int:
        raise TypeError("void has no bit width")


@dataclass(frozen=True)
class IntType(IRType):
    """Fixed-width integer type, carrying C-level signedness."""

    width: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"integer width must be positive, got {self.width}")

    @property
    def bit_width(self) -> int:
        return self.width

    @property
    def min_value(self) -> int:
        if self.signed:
            return -(1 << (self.width - 1))
        return 0

    @property
    def max_value(self) -> int:
        if self.signed:
            return (1 << (self.width - 1)) - 1
        return (1 << self.width) - 1

    def as_unsigned(self) -> "IntType":
        return IntType(self.width, signed=False)

    def __repr__(self) -> str:
        prefix = "i" if self.signed else "u"
        return f"{prefix}{self.width}"


@dataclass(frozen=True)
class PointerType(IRType):
    """Pointer to another IR type.

    Pointers are modelled as 64-bit integers (LP64) when encoded for the
    solver; ``pointee`` is kept for element-size computation in GEPs and for
    diagnostics.
    """

    pointee: IRType
    width: int = 64

    @property
    def bit_width(self) -> int:
        return self.width

    def __repr__(self) -> str:
        return f"{self.pointee!r}*"


@dataclass(frozen=True)
class ArrayType(IRType):
    """Fixed-size array of elements (used for stack buffers)."""

    element: IRType
    count: int

    @property
    def bit_width(self) -> int:
        return self.element.bit_width * self.count

    def __repr__(self) -> str:
        return f"[{self.count} x {self.element!r}]"


@dataclass(frozen=True)
class FunctionType(IRType):
    """Type of a function: return type plus parameter types."""

    return_type: IRType
    param_types: Tuple[IRType, ...] = ()
    variadic: bool = False

    @property
    def bit_width(self) -> int:
        raise TypeError("function types have no bit width")

    def __repr__(self) -> str:
        params = ", ".join(repr(p) for p in self.param_types)
        if self.variadic:
            params = params + ", ..." if params else "..."
        return f"{self.return_type!r}({params})"


def type_size_bytes(ty: IRType) -> int:
    """Size of a type in bytes, used for pointer arithmetic scaling."""
    if isinstance(ty, IntType):
        return max(1, ty.width // 8)
    if isinstance(ty, PointerType):
        return ty.width // 8
    if isinstance(ty, ArrayType):
        return type_size_bytes(ty.element) * ty.count
    if isinstance(ty, VoidType):
        return 1
    raise TypeError(f"cannot compute the size of {ty!r}")


# Common instances ------------------------------------------------------------

BOOL_TYPE = IntType(1, signed=False)
INT8 = IntType(8)
INT16 = IntType(16)
INT32 = IntType(32)
INT64 = IntType(64)
UINT8 = IntType(8, signed=False)
UINT16 = IntType(16, signed=False)
UINT32 = IntType(32, signed=False)
UINT64 = IntType(64, signed=False)
VOID = VoidType()
CHAR_PTR = PointerType(INT8)
