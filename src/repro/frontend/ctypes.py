"""C-level type representations for the frontend.

These types carry C semantics (signedness, struct layout, typedef names) and
are mapped onto the IR type system by :mod:`repro.lower`.  The data model is
LP64: char=8, short=16, int=32, long=long long=64, pointers=64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class CType:
    """Base class for all C types used by sema."""

    def is_integer(self) -> bool:
        return isinstance(self, CInt)

    def is_pointer(self) -> bool:
        return isinstance(self, CPointer)

    def is_array(self) -> bool:
        return isinstance(self, CArray)

    def is_void(self) -> bool:
        return isinstance(self, CVoid)

    def is_scalar(self) -> bool:
        return self.is_integer() or self.is_pointer()

    @property
    def size_bytes(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class CVoid(CType):
    """The void type."""

    @property
    def size_bytes(self) -> int:
        return 1

    def __repr__(self) -> str:
        return "void"


@dataclass(frozen=True)
class CInt(CType):
    """A sized integer type with C signedness and a display name."""

    width: int
    signed: bool = True
    name: str = ""

    @property
    def size_bytes(self) -> int:
        return max(1, self.width // 8)

    @property
    def min_value(self) -> int:
        return -(1 << (self.width - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.width - 1)) - 1 if self.signed else (1 << self.width) - 1

    def __repr__(self) -> str:
        if self.name:
            return self.name
        return f"{'' if self.signed else 'unsigned '}int{self.width}"


@dataclass(frozen=True)
class CPointer(CType):
    """Pointer to another C type."""

    target: CType

    @property
    def size_bytes(self) -> int:
        return 8

    def __repr__(self) -> str:
        return f"{self.target!r}*"


@dataclass(frozen=True)
class CArray(CType):
    """Fixed-size array (the element count may be unknown: -1)."""

    element: CType
    count: int

    @property
    def size_bytes(self) -> int:
        return self.element.size_bytes * max(0, self.count)

    def __repr__(self) -> str:
        return f"{self.element!r}[{self.count if self.count >= 0 else ''}]"


@dataclass(frozen=True)
class CStructField:
    """A single struct member with its byte offset."""

    name: str
    type: CType
    offset: int


@dataclass(frozen=True)
class CStruct(CType):
    """A struct type; fields are laid out without padding beyond alignment to size."""

    name: str
    fields: Tuple[CStructField, ...] = ()
    complete: bool = True

    @property
    def size_bytes(self) -> int:
        if not self.fields:
            return 0
        last = self.fields[-1]
        return last.offset + last.type.size_bytes

    def field(self, name: str) -> Optional[CStructField]:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def __repr__(self) -> str:
        return f"struct {self.name}"


@dataclass(frozen=True)
class CFunction(CType):
    """Function type (return type + parameters)."""

    return_type: CType
    params: Tuple[CType, ...] = ()
    variadic: bool = False

    @property
    def size_bytes(self) -> int:
        return 8

    def __repr__(self) -> str:
        params = ", ".join(repr(p) for p in self.params)
        return f"{self.return_type!r}({params})"


def layout_struct(name: str, members: List[Tuple[str, CType]]) -> CStruct:
    """Compute field offsets for a struct (natural alignment, no bit-fields)."""
    fields: List[CStructField] = []
    offset = 0
    for member_name, member_type in members:
        align = min(8, max(1, member_type.size_bytes))
        if offset % align:
            offset += align - offset % align
        fields.append(CStructField(member_name, member_type, offset))
        offset += member_type.size_bytes
    return CStruct(name, tuple(fields))


# -- builtin type table ----------------------------------------------------------

CHAR = CInt(8, signed=True, name="char")
UCHAR = CInt(8, signed=False, name="unsigned char")
SHORT = CInt(16, signed=True, name="short")
USHORT = CInt(16, signed=False, name="unsigned short")
INT = CInt(32, signed=True, name="int")
UINT = CInt(32, signed=False, name="unsigned int")
LONG = CInt(64, signed=True, name="long")
ULONG = CInt(64, signed=False, name="unsigned long")
BOOL = CInt(1, signed=False, name="_Bool")
VOID = CVoid()

#: typedef name -> type, for the common fixed-width and POSIX-ish typedefs the
#: paper's code snippets use.
BUILTIN_TYPEDEFS: Dict[str, CType] = {
    "int8_t": CInt(8, True, "int8_t"),
    "uint8_t": CInt(8, False, "uint8_t"),
    "int16_t": CInt(16, True, "int16_t"),
    "uint16_t": CInt(16, False, "uint16_t"),
    "int32_t": CInt(32, True, "int32_t"),
    "uint32_t": CInt(32, False, "uint32_t"),
    "int64_t": CInt(64, True, "int64_t"),
    "uint64_t": CInt(64, False, "uint64_t"),
    "size_t": CInt(64, False, "size_t"),
    "ssize_t": CInt(64, True, "ssize_t"),
    "ptrdiff_t": CInt(64, True, "ptrdiff_t"),
    "intptr_t": CInt(64, True, "intptr_t"),
    "uintptr_t": CInt(64, False, "uintptr_t"),
    "off_t": CInt(64, True, "off_t"),
    "bool": BOOL,
}
