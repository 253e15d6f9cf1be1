"""Undefined-behavior conditions (the paper's Figure 3).

Each :class:`UBKind` corresponds to one row of Figure 3.  A
:class:`UBCondition` attaches a solver term for the sufficient condition to
the IR instruction that would trigger it; the encoder
(:mod:`repro.core.encode`) produces these during its annotation pass, which
plays the role of STACK's ``bug_on`` call insertion (§4.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.ir.instructions import Instruction
from repro.solver.terms import Term


class UBKind(enum.Enum):
    """The undefined-behavior families from Figure 3 of the paper."""

    POINTER_OVERFLOW = "pointer overflow"
    NULL_DEREF = "null pointer dereference"
    SIGNED_OVERFLOW = "signed integer overflow"
    DIV_BY_ZERO = "division by zero"
    OVERSIZED_SHIFT = "oversized shift"
    BUFFER_OVERFLOW = "buffer overflow"
    ABS_OVERFLOW = "absolute value overflow"
    MEMCPY_OVERLAP = "overlapping memory copy"
    USE_AFTER_FREE = "use after free"
    USE_AFTER_REALLOC = "use after realloc"
    ALIASING = "strict aliasing violation"
    UNINITIALIZED = "uninitialized read"

    @property
    def short_name(self) -> str:
        return _SHORT_NAMES[self]

    @property
    def construct(self) -> str:
        """The C construct column of Figure 3."""
        return _CONSTRUCTS[self]

    @property
    def condition_description(self) -> str:
        """The sufficient-condition column of Figure 3."""
        return _CONDITIONS[self]


_SHORT_NAMES = {
    UBKind.POINTER_OVERFLOW: "pointer",
    UBKind.NULL_DEREF: "null",
    UBKind.SIGNED_OVERFLOW: "integer",
    UBKind.DIV_BY_ZERO: "div",
    UBKind.OVERSIZED_SHIFT: "shift",
    UBKind.BUFFER_OVERFLOW: "buffer",
    UBKind.ABS_OVERFLOW: "abs",
    UBKind.MEMCPY_OVERLAP: "memcpy",
    UBKind.USE_AFTER_FREE: "free",
    UBKind.USE_AFTER_REALLOC: "realloc",
    UBKind.ALIASING: "aliasing",
    UBKind.UNINITIALIZED: "uninit",
}

_CONSTRUCTS = {
    UBKind.POINTER_OVERFLOW: "p + x",
    UBKind.NULL_DEREF: "*p",
    UBKind.SIGNED_OVERFLOW: "x ops y (signed)",
    UBKind.DIV_BY_ZERO: "x / y, x % y",
    UBKind.OVERSIZED_SHIFT: "x << y, x >> y",
    UBKind.BUFFER_OVERFLOW: "a[x]",
    UBKind.ABS_OVERFLOW: "abs(x)",
    UBKind.MEMCPY_OVERLAP: "memcpy(dst, src, len)",
    UBKind.USE_AFTER_FREE: "use q after free(p)",
    UBKind.USE_AFTER_REALLOC: "use q after realloc(p, ...)",
    UBKind.ALIASING: "type-punned access",
    UBKind.UNINITIALIZED: "use of uninitialized variable",
}

_CONDITIONS = {
    UBKind.POINTER_OVERFLOW: "p∞ + x∞ outside [0, 2^n - 1]",
    UBKind.NULL_DEREF: "p = NULL",
    UBKind.SIGNED_OVERFLOW: "x∞ ops y∞ outside [-2^(n-1), 2^(n-1) - 1]",
    UBKind.DIV_BY_ZERO: "y = 0",
    UBKind.OVERSIZED_SHIFT: "y < 0 or y >= n",
    UBKind.BUFFER_OVERFLOW: "x < 0 or x >= ARRAY_SIZE(a)",
    UBKind.ABS_OVERFLOW: "x = -2^(n-1)",
    UBKind.MEMCPY_OVERLAP: "|dst - src| < len",
    UBKind.USE_AFTER_FREE: "alias(p, q)",
    UBKind.USE_AFTER_REALLOC: "alias(p, q) and p' != NULL",
    UBKind.ALIASING: "incompatible effective types",
    UBKind.UNINITIALIZED: "no prior store",
}

#: The kinds the checker implements, in the order of Figure 3.  Strict
#: aliasing and uninitialized reads are intentionally unimplemented, matching
#: the paper's §4.6 (gcc already warns for both).
IMPLEMENTED_KINDS = (
    UBKind.POINTER_OVERFLOW,
    UBKind.NULL_DEREF,
    UBKind.SIGNED_OVERFLOW,
    UBKind.DIV_BY_ZERO,
    UBKind.OVERSIZED_SHIFT,
    UBKind.BUFFER_OVERFLOW,
    UBKind.ABS_OVERFLOW,
    UBKind.MEMCPY_OVERLAP,
    UBKind.USE_AFTER_FREE,
    UBKind.USE_AFTER_REALLOC,
)

UNIMPLEMENTED_KINDS = (UBKind.ALIASING, UBKind.UNINITIALIZED)


@dataclass
class UBCondition:
    """One undefined-behavior condition attached to an instruction.

    ``condition`` is a boolean solver term that is true exactly when the
    instruction exhibits the undefined behavior (a sufficient condition, per
    Figure 3).
    """

    kind: UBKind
    condition: Term
    instruction: Instruction
    note: str = ""

    @property
    def location(self):
        return self.instruction.location

    def describe(self) -> str:
        where = f" at {self.location}" if self.location.is_known() else ""
        note = f" ({self.note})" if self.note else ""
        return f"{self.kind.value}{note}{where}"


def figure3_rows():
    """Rows of Figure 3 as (construct, condition, name) tuples (for reports)."""
    rows = []
    for kind in IMPLEMENTED_KINDS:
        rows.append((kind.construct, kind.condition_description, kind.value))
    return rows
