"""CNF construction helpers for the bit-blaster.

The :class:`CnfBuilder` wraps a :class:`~repro.solver.sat.SatSolver` and
offers Tseitin-style gate encodings over SAT literals.  Literals follow the
DIMACS convention (positive/negative ints); the special constants ``TRUE``
and ``FALSE`` are represented by a dedicated root-level variable so that gate
encoders never need to special-case them.

AND and XOR gates are structurally hashed: a per-builder memo maps the
normalized input pair to the output literal, so a gate of inputs the
builder has already encoded costs no variable and no clause.  AND is keyed
on the sorted signed pair; XOR on the sorted pair of variables, with the
output negated when exactly one input was negative
(``xor(-a, b) == -xor(a, b)``).  Every other encoding (OR, the adders,
comparators, multipliers, shifters, dividers) is built from these two and
shares gates through them; MUX is not hashed.  The memo lives as long as
the builder, which for an incremental solver means across queries and
push/pop.  That is sound because gate clauses are never guarded: only
:meth:`CnfBuilder.assert_lit` takes a guard, and it guards the asserted
literal alone, so every gate definition holds in every frame.

With ``record=True`` the builder additionally keeps every emitted clause in
:attr:`CnfBuilder.clauses`, which is how the solver backends
(:mod:`repro.solver.backends`) are fed: external engines receive the exact
clause stream the in-process solver saw.  :func:`emit_dimacs` /
:func:`parse_dimacs` convert that stream to and from DIMACS text with a
*stable, sorted variable numbering* — variables are renumbered ``1..n`` in
ascending order of their original index and literals are sorted within each
clause — so two runs that blast the same terms export byte-identical files
(the property the cross-backend differential suite diffs on).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.solver.sat import SatSolver


def emit_dimacs(clauses: Sequence[Sequence[int]],
                num_vars: Optional[int] = None,
                comment: Optional[str] = None,
                canonical: bool = True) -> str:
    """Render clauses as DIMACS CNF text with canonical numbering.

    With ``canonical=True`` variables are renumbered ``1..n`` by ascending
    original index; either way the literals of each clause are sorted by
    (variable, polarity) and clause order is preserved.  Canonical output
    is therefore byte-identical across runs and across allocation gaps,
    which makes exported queries comparable between backends and between
    runs.  ``canonical=False`` keeps the original numbering — used when
    the produced model must be read back in the caller's variable space
    (the ``dimacs`` backend's solving path).
    """
    used = sorted({abs(lit) for clause in clauses for lit in clause})
    if canonical:
        remap = {var: index + 1 for index, var in enumerate(used)}
        if num_vars is None:
            num_vars = len(used)
    else:
        remap = {var: var for var in used}
        if num_vars is None:
            num_vars = used[-1] if used else 0
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p cnf {num_vars} {len(clauses)}")
    for clause in clauses:
        mapped = sorted(
            ((1 if lit > 0 else -1) * remap[abs(lit)] for lit in clause),
            key=lambda lit: (abs(lit), lit < 0))
        lines.append(" ".join(str(lit) for lit in mapped) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Tuple[int, List[List[int]]]:
    """Parse DIMACS CNF text into ``(num_vars, clauses)``.

    Tolerates comments, blank lines, and clauses spanning multiple lines
    (terminated by ``0``, per the format).
    """
    num_vars = 0
    clauses: List[List[int]] = []
    current: List[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise ValueError(f"malformed DIMACS problem line: {line!r}")
            num_vars = int(parts[2])
            continue
        for token in line.split():
            lit = int(token)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
                num_vars = max(num_vars, abs(lit))
    if current:
        clauses.append(current)
    return num_vars, clauses


class CnfBuilder:
    """Builds CNF clauses incrementally on top of a SAT solver."""

    def __init__(self, sat: SatSolver, record: bool = False) -> None:
        self.sat = sat
        self.num_clauses = 0
        #: Verbatim clause stream (only populated with ``record=True``);
        #: append-only, so backends can consume it with a cursor.
        self.clauses: List[List[int]] = []
        self._record = record
        # Structural hashing: normalized input pair -> output literal.
        self._and_memo: Dict[Tuple[int, int], int] = {}
        self._xor_memo: Dict[Tuple[int, int], int] = {}
        # A variable constrained to true; its negation encodes false.
        self._true = sat.new_var()
        self.add_clause([self._true])

    @property
    def true_lit(self) -> int:
        return self._true

    @property
    def false_lit(self) -> int:
        return -self._true

    # -- raw interface -------------------------------------------------------

    def new_lit(self) -> int:
        return self.sat.new_var()

    def add_clause(self, lits: Sequence[int]) -> None:
        self.num_clauses += 1
        if self._record:
            self.clauses.append(list(lits))
        self.sat.add_clause(list(lits))

    # -- constant handling ----------------------------------------------------

    def const(self, value: bool) -> int:
        return self._true if value else -self._true

    def is_const(self, lit: int) -> bool:
        return abs(lit) == self._true

    def const_value(self, lit: int) -> bool:
        return lit == self._true

    # -- gates ------------------------------------------------------------------

    def and_gate(self, a: int, b: int) -> int:
        if self.is_const(a):
            return b if self.const_value(a) else self.false_lit
        if self.is_const(b):
            return a if self.const_value(b) else self.false_lit
        if a == b:
            return a
        if a == -b:
            return self.false_lit
        key = (a, b) if a < b else (b, a)
        out = self._and_memo.get(key)
        if out is None:
            out = self._and_memo[key] = self.new_lit()
            self.add_clause([-out, a])
            self.add_clause([-out, b])
            self.add_clause([out, -a, -b])
        return out

    def or_gate(self, a: int, b: int) -> int:
        return -self.and_gate(-a, -b)

    def xor_gate(self, a: int, b: int) -> int:
        if self.is_const(a):
            return -b if self.const_value(a) else b
        if self.is_const(b):
            return -a if self.const_value(b) else a
        if a == b:
            return self.false_lit
        if a == -b:
            return self.true_lit
        # xor(-a, b) == -xor(a, b): one gate per pair of variables.
        negate = (a < 0) != (b < 0)
        a, b = abs(a), abs(b)
        key = (a, b) if a < b else (b, a)
        out = self._xor_memo.get(key)
        if out is None:
            out = self._xor_memo[key] = self.new_lit()
            self.add_clause([-out, a, b])
            self.add_clause([-out, -a, -b])
            self.add_clause([out, -a, b])
            self.add_clause([out, a, -b])
        return -out if negate else out

    def mux_gate(self, sel: int, then: int, els: int) -> int:
        """Return ``sel ? then : els``."""
        if self.is_const(sel):
            return then if self.const_value(sel) else els
        if then == els:
            return then
        out = self.new_lit()
        self.add_clause([-out, -sel, then])
        self.add_clause([-out, sel, els])
        self.add_clause([out, -sel, -then])
        self.add_clause([out, sel, -els])
        return out

    def and_many(self, lits: Iterable[int]) -> int:
        out = self.true_lit
        for lit in lits:
            out = self.and_gate(out, lit)
        return out

    def or_many(self, lits: Iterable[int]) -> int:
        out = self.false_lit
        for lit in lits:
            out = self.or_gate(out, lit)
        return out

    # -- arithmetic primitives -----------------------------------------------

    def half_adder(self, a: int, b: int) -> tuple[int, int]:
        """Return (sum, carry)."""
        return self.xor_gate(a, b), self.and_gate(a, b)

    def full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        """Return (sum, carry-out)."""
        s1, c1 = self.half_adder(a, b)
        s2, c2 = self.half_adder(s1, cin)
        return s2, self.or_gate(c1, c2)

    def equal_gate(self, a_bits: Sequence[int], b_bits: Sequence[int]) -> int:
        diff = [self.xor_gate(a, b) for a, b in zip(a_bits, b_bits)]
        return -self.or_many(diff)

    def assert_lit(self, lit: int, guard: Optional[int] = None) -> None:
        """Force a literal to be true.

        With ``guard`` (an activation literal) the assertion only takes
        effect while ``guard`` is assumed true: the clause added is
        ``(-guard ∨ lit)``, and permanently asserting ``-guard`` later
        retires the assertion without touching the clause database — this is
        how the incremental :class:`~repro.solver.solver.Solver` implements
        push/pop without CNF rebuilds.
        """
        if guard is None:
            self.add_clause([lit])
        else:
            self.add_clause([-guard, lit])
