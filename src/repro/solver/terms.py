"""Hash-consed term DAG for the QF_BV fragment used by the checker.

Terms are immutable and created through a :class:`TermManager`, which performs
hash-consing (structurally identical terms are the same object) and light
constant folding.  Two sorts exist:

* ``BOOL`` — propositional values,
* ``BV(width)`` — fixed-width bit vectors.

The operator set covers what the STACK queries need: bit-vector arithmetic
(including the wrap-around semantics the paper's ``C*`` dialect assumes),
signed/unsigned comparisons, shifts, zero/sign extension, extraction,
concatenation, if-then-else, and the usual boolean connectives.

Each term carries a manager-unique, stable id (``tid``).  Several layers
key memoization on it: the structural simplifier, the solver-query cache's
canonical serialization, and — critically for incremental solving — the
bit-blaster, which encodes every hash-consed subterm at most once per
solver lifetime.  Ids are only comparable within one manager; the checker
therefore threads a single :class:`TermManager` per function through the
encoder, the query engine, and the solver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple


class Op(enum.Enum):
    """Term operators."""

    # Leaves
    CONST = "const"            # boolean or bit-vector constant
    VAR = "var"                # free variable

    # Boolean connectives
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    IMPLIES = "=>"
    ITE = "ite"                # boolean or bit-vector valued

    # Equality (over bit vectors or booleans)
    EQ = "="
    DISTINCT = "distinct"

    # Bit-vector arithmetic
    BVNEG = "bvneg"
    BVADD = "bvadd"
    BVSUB = "bvsub"
    BVMUL = "bvmul"
    BVUDIV = "bvudiv"
    BVSDIV = "bvsdiv"
    BVUREM = "bvurem"
    BVSREM = "bvsrem"

    # Bit-vector bitwise
    BVNOT = "bvnot"
    BVAND = "bvand"
    BVOR = "bvor"
    BVXOR = "bvxor"

    # Shifts
    BVSHL = "bvshl"
    BVLSHR = "bvlshr"
    BVASHR = "bvashr"

    # Comparisons (boolean result)
    BVULT = "bvult"
    BVULE = "bvule"
    BVUGT = "bvugt"
    BVUGE = "bvuge"
    BVSLT = "bvslt"
    BVSLE = "bvsle"
    BVSGT = "bvsgt"
    BVSGE = "bvsge"

    # Structure
    CONCAT = "concat"
    EXTRACT = "extract"        # attrs: (hi, lo)
    ZEXT = "zext"              # attrs: (extra_bits,)
    SEXT = "sext"              # attrs: (extra_bits,)


@dataclass(frozen=True)
class Sort:
    """Sort of a term: ``BOOL`` or a bit vector of a given width."""

    kind: str                  # "bool" or "bv"
    width: int = 0

    def is_bool(self) -> bool:
        return self.kind == "bool"

    def is_bv(self) -> bool:
        return self.kind == "bv"

    def __repr__(self) -> str:
        if self.is_bool():
            return "Bool"
        return f"BV({self.width})"


BOOL = Sort("bool")


def BV(width: int) -> Sort:
    """Return the bit-vector sort of the given width."""
    if width <= 0:
        raise ValueError(f"bit-vector width must be positive, got {width}")
    return Sort("bv", width)


class Term:
    """A node in the term DAG.

    Instances are created only by :class:`TermManager`; equality is identity
    because the manager hash-conses structurally identical terms.
    """

    __slots__ = ("op", "sort", "args", "attrs", "tid", "_hash")

    def __init__(
        self,
        op: Op,
        sort: Sort,
        args: Tuple["Term", ...],
        attrs: Tuple,
        tid: int,
    ) -> None:
        self.op = op
        self.sort = sort
        self.args = args
        self.attrs = attrs
        self.tid = tid
        self._hash = hash((op, sort, tuple(a.tid for a in args), attrs))

    # -- convenience ------------------------------------------------------

    def is_const(self) -> bool:
        return self.op is Op.CONST

    def is_var(self) -> bool:
        return self.op is Op.VAR

    @property
    def value(self):
        """Constant value (int for BV, bool for BOOL)."""
        if not self.is_const():
            raise ValueError("value is only defined for constant terms")
        return self.attrs[0]

    @property
    def name(self) -> str:
        """Variable name."""
        if not self.is_var():
            raise ValueError("name is only defined for variable terms")
        return self.attrs[0]

    @property
    def width(self) -> int:
        return self.sort.width

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return term_to_str(self)


def term_to_str(term: Term, max_depth: int = 8) -> str:
    """Render a term as an SMT-LIB-flavoured s-expression (for debugging)."""
    if max_depth <= 0:
        return "..."
    if term.op is Op.CONST:
        if term.sort.is_bool():
            return "true" if term.value else "false"
        return f"#x{term.value:0{(term.width + 3) // 4}x}"
    if term.op is Op.VAR:
        return term.name
    parts = [term.op.value]
    if term.op is Op.EXTRACT:
        parts[0] = f"extract[{term.attrs[0]}:{term.attrs[1]}]"
    elif term.op in (Op.ZEXT, Op.SEXT):
        parts[0] = f"{term.op.value}[{term.attrs[0]}]"
    parts.extend(term_to_str(a, max_depth - 1) for a in term.args)
    return "(" + " ".join(parts) + ")"


_COMMUTATIVE = {
    Op.AND, Op.OR, Op.XOR, Op.EQ, Op.DISTINCT,
    Op.BVADD, Op.BVMUL, Op.BVAND, Op.BVOR, Op.BVXOR,
}

#: Public view of the commutative operator set, used by the content-addressed
#: cache and the structural fingerprinter to canonicalize operand order.
COMMUTATIVE_OPS = frozenset(_COMMUTATIVE)


class TermManager:
    """Factory and hash-consing table for :class:`Term` objects.

    The manager also performs local constant folding and a handful of cheap
    structural rewrites (``x & x == x``, ``x + 0 == x``, double negation, ...)
    so that many of the checker's queries are decided without ever reaching
    the SAT solver.
    """

    def __init__(self) -> None:
        self._table: Dict[Tuple, Term] = {}
        self._next_tid = 0
        self._true = self._mk(Op.CONST, BOOL, (), (True,))
        self._false = self._mk(Op.CONST, BOOL, (), (False,))

    # -- internal construction -------------------------------------------

    def _mk(self, op: Op, sort: Sort, args: Tuple[Term, ...], attrs: Tuple) -> Term:
        if op in _COMMUTATIVE and len(args) == 2 and args[0].tid > args[1].tid:
            args = (args[1], args[0])
        key = (op, sort, tuple(a.tid for a in args), attrs)
        existing = self._table.get(key)
        if existing is not None:
            return existing
        term = Term(op, sort, args, attrs, self._next_tid)
        self._next_tid += 1
        self._table[key] = term
        return term

    def __len__(self) -> int:
        return len(self._table)

    # -- leaves ------------------------------------------------------------

    def true(self) -> Term:
        return self._true

    def false(self) -> Term:
        return self._false

    def bool_const(self, value: bool) -> Term:
        return self._true if value else self._false

    def bv_const(self, value: int, width: int) -> Term:
        mask = (1 << width) - 1
        return self._mk(Op.CONST, BV(width), (), (value & mask,))

    def bool_var(self, name: str) -> Term:
        return self._mk(Op.VAR, BOOL, (), (name,))

    def bv_var(self, name: str, width: int) -> Term:
        return self._mk(Op.VAR, BV(width), (), (name,))

    def var(self, name: str, sort: Sort) -> Term:
        if sort.is_bool():
            return self.bool_var(name)
        return self.bv_var(name, sort.width)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _check_bv(term: Term, what: str) -> None:
        if not term.sort.is_bv():
            raise TypeError(f"{what} expects a bit-vector operand, got {term.sort}")

    @staticmethod
    def _check_bool(term: Term, what: str) -> None:
        if not term.sort.is_bool():
            raise TypeError(f"{what} expects a boolean operand, got {term.sort}")

    @staticmethod
    def _check_same_width(a: Term, b: Term, what: str) -> None:
        if a.sort != b.sort:
            raise TypeError(f"{what} operands have mismatched sorts: {a.sort} vs {b.sort}")

    @staticmethod
    def _to_signed(value: int, width: int) -> int:
        if value >= (1 << (width - 1)):
            return value - (1 << width)
        return value

    # -- boolean connectives -----------------------------------------------

    def not_(self, a: Term) -> Term:
        self._check_bool(a, "not")
        if a.is_const():
            return self.bool_const(not a.value)
        if a.op is Op.NOT:
            return a.args[0]
        return self._mk(Op.NOT, BOOL, (a,), ())

    def and_(self, *terms: Term) -> Term:
        flat = []
        for t in terms:
            self._check_bool(t, "and")
            if t.is_const():
                if not t.value:
                    return self.false()
                continue
            flat.append(t)
        if not flat:
            return self.true()
        result = flat[0]
        for t in flat[1:]:
            result = self._and2(result, t)
        return result

    def _and2(self, a: Term, b: Term) -> Term:
        if a is b:
            return a
        if a.is_const():
            return b if a.value else self.false()
        if b.is_const():
            return a if b.value else self.false()
        if (a.op is Op.NOT and a.args[0] is b) or (b.op is Op.NOT and b.args[0] is a):
            return self.false()
        return self._mk(Op.AND, BOOL, (a, b), ())

    def or_(self, *terms: Term) -> Term:
        flat = []
        for t in terms:
            self._check_bool(t, "or")
            if t.is_const():
                if t.value:
                    return self.true()
                continue
            flat.append(t)
        if not flat:
            return self.false()
        result = flat[0]
        for t in flat[1:]:
            result = self._or2(result, t)
        return result

    def _or2(self, a: Term, b: Term) -> Term:
        if a is b:
            return a
        if a.is_const():
            return self.true() if a.value else b
        if b.is_const():
            return self.true() if b.value else a
        if (a.op is Op.NOT and a.args[0] is b) or (b.op is Op.NOT and b.args[0] is a):
            return self.true()
        return self._mk(Op.OR, BOOL, (a, b), ())

    def xor(self, a: Term, b: Term) -> Term:
        self._check_bool(a, "xor")
        self._check_bool(b, "xor")
        if a.is_const() and b.is_const():
            return self.bool_const(a.value != b.value)
        if a is b:
            return self.false()
        if a.is_const():
            return self.not_(b) if a.value else b
        if b.is_const():
            return self.not_(a) if b.value else a
        return self._mk(Op.XOR, BOOL, (a, b), ())

    def implies(self, a: Term, b: Term) -> Term:
        return self.or_(self.not_(a), b)

    def iff(self, a: Term, b: Term) -> Term:
        return self.not_(self.xor(a, b))

    def ite(self, cond: Term, then: Term, els: Term) -> Term:
        self._check_bool(cond, "ite")
        self._check_same_width(then, els, "ite")
        if cond.is_const():
            return then if cond.value else els
        if then is els:
            return then
        if then.sort.is_bool():
            # (ite c true false) == c ; (ite c false true) == !c
            if then.is_const() and els.is_const():
                return cond if then.value else self.not_(cond)
        return self._mk(Op.ITE, then.sort, (cond, then, els), ())

    # -- equality -----------------------------------------------------------

    def eq(self, a: Term, b: Term) -> Term:
        self._check_same_width(a, b, "eq")
        if a is b:
            return self.true()
        if a.is_const() and b.is_const():
            return self.bool_const(a.value == b.value)
        if a.sort.is_bool():
            return self.iff(a, b)
        return self._mk(Op.EQ, BOOL, (a, b), ())

    def distinct(self, a: Term, b: Term) -> Term:
        return self.not_(self.eq(a, b))

    # -- bit-vector arithmetic ----------------------------------------------

    def _bv_binop(self, op: Op, a: Term, b: Term, fold) -> Term:
        self._check_bv(a, op.value)
        self._check_same_width(a, b, op.value)
        width = a.width
        if a.is_const() and b.is_const():
            return self.bv_const(fold(a.value, b.value, width), width)
        return self._mk(op, BV(width), (a, b), ())

    def bvneg(self, a: Term) -> Term:
        self._check_bv(a, "bvneg")
        if a.is_const():
            return self.bv_const(-a.value, a.width)
        return self._mk(Op.BVNEG, a.sort, (a,), ())

    def bvadd(self, a: Term, b: Term) -> Term:
        if b.is_const() and b.value == 0:
            return a
        if a.is_const() and a.value == 0:
            return b
        return self._bv_binop(Op.BVADD, a, b, lambda x, y, w: x + y)

    def bvsub(self, a: Term, b: Term) -> Term:
        if b.is_const() and b.value == 0:
            return a
        if a is b:
            return self.bv_const(0, a.width)
        return self._bv_binop(Op.BVSUB, a, b, lambda x, y, w: x - y)

    def bvmul(self, a: Term, b: Term) -> Term:
        for x, y in ((a, b), (b, a)):
            if x.is_const():
                if x.value == 0:
                    return self.bv_const(0, a.width)
                if x.value == 1:
                    return y
        return self._bv_binop(Op.BVMUL, a, b, lambda x, y, w: x * y)

    def bvudiv(self, a: Term, b: Term) -> Term:
        def fold(x: int, y: int, w: int) -> int:
            if y == 0:
                return (1 << w) - 1  # SMT-LIB: udiv by zero is all-ones
            return x // y
        return self._bv_binop(Op.BVUDIV, a, b, fold)

    def bvurem(self, a: Term, b: Term) -> Term:
        def fold(x: int, y: int, w: int) -> int:
            if y == 0:
                return x
            return x % y
        return self._bv_binop(Op.BVUREM, a, b, fold)

    def bvsdiv(self, a: Term, b: Term) -> Term:
        def fold(x: int, y: int, w: int) -> int:
            sx, sy = self._to_signed(x, w), self._to_signed(y, w)
            if sy == 0:
                return (1 << w) - 1 if sx >= 0 else 1
            q = abs(sx) // abs(sy)
            if (sx < 0) != (sy < 0):
                q = -q
            return q
        return self._bv_binop(Op.BVSDIV, a, b, fold)

    def bvsrem(self, a: Term, b: Term) -> Term:
        def fold(x: int, y: int, w: int) -> int:
            sx, sy = self._to_signed(x, w), self._to_signed(y, w)
            if sy == 0:
                return sx
            r = abs(sx) % abs(sy)
            return -r if sx < 0 else r
        return self._bv_binop(Op.BVSREM, a, b, fold)

    # -- bit-vector bitwise ----------------------------------------------

    def bvnot(self, a: Term) -> Term:
        self._check_bv(a, "bvnot")
        if a.is_const():
            return self.bv_const(~a.value, a.width)
        if a.op is Op.BVNOT:
            return a.args[0]
        return self._mk(Op.BVNOT, a.sort, (a,), ())

    def bvand(self, a: Term, b: Term) -> Term:
        if a is b:
            return a
        return self._bv_binop(Op.BVAND, a, b, lambda x, y, w: x & y)

    def bvor(self, a: Term, b: Term) -> Term:
        if a is b:
            return a
        return self._bv_binop(Op.BVOR, a, b, lambda x, y, w: x | y)

    def bvxor(self, a: Term, b: Term) -> Term:
        if a is b:
            return self.bv_const(0, a.width)
        return self._bv_binop(Op.BVXOR, a, b, lambda x, y, w: x ^ y)

    # -- shifts ------------------------------------------------------------

    def bvshl(self, a: Term, b: Term) -> Term:
        def fold(x: int, y: int, w: int) -> int:
            if y >= w:
                return 0
            return x << y
        return self._bv_binop(Op.BVSHL, a, b, fold)

    def bvlshr(self, a: Term, b: Term) -> Term:
        def fold(x: int, y: int, w: int) -> int:
            if y >= w:
                return 0
            return x >> y
        return self._bv_binop(Op.BVLSHR, a, b, fold)

    def bvashr(self, a: Term, b: Term) -> Term:
        def fold(x: int, y: int, w: int) -> int:
            sx = self._to_signed(x, w)
            if y >= w:
                return -1 if sx < 0 else 0
            return sx >> y
        return self._bv_binop(Op.BVASHR, a, b, fold)

    # -- comparisons -------------------------------------------------------

    def _bv_cmp(self, op: Op, a: Term, b: Term, fold) -> Term:
        self._check_bv(a, op.value)
        self._check_same_width(a, b, op.value)
        if a.is_const() and b.is_const():
            return self.bool_const(fold(a.value, b.value, a.width))
        if a is b:
            reflexive = {Op.BVULE: True, Op.BVUGE: True, Op.BVSLE: True, Op.BVSGE: True,
                         Op.BVULT: False, Op.BVUGT: False, Op.BVSLT: False, Op.BVSGT: False}
            return self.bool_const(reflexive[op])
        return self._mk(op, BOOL, (a, b), ())

    def bvult(self, a: Term, b: Term) -> Term:
        return self._bv_cmp(Op.BVULT, a, b, lambda x, y, w: x < y)

    def bvule(self, a: Term, b: Term) -> Term:
        return self._bv_cmp(Op.BVULE, a, b, lambda x, y, w: x <= y)

    def bvugt(self, a: Term, b: Term) -> Term:
        return self._bv_cmp(Op.BVUGT, a, b, lambda x, y, w: x > y)

    def bvuge(self, a: Term, b: Term) -> Term:
        return self._bv_cmp(Op.BVUGE, a, b, lambda x, y, w: x >= y)

    def bvslt(self, a: Term, b: Term) -> Term:
        return self._bv_cmp(
            Op.BVSLT, a, b,
            lambda x, y, w: self._to_signed(x, w) < self._to_signed(y, w))

    def bvsle(self, a: Term, b: Term) -> Term:
        return self._bv_cmp(
            Op.BVSLE, a, b,
            lambda x, y, w: self._to_signed(x, w) <= self._to_signed(y, w))

    def bvsgt(self, a: Term, b: Term) -> Term:
        return self._bv_cmp(
            Op.BVSGT, a, b,
            lambda x, y, w: self._to_signed(x, w) > self._to_signed(y, w))

    def bvsge(self, a: Term, b: Term) -> Term:
        return self._bv_cmp(
            Op.BVSGE, a, b,
            lambda x, y, w: self._to_signed(x, w) >= self._to_signed(y, w))

    # -- structural --------------------------------------------------------

    def concat(self, hi: Term, lo: Term) -> Term:
        self._check_bv(hi, "concat")
        self._check_bv(lo, "concat")
        width = hi.width + lo.width
        if hi.is_const() and lo.is_const():
            return self.bv_const((hi.value << lo.width) | lo.value, width)
        return self._mk(Op.CONCAT, BV(width), (hi, lo), ())

    def extract(self, a: Term, hi: int, lo: int) -> Term:
        self._check_bv(a, "extract")
        if not (0 <= lo <= hi < a.width):
            raise ValueError(f"invalid extract [{hi}:{lo}] on width {a.width}")
        width = hi - lo + 1
        if a.is_const():
            return self.bv_const(a.value >> lo, width)
        if hi == a.width - 1 and lo == 0:
            return a
        return self._mk(Op.EXTRACT, BV(width), (a,), (hi, lo))

    def zext(self, a: Term, extra: int) -> Term:
        self._check_bv(a, "zext")
        if extra < 0:
            raise ValueError("zext amount must be non-negative")
        if extra == 0:
            return a
        if a.is_const():
            return self.bv_const(a.value, a.width + extra)
        return self._mk(Op.ZEXT, BV(a.width + extra), (a,), (extra,))

    def sext(self, a: Term, extra: int) -> Term:
        self._check_bv(a, "sext")
        if extra < 0:
            raise ValueError("sext amount must be non-negative")
        if extra == 0:
            return a
        if a.is_const():
            return self.bv_const(self._to_signed(a.value, a.width), a.width + extra)
        return self._mk(Op.SEXT, BV(a.width + extra), (a,), (extra,))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, term: Term, assignment: Dict[str, int]) -> int:
        """Evaluate ``term`` under a concrete assignment of variable values.

        Boolean results are returned as Python bools, bit-vector results as
        non-negative ints.  Used by tests and for model validation.
        """
        cache: Dict[int, int] = {}

        def ev(t: Term):
            if t.tid in cache:
                return cache[t.tid]
            result = self._eval_node(t, assignment, ev)
            cache[t.tid] = result
            return result

        return ev(term)

    def _eval_node(self, t: Term, assignment: Dict[str, int], ev):
        if t.op is Op.CONST:
            return t.value
        if t.op is Op.VAR:
            if t.name not in assignment:
                raise KeyError(f"no assignment for variable {t.name!r}")
            val = assignment[t.name]
            if t.sort.is_bool():
                return bool(val)
            return val & ((1 << t.width) - 1)
        args = [ev(a) for a in t.args]
        return _fold_op(self, t, args)


def _fold_op(mgr: TermManager, t: Term, args) -> int:
    """Interpret operator ``t.op`` over already-evaluated arguments."""
    op = t.op
    if op is Op.NOT:
        return not args[0]
    if op is Op.AND:
        return bool(args[0]) and bool(args[1])
    if op is Op.OR:
        return bool(args[0]) or bool(args[1])
    if op is Op.XOR:
        return bool(args[0]) != bool(args[1])
    if op is Op.ITE:
        return args[1] if args[0] else args[2]
    if op is Op.EQ:
        return args[0] == args[1]
    if op is Op.DISTINCT:
        return args[0] != args[1]

    width = t.args[0].width if t.args and t.args[0].sort.is_bv() else t.width
    mask = (1 << width) - 1 if width else 0
    sgn = lambda v: TermManager._to_signed(v, width)

    if op is Op.BVNEG:
        return (-args[0]) & mask
    if op is Op.BVADD:
        return (args[0] + args[1]) & mask
    if op is Op.BVSUB:
        return (args[0] - args[1]) & mask
    if op is Op.BVMUL:
        return (args[0] * args[1]) & mask
    if op is Op.BVUDIV:
        return mask if args[1] == 0 else (args[0] // args[1]) & mask
    if op is Op.BVUREM:
        return args[0] if args[1] == 0 else (args[0] % args[1]) & mask
    if op is Op.BVSDIV:
        x, y = sgn(args[0]), sgn(args[1])
        if y == 0:
            return mask if x >= 0 else 1
        q = abs(x) // abs(y)
        if (x < 0) != (y < 0):
            q = -q
        return q & mask
    if op is Op.BVSREM:
        x, y = sgn(args[0]), sgn(args[1])
        if y == 0:
            return x & mask
        r = abs(x) % abs(y)
        return (-r if x < 0 else r) & mask
    if op is Op.BVNOT:
        return (~args[0]) & mask
    if op is Op.BVAND:
        return args[0] & args[1]
    if op is Op.BVOR:
        return args[0] | args[1]
    if op is Op.BVXOR:
        return args[0] ^ args[1]
    if op is Op.BVSHL:
        return 0 if args[1] >= width else (args[0] << args[1]) & mask
    if op is Op.BVLSHR:
        return 0 if args[1] >= width else args[0] >> args[1]
    if op is Op.BVASHR:
        x = sgn(args[0])
        shift = min(args[1], width)
        return (x >> shift) & mask
    if op is Op.BVULT:
        return args[0] < args[1]
    if op is Op.BVULE:
        return args[0] <= args[1]
    if op is Op.BVUGT:
        return args[0] > args[1]
    if op is Op.BVUGE:
        return args[0] >= args[1]
    if op is Op.BVSLT:
        return sgn(args[0]) < sgn(args[1])
    if op is Op.BVSLE:
        return sgn(args[0]) <= sgn(args[1])
    if op is Op.BVSGT:
        return sgn(args[0]) > sgn(args[1])
    if op is Op.BVSGE:
        return sgn(args[0]) >= sgn(args[1])
    if op is Op.CONCAT:
        return (args[0] << t.args[1].width) | args[1]
    if op is Op.EXTRACT:
        hi, lo = t.attrs
        return (args[0] >> lo) & ((1 << (hi - lo + 1)) - 1)
    if op is Op.ZEXT:
        return args[0]
    if op is Op.SEXT:
        return sgn(args[0]) & ((1 << t.width) - 1)
    raise NotImplementedError(f"cannot evaluate operator {op}")


def collect_variables(term: Term) -> Dict[str, Sort]:
    """Return the free variables of ``term`` mapped to their sorts."""
    seen: Dict[int, None] = {}
    out: Dict[str, Sort] = {}
    stack = [term]
    while stack:
        t = stack.pop()
        if t.tid in seen:
            continue
        seen[t.tid] = None
        if t.is_var():
            out[t.name] = t.sort
        stack.extend(t.args)
    return out
