"""Structural term simplification beyond local constant folding.

The :class:`TermManager` already performs local folding at construction time.
This module adds a small rewriting pass that is applied to whole assertions
before bit-blasting.  It is not required for correctness — the bit-blaster
handles arbitrary terms — but it decides a large fraction of the checker's
queries without touching the SAT solver, which is what keeps the pure-Python
reproduction fast enough to analyze corpus-scale inputs.
"""

from __future__ import annotations

from typing import Dict

from repro.solver.terms import Op, Term, TermManager


def simplify(mgr: TermManager, term: Term) -> Term:
    """Return a simplified term equivalent to ``term``."""
    cache: Dict[int, Term] = {}

    def walk(t: Term) -> Term:
        cached = cache.get(t.tid)
        if cached is not None:
            return cached
        if not t.args:
            cache[t.tid] = t
            return t
        new_args = tuple(walk(a) for a in t.args)
        rebuilt = _rebuild(mgr, t, new_args)
        rewritten = _rewrite(mgr, rebuilt)
        cache[t.tid] = rewritten
        return rewritten

    return walk(term)


def _rebuild(mgr: TermManager, t: Term, args: tuple) -> Term:
    """Re-run the manager constructor so folding applies to new arguments."""
    op = t.op
    if args == t.args:
        return t
    builders = {
        Op.NOT: lambda: mgr.not_(args[0]),
        Op.AND: lambda: mgr.and_(*args),
        Op.OR: lambda: mgr.or_(*args),
        Op.XOR: lambda: mgr.xor(args[0], args[1]),
        Op.ITE: lambda: mgr.ite(args[0], args[1], args[2]),
        Op.EQ: lambda: mgr.eq(args[0], args[1]),
        Op.DISTINCT: lambda: mgr.distinct(args[0], args[1]),
        Op.BVNEG: lambda: mgr.bvneg(args[0]),
        Op.BVADD: lambda: mgr.bvadd(args[0], args[1]),
        Op.BVSUB: lambda: mgr.bvsub(args[0], args[1]),
        Op.BVMUL: lambda: mgr.bvmul(args[0], args[1]),
        Op.BVUDIV: lambda: mgr.bvudiv(args[0], args[1]),
        Op.BVSDIV: lambda: mgr.bvsdiv(args[0], args[1]),
        Op.BVUREM: lambda: mgr.bvurem(args[0], args[1]),
        Op.BVSREM: lambda: mgr.bvsrem(args[0], args[1]),
        Op.BVNOT: lambda: mgr.bvnot(args[0]),
        Op.BVAND: lambda: mgr.bvand(args[0], args[1]),
        Op.BVOR: lambda: mgr.bvor(args[0], args[1]),
        Op.BVXOR: lambda: mgr.bvxor(args[0], args[1]),
        Op.BVSHL: lambda: mgr.bvshl(args[0], args[1]),
        Op.BVLSHR: lambda: mgr.bvlshr(args[0], args[1]),
        Op.BVASHR: lambda: mgr.bvashr(args[0], args[1]),
        Op.BVULT: lambda: mgr.bvult(args[0], args[1]),
        Op.BVULE: lambda: mgr.bvule(args[0], args[1]),
        Op.BVUGT: lambda: mgr.bvugt(args[0], args[1]),
        Op.BVUGE: lambda: mgr.bvuge(args[0], args[1]),
        Op.BVSLT: lambda: mgr.bvslt(args[0], args[1]),
        Op.BVSLE: lambda: mgr.bvsle(args[0], args[1]),
        Op.BVSGT: lambda: mgr.bvsgt(args[0], args[1]),
        Op.BVSGE: lambda: mgr.bvsge(args[0], args[1]),
        Op.CONCAT: lambda: mgr.concat(args[0], args[1]),
        Op.EXTRACT: lambda: mgr.extract(args[0], t.attrs[0], t.attrs[1]),
        Op.ZEXT: lambda: mgr.zext(args[0], t.attrs[0]),
        Op.SEXT: lambda: mgr.sext(args[0], t.attrs[0]),
    }
    builder = builders.get(op)
    if builder is None:
        return t
    return builder()


def _rewrite(mgr: TermManager, t: Term) -> Term:
    """Apply a handful of algebraic rewrites on a single node."""
    op = t.op

    # (x + c1) cmp x  and  x cmp (x + c1) patterns are left to the checker's
    # algebra oracle; here we only normalise a few cheap identities.

    if op in (Op.BVXOR, Op.BVSUB) and t.args[0] is t.args[1]:
        # x ^ x -> 0 and x - x -> 0 (hash-consing makes identity exact).
        return mgr.bv_const(0, t.sort.width)
    if op in (Op.BVAND, Op.BVOR) and t.args[0] is t.args[1]:
        # x & x -> x and x | x -> x
        return t.args[0]

    if op in (Op.BVSHL, Op.BVLSHR, Op.BVASHR) and t.args[1].is_const() \
            and t.args[1].value == 0:
        # x << 0 -> x and x >> 0 -> x (logical and arithmetic alike).
        return t.args[0]
    if op in (Op.BVSHL, Op.BVLSHR) and t.args[1].is_const() \
            and t.args[0].op is op and t.args[0].args[1].is_const():
        # Shift chains with constant amounts fold into one shift:
        # (x << c1) << c2 -> x << (c1 + c2), and likewise for lshr.  The
        # amounts add without wrapping; a total >= width zeroes the value
        # outright (both directions shift in zeros).  Fuzzed shift-guard
        # programs produce these chains constantly — see docs/FUZZ.md.
        width = t.sort.width
        total = t.args[0].args[1].value + t.args[1].value
        if total >= width:
            return mgr.bv_const(0, width)
        builder = mgr.bvshl if op is Op.BVSHL else mgr.bvlshr
        return builder(t.args[0].args[0], mgr.bv_const(total, width))
    if op is Op.BVNEG and t.args[0].op is Op.BVNEG:
        # -(-x) -> x; the NOT/BVNOT double negations fold at construction.
        return t.args[0].args[0]

    if op is Op.EXTRACT:
        hi, lo = t.attrs
        inner = t.args[0]
        if inner.op is Op.CONCAT:
            # extract of a concat that stays within one half forwards to
            # that half (encoder-produced truncations of widening chains).
            concat_hi, concat_lo = inner.args
            if hi < concat_lo.width:
                return mgr.extract(concat_lo, hi, lo)
            if lo >= concat_lo.width:
                return mgr.extract(concat_hi, hi - concat_lo.width,
                                   lo - concat_lo.width)
        if inner.op in (Op.ZEXT, Op.SEXT):
            base = inner.args[0]
            if hi < base.width:
                # The extracted bits never reach the extension.
                return mgr.extract(base, hi, lo)
            if inner.op is Op.ZEXT and lo >= base.width:
                # Purely extension bits of a zext are zero.
                return mgr.bv_const(0, hi - lo + 1)

    if op in (Op.BVAND, Op.BVOR, Op.BVXOR):
        width = t.sort.width
        ones = (1 << width) - 1
        for this, other in ((t.args[0], t.args[1]), (t.args[1], t.args[0])):
            if not other.is_const():
                continue
            if other.value == 0:
                # x & 0 -> 0;  x | 0 -> x;  x ^ 0 -> x
                return mgr.bv_const(0, width) if op is Op.BVAND else this
            if other.value == ones:
                # x & ~0 -> x;  x | ~0 -> ~0;  x ^ ~0 -> ~x
                if op is Op.BVAND:
                    return this
                if op is Op.BVOR:
                    return mgr.bv_const(ones, width)
                return mgr.bvnot(this)

    if op in (Op.EQ, Op.DISTINCT) and t.args[0].sort.is_bv():
        lhs, rhs = t.args
        # (a - b) == 0  ->  a == b
        if rhs.is_const() and rhs.value == 0 and lhs.op is Op.BVSUB:
            equal = mgr.eq(lhs.args[0], lhs.args[1])
            return equal if op is Op.EQ else mgr.not_(equal)

    if op in (Op.BVULT, Op.BVUGT, Op.BVULE, Op.BVUGE,
              Op.BVSLT, Op.BVSGT, Op.BVSLE, Op.BVSGE):
        lhs, rhs = t.args
        # x < 0 (unsigned) is always false; x >= 0 (unsigned) is always true.
        if rhs.is_const() and rhs.value == 0:
            if op is Op.BVULT:
                return mgr.false()
            if op is Op.BVUGE:
                return mgr.true()
    return t


def term_size(term: Term) -> int:
    """Number of distinct nodes in the term DAG (used for stats/tests)."""
    seen = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if t.tid in seen:
            continue
        seen.add(t.tid)
        stack.extend(t.args)
    return len(seen)
