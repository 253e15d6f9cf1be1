"""Bit-blasting of QF_BV terms to CNF.

Every bit-vector term is translated into a list of SAT literals, least
significant bit first; boolean terms become a single literal.  Arithmetic is
encoded with standard circuits: ripple-carry adders, shift-and-add
multipliers, barrel shifters, and relational subtraction for comparisons.
Division and remainder are encoded by introducing fresh quotient/remainder
vectors and asserting the defining relation (with the SMT-LIB convention for
division by zero).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.solver.cnf import CnfBuilder
from repro.solver.terms import Op, Term


class BitBlaster:
    """Translates terms into CNF on a :class:`CnfBuilder`."""

    def __init__(self, cnf: CnfBuilder) -> None:
        self.cnf = cnf
        self._bool_cache: Dict[int, int] = {}
        self._bv_cache: Dict[int, List[int]] = {}
        self._var_bits: Dict[str, List[int]] = {}
        self._var_bool: Dict[str, int] = {}
        # Encodings are memoized per hash-consed term id for the lifetime of
        # the blaster; on a persistent (incremental) solver, shared subterms
        # across queries are encoded once.  The counters make that visible.
        self.cache_hits = 0
        self.cache_misses = 0

    # -- public API -----------------------------------------------------------

    def assert_term(self, term: Term) -> None:
        """Assert a boolean term as a top-level constraint."""
        if not term.sort.is_bool():
            raise TypeError("only boolean terms can be asserted")
        lit = self.blast_bool(term)
        self.cnf.assert_lit(lit)

    def blast_bool(self, term: Term) -> int:
        """Return the literal encoding of a boolean term."""
        if not term.sort.is_bool():
            raise TypeError(f"expected a boolean term, got sort {term.sort}")
        cached = self._bool_cache.get(term.tid)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        lit = self._blast_bool_node(term)
        self._bool_cache[term.tid] = lit
        return lit

    def blast_bv(self, term: Term) -> List[int]:
        """Return the bit literals (LSB first) encoding a bit-vector term."""
        if not term.sort.is_bv():
            raise TypeError(f"expected a bit-vector term, got sort {term.sort}")
        cached = self._bv_cache.get(term.tid)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        bits = self._blast_bv_node(term)
        if len(bits) != term.width:
            raise AssertionError(
                f"bit-blasting width mismatch for {term.op}: "
                f"{len(bits)} != {term.width}")
        self._bv_cache[term.tid] = bits
        return bits

    def known_bv_variables(self) -> Dict[str, List[int]]:
        # Name-sorted so model extraction and exported variable maps are
        # stable regardless of the order in which terms were encoded —
        # required for byte-comparable cross-backend/cross-run output.
        return {name: self._var_bits[name] for name in sorted(self._var_bits)}

    def known_bool_variables(self) -> Dict[str, int]:
        return {name: self._var_bool[name] for name in sorted(self._var_bool)}

    # -- boolean nodes -----------------------------------------------------------

    def _blast_bool_node(self, term: Term) -> int:
        cnf = self.cnf
        op = term.op
        if op is Op.CONST:
            return cnf.const(bool(term.value))
        if op is Op.VAR:
            lit = self._var_bool.get(term.name)
            if lit is None:
                lit = cnf.new_lit()
                self._var_bool[term.name] = lit
            return lit
        if op is Op.NOT:
            return -self.blast_bool(term.args[0])
        if op is Op.AND:
            return cnf.and_gate(self.blast_bool(term.args[0]),
                                self.blast_bool(term.args[1]))
        if op is Op.OR:
            return cnf.or_gate(self.blast_bool(term.args[0]),
                               self.blast_bool(term.args[1]))
        if op is Op.XOR:
            return cnf.xor_gate(self.blast_bool(term.args[0]),
                                self.blast_bool(term.args[1]))
        if op is Op.ITE:
            return cnf.mux_gate(self.blast_bool(term.args[0]),
                                self.blast_bool(term.args[1]),
                                self.blast_bool(term.args[2]))
        if op is Op.EQ:
            lhs, rhs = term.args
            if lhs.sort.is_bool():
                return -cnf.xor_gate(self.blast_bool(lhs), self.blast_bool(rhs))
            return cnf.equal_gate(self.blast_bv(lhs), self.blast_bv(rhs))
        if op is Op.DISTINCT:
            lhs, rhs = term.args
            if lhs.sort.is_bool():
                return cnf.xor_gate(self.blast_bool(lhs), self.blast_bool(rhs))
            return -cnf.equal_gate(self.blast_bv(lhs), self.blast_bv(rhs))
        if op in (Op.BVULT, Op.BVULE, Op.BVUGT, Op.BVUGE,
                  Op.BVSLT, Op.BVSLE, Op.BVSGT, Op.BVSGE):
            return self._blast_compare(term)
        raise NotImplementedError(f"cannot bit-blast boolean operator {op}")

    def _blast_compare(self, term: Term) -> int:
        a_bits = self.blast_bv(term.args[0])
        b_bits = self.blast_bv(term.args[1])
        op = term.op
        signed = op in (Op.BVSLT, Op.BVSLE, Op.BVSGT, Op.BVSGE)
        if op in (Op.BVUGT, Op.BVSGT):
            a_bits, b_bits = b_bits, a_bits
            op = Op.BVSLT if signed else Op.BVULT
        elif op in (Op.BVUGE, Op.BVSGE):
            a_bits, b_bits = b_bits, a_bits
            op = Op.BVSLE if signed else Op.BVULE
        lt = self._less_than(a_bits, b_bits, signed)
        if op in (Op.BVULT, Op.BVSLT):
            return lt
        eq = self.cnf.equal_gate(a_bits, b_bits)
        return self.cnf.or_gate(lt, eq)

    def _less_than(self, a: Sequence[int], b: Sequence[int], signed: bool) -> int:
        cnf = self.cnf
        if signed:
            # Flip sign bits so that signed comparison becomes unsigned.
            a = list(a[:-1]) + [-a[-1]]
            b = list(b[:-1]) + [-b[-1]]
        # a < b  iff  the borrow out of (a - b) is set.
        borrow = cnf.false_lit
        for ai, bi in zip(a, b):
            # borrow' = (!ai & bi) | (borrow & !(ai xor bi))
            t1 = cnf.and_gate(-ai, bi)
            t2 = cnf.and_gate(borrow, -cnf.xor_gate(ai, bi))
            borrow = cnf.or_gate(t1, t2)
        return borrow

    # -- bit-vector nodes ---------------------------------------------------------

    def _blast_bv_node(self, term: Term) -> List[int]:
        cnf = self.cnf
        op = term.op
        width = term.width
        if op is Op.CONST:
            return [cnf.const(bool((term.value >> i) & 1)) for i in range(width)]
        if op is Op.VAR:
            bits = self._var_bits.get(term.name)
            if bits is None:
                bits = [cnf.new_lit() for _ in range(width)]
                self._var_bits[term.name] = bits
            return bits
        if op is Op.ITE:
            sel = self.blast_bool(term.args[0])
            then_bits = self.blast_bv(term.args[1])
            else_bits = self.blast_bv(term.args[2])
            return [cnf.mux_gate(sel, t, e) for t, e in zip(then_bits, else_bits)]
        if op is Op.BVNOT:
            return [-bit for bit in self.blast_bv(term.args[0])]
        if op is Op.BVNEG:
            bits = [-bit for bit in self.blast_bv(term.args[0])]
            one = [cnf.true_lit] + [cnf.false_lit] * (width - 1)
            return self._add(bits, one)[0]
        if op is Op.BVAND:
            return [cnf.and_gate(a, b) for a, b in
                    zip(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))]
        if op is Op.BVOR:
            return [cnf.or_gate(a, b) for a, b in
                    zip(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))]
        if op is Op.BVXOR:
            return [cnf.xor_gate(a, b) for a, b in
                    zip(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))]
        if op is Op.BVADD:
            return self._add(self.blast_bv(term.args[0]),
                             self.blast_bv(term.args[1]))[0]
        if op is Op.BVSUB:
            return self._sub(self.blast_bv(term.args[0]),
                             self.blast_bv(term.args[1]))
        if op is Op.BVMUL:
            return self._mul(self.blast_bv(term.args[0]),
                             self.blast_bv(term.args[1]))
        if op in (Op.BVUDIV, Op.BVUREM):
            quotient, remainder = self._udivrem(term.args[0], term.args[1])
            return quotient if op is Op.BVUDIV else remainder
        if op in (Op.BVSDIV, Op.BVSREM):
            quotient, remainder = self._sdivrem(term.args[0], term.args[1])
            return quotient if op is Op.BVSDIV else remainder
        if op is Op.BVSHL:
            return self._shift(term, direction="left", arithmetic=False)
        if op is Op.BVLSHR:
            return self._shift(term, direction="right", arithmetic=False)
        if op is Op.BVASHR:
            return self._shift(term, direction="right", arithmetic=True)
        if op is Op.CONCAT:
            hi = self.blast_bv(term.args[0])
            lo = self.blast_bv(term.args[1])
            return lo + hi
        if op is Op.EXTRACT:
            hi, lo = term.attrs
            return self.blast_bv(term.args[0])[lo:hi + 1]
        if op is Op.ZEXT:
            bits = self.blast_bv(term.args[0])
            return bits + [cnf.false_lit] * term.attrs[0]
        if op is Op.SEXT:
            bits = self.blast_bv(term.args[0])
            return bits + [bits[-1]] * term.attrs[0]
        raise NotImplementedError(f"cannot bit-blast bit-vector operator {op}")

    # -- arithmetic circuits ----------------------------------------------------

    def _add(self, a: Sequence[int], b: Sequence[int],
             carry_in: int | None = None) -> tuple[List[int], int]:
        cnf = self.cnf
        carry = cnf.false_lit if carry_in is None else carry_in
        out: List[int] = []
        for ai, bi in zip(a, b):
            s, carry = cnf.full_adder(ai, bi, carry)
            out.append(s)
        return out, carry

    def _sub(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        negated = [-bit for bit in b]
        return self._add(a, negated, carry_in=self.cnf.true_lit)[0]

    def _mul(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        cnf = self.cnf
        width = len(a)
        acc = [cnf.false_lit] * width
        for i, bi in enumerate(b):
            partial = [cnf.false_lit] * i
            partial += [cnf.and_gate(ai, bi) for ai in a[: width - i]]
            acc = self._add(acc, partial)[0]
        return acc

    def _udivrem(self, num_term: Term, den_term: Term) -> tuple[List[int], List[int]]:
        """Encode unsigned division via fresh result vectors and constraints."""
        cnf = self.cnf
        width = num_term.width
        num = self.blast_bv(num_term)
        den = self.blast_bv(den_term)
        quotient = [cnf.new_lit() for _ in range(width)]
        remainder = [cnf.new_lit() for _ in range(width)]

        den_is_zero = -cnf.or_many(den)

        # Case den != 0: num == quotient * den + remainder, remainder < den,
        # and quotient * den does not overflow.
        product, overflow = self._mul_with_overflow(quotient, den)
        summed, carry = self._add(product, remainder)
        relation_ok = cnf.and_many([
            cnf.equal_gate(summed, num),
            -carry,
            -overflow,
            self._less_than(remainder, den, signed=False),
        ])
        # Case den == 0: quotient is all ones, remainder == num (SMT-LIB).
        zero_case = cnf.and_many(
            [q for q in quotient] + [cnf.equal_gate(remainder, num)])

        cnf.assert_lit(cnf.mux_gate(den_is_zero, zero_case, relation_ok))
        return quotient, remainder

    def _mul_with_overflow(self, a: Sequence[int], b: Sequence[int]) -> tuple[List[int], int]:
        """Multiply and also report whether the full product exceeds the width."""
        cnf = self.cnf
        width = len(a)
        a_ext = list(a) + [cnf.false_lit] * width
        b_ext = list(b) + [cnf.false_lit] * width
        acc = [cnf.false_lit] * (2 * width)
        for i, bi in enumerate(b_ext):
            partial = [cnf.false_lit] * i
            partial += [cnf.and_gate(ai, bi) for ai in a_ext[: 2 * width - i]]
            acc = self._add(acc, partial)[0]
        low = acc[:width]
        overflow = cnf.or_many(acc[width:])
        return low, overflow

    def _sdivrem(self, num_term: Term, den_term: Term) -> tuple[List[int], List[int]]:
        """Encode signed division on top of unsigned division of magnitudes."""
        cnf = self.cnf
        width = num_term.width
        num = self.blast_bv(num_term)
        den = self.blast_bv(den_term)
        num_neg = num[-1]
        den_neg = den[-1]

        abs_num = self._conditional_negate(num, num_neg)
        abs_den = self._conditional_negate(den, den_neg)

        quotient_mag = [cnf.new_lit() for _ in range(width)]
        remainder_mag = [cnf.new_lit() for _ in range(width)]
        den_is_zero = -cnf.or_many(den)

        product, overflow = self._mul_with_overflow(quotient_mag, abs_den)
        summed, carry = self._add(product, remainder_mag)
        relation_ok = cnf.and_many([
            cnf.equal_gate(summed, abs_num),
            -carry,
            -overflow,
            self._less_than(remainder_mag, abs_den, signed=False),
        ])
        cnf.assert_lit(cnf.or_gate(den_is_zero, relation_ok))

        quot_negative = cnf.and_gate(cnf.xor_gate(num_neg, den_neg), -den_is_zero)
        quotient = self._conditional_negate(quotient_mag, quot_negative)
        remainder = self._conditional_negate(remainder_mag, num_neg)

        # Division by zero: SMT-LIB says sdiv yields -1 for non-negative
        # numerators and 1 for negative ones; srem yields the numerator.
        all_ones = [cnf.true_lit] * width
        one = [cnf.true_lit] + [cnf.false_lit] * (width - 1)
        div_zero_result = [cnf.mux_gate(num_neg, o, a) for o, a in zip(one, all_ones)]
        quotient = [cnf.mux_gate(den_is_zero, z, q)
                    for z, q in zip(div_zero_result, quotient)]
        remainder = [cnf.mux_gate(den_is_zero, n, r)
                     for n, r in zip(num, remainder)]
        return quotient, remainder

    def _conditional_negate(self, bits: Sequence[int], cond: int) -> List[int]:
        cnf = self.cnf
        flipped = [cnf.xor_gate(bit, cond) for bit in bits]
        width = len(bits)
        cond_word = [cond] + [cnf.false_lit] * (width - 1)
        return self._add(flipped, cond_word)[0]

    def _shift(self, term: Term, direction: str, arithmetic: bool) -> List[int]:
        cnf = self.cnf
        bits = self.blast_bv(term.args[0])
        amount = self.blast_bv(term.args[1])
        width = len(bits)
        fill = bits[-1] if arithmetic else cnf.false_lit

        # Barrel shifter over the log2(width) low bits of the amount.
        stages = max(1, (width - 1).bit_length())
        current = list(bits)
        for stage in range(stages):
            shift_by = 1 << stage
            sel = amount[stage] if stage < len(amount) else cnf.false_lit
            shifted: List[int] = []
            for i in range(width):
                if direction == "left":
                    src = current[i - shift_by] if i - shift_by >= 0 else cnf.false_lit
                else:
                    src = current[i + shift_by] if i + shift_by < width else fill
                shifted.append(cnf.mux_gate(sel, src, current[i]))
            current = shifted

        # If any higher bit of the amount is set the shift is oversized.
        high_bits = amount[stages:]
        oversized = cnf.or_many(high_bits) if high_bits else cnf.false_lit
        overflow_fill = fill if (arithmetic and direction == "right") else cnf.false_lit
        return [cnf.mux_gate(oversized, overflow_fill, bit) for bit in current]
