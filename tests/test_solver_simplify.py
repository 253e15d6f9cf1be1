"""Tests for the structural simplifier's algebraic rewrites.

The same-operand identities (``x ^ x -> 0``, ``x & x -> x``, ``x | x -> x``,
``x - x -> 0``) must be applied by :func:`repro.solver.simplify.simplify`
and must preserve solver verdicts — asserted both by evaluation over
concrete assignments and by discharging the equivalence with the solver
itself.
"""

import pytest

from repro.solver.simplify import simplify, term_size
from repro.solver.solver import CheckResult, Solver
from repro.solver.terms import Op, TermManager


@pytest.fixture
def mgr():
    return TermManager()


def build_same_operand(mgr, op_name, x):
    builder = {"xor": mgr.bvxor, "and": mgr.bvand,
               "or": mgr.bvor, "sub": mgr.bvsub}[op_name]
    return builder(x, x)


class TestSameOperandRewrites:
    @pytest.mark.parametrize("op_name", ["xor", "sub"])
    def test_annihilators_fold_to_zero(self, mgr, op_name):
        x = mgr.bv_var("x", 32)
        simplified = simplify(mgr, build_same_operand(mgr, op_name, x))
        assert simplified.is_const() and simplified.value == 0

    @pytest.mark.parametrize("op_name", ["and", "or"])
    def test_idempotents_fold_to_operand(self, mgr, op_name):
        x = mgr.bv_var("x", 16)
        assert simplify(mgr, build_same_operand(mgr, op_name, x)) is x

    def test_rewrites_fire_on_nested_terms(self, mgr):
        # (x + y) ^ (x + y) only becomes same-operand after the children are
        # walked; the rewrite must see the rebuilt node.
        x, y = mgr.bv_var("x", 32), mgr.bv_var("y", 32)
        lhs = mgr.bvadd(x, y)
        rhs = mgr.bvadd(x, y)        # hash-consed to the same node
        simplified = simplify(mgr, mgr.bvxor(lhs, rhs))
        assert simplified.is_const() and simplified.value == 0

    def test_boolean_context_collapses(self, mgr):
        # distinct(x ^ x, 0) should fold away without any SAT work.
        x = mgr.bv_var("x", 8)
        zero = mgr.bv_const(0, 8)
        simplified = simplify(mgr, mgr.distinct(mgr.bvxor(x, x), zero))
        assert simplified.is_const() and simplified.value is False

    def test_term_size_shrinks(self, mgr):
        # The same-operand folds collapse the children at construction time;
        # the remaining `x | 0` node is the simplifier's job.
        x = mgr.bv_var("x", 32)
        term = mgr.bvor(mgr.bvand(x, x), mgr.bvsub(x, x))
        assert term.op is Op.BVOR
        simplified = simplify(mgr, term)
        assert simplified is x
        assert term_size(simplified) < term_size(term)

    def test_constant_identities(self, mgr):
        x = mgr.bv_var("x", 8)
        zero, ones = mgr.bv_const(0, 8), mgr.bv_const(0xFF, 8)
        assert simplify(mgr, mgr.bvand(x, zero)).value == 0
        assert simplify(mgr, mgr.bvor(x, zero)) is x
        assert simplify(mgr, mgr.bvxor(x, zero)) is x
        assert simplify(mgr, mgr.bvand(x, ones)) is x
        assert simplify(mgr, mgr.bvor(x, ones)).value == 0xFF
        assert simplify(mgr, mgr.bvxor(x, ones)) is mgr.bvnot(x)
        for value in (0, 1, 0x80, 0xFF):
            assert mgr.evaluate(simplify(mgr, mgr.bvxor(x, ones)),
                                {"x": value}) == value ^ 0xFF

    @pytest.mark.parametrize("op_name", ["xor", "and", "or", "sub"])
    def test_equivalence_by_evaluation(self, mgr, op_name):
        x = mgr.bv_var("x", 8)
        original = build_same_operand(mgr, op_name, x)
        simplified = simplify(mgr, original)
        for value in (0, 1, 0x7F, 0x80, 0xFF, 0x55):
            assert mgr.evaluate(original, {"x": value}) == \
                mgr.evaluate(simplified, {"x": value})

    @pytest.mark.parametrize("op_name", ["xor", "and", "or", "sub"])
    def test_equivalence_by_solver(self, mgr, op_name):
        # The solver itself proves original != simplified is unsatisfiable.
        x = mgr.bv_var("x", 8)
        original = build_same_operand(mgr, op_name, x)
        simplified = simplify(mgr, original)
        solver = Solver(mgr)
        solver.add(mgr.distinct(original, simplified))
        assert solver.check() is CheckResult.UNSAT


class TestShiftAndNegationIdentities:
    @pytest.mark.parametrize("shift_name", ["shl", "lshr", "ashr"])
    def test_shift_by_zero_folds_to_operand(self, mgr, shift_name):
        builder = {"shl": mgr.bvshl, "lshr": mgr.bvlshr,
                   "ashr": mgr.bvashr}[shift_name]
        x = mgr.bv_var("x", 32)
        zero = mgr.bv_const(0, 32)
        assert simplify(mgr, builder(x, zero)) is x

    @pytest.mark.parametrize("shift_name", ["shl", "lshr", "ashr"])
    def test_shift_by_nonzero_survives(self, mgr, shift_name):
        builder = {"shl": mgr.bvshl, "lshr": mgr.bvlshr,
                   "ashr": mgr.bvashr}[shift_name]
        x = mgr.bv_var("x", 32)
        one = mgr.bv_const(1, 32)
        shifted = simplify(mgr, builder(x, one))
        assert not shifted.is_const()
        assert shifted is not x

    def test_shift_by_zero_fires_on_rebuilt_children(self, mgr):
        # The zero only appears once y - y collapses during the walk.
        x, y = mgr.bv_var("x", 16), mgr.bv_var("y", 16)
        term = mgr.bvshl(x, mgr.bvsub(y, y))
        assert simplify(mgr, term) is x

    def test_double_bvneg_folds(self, mgr):
        x = mgr.bv_var("x", 8)
        assert simplify(mgr, mgr.bvneg(mgr.bvneg(x))) is x

    def test_boolean_and_bitwise_double_negation_fold_at_construction(self, mgr):
        # not(not b) and ~~x never reach the simplifier: the TermManager
        # constructors collapse them, which this pins down.
        b = mgr.bool_var("b")
        assert mgr.not_(mgr.not_(b)) is b
        x = mgr.bv_var("x", 8)
        assert mgr.bvnot(mgr.bvnot(x)) is x

    @pytest.mark.parametrize("shift_name", ["shl", "lshr", "ashr"])
    def test_shift_identity_equivalence_by_evaluation(self, mgr, shift_name):
        builder = {"shl": mgr.bvshl, "lshr": mgr.bvlshr,
                   "ashr": mgr.bvashr}[shift_name]
        x = mgr.bv_var("x", 8)
        original = builder(x, mgr.bv_const(0, 8))
        simplified = simplify(mgr, original)
        for value in (0, 1, 0x7F, 0x80, 0xFF, 0x55):
            assert mgr.evaluate(original, {"x": value}) == \
                mgr.evaluate(simplified, {"x": value})

    def test_double_neg_equivalence_by_solver(self, mgr):
        # Verdict preservation, PR-3 style: the solver itself discharges
        # original != simplified as unsatisfiable.
        x = mgr.bv_var("x", 8)
        original = mgr.bvneg(mgr.bvneg(x))
        simplified = simplify(mgr, original)
        solver = Solver(mgr)
        solver.add(mgr.distinct(original, simplified))
        assert solver.check() is CheckResult.UNSAT

    def test_shift_query_verdicts_unchanged(self, mgr):
        x, y = mgr.bv_var("x", 16), mgr.bv_var("y", 16)
        zero16 = mgr.bv_const(0, 16)

        # UNSAT: (x << 0) != x can never hold.
        unsat = Solver(mgr)
        unsat.add(mgr.distinct(mgr.bvshl(x, zero16), x))
        assert unsat.check() is CheckResult.UNSAT

        # SAT: the rewrite must not touch a genuine shift.
        sat = Solver(mgr)
        sat.add(mgr.distinct(mgr.bvshl(x, y), x))
        assert sat.check() is CheckResult.SAT


class TestShiftChainFolds:
    """PR-5 identities: constant shift chains collapse into one shift."""

    @pytest.mark.parametrize("shift_name", ["shl", "lshr"])
    def test_chain_folds_to_single_shift(self, mgr, shift_name):
        builder = {"shl": mgr.bvshl, "lshr": mgr.bvlshr}[shift_name]
        x = mgr.bv_var("x", 32)
        chained = builder(builder(x, mgr.bv_const(3, 32)), mgr.bv_const(4, 32))
        simplified = simplify(mgr, chained)
        assert simplified.op is chained.op
        assert simplified.args[0] is x
        assert simplified.args[1].is_const() and simplified.args[1].value == 7

    @pytest.mark.parametrize("shift_name", ["shl", "lshr"])
    def test_oversized_chain_folds_to_zero(self, mgr, shift_name):
        builder = {"shl": mgr.bvshl, "lshr": mgr.bvlshr}[shift_name]
        x = mgr.bv_var("x", 8)
        chained = builder(builder(x, mgr.bv_const(5, 8)), mgr.bv_const(4, 8))
        simplified = simplify(mgr, chained)
        assert simplified.is_const() and simplified.value == 0

    def test_ashr_chain_is_left_alone(self, mgr):
        # Arithmetic right shifts clamp at width-1; the additive fold does
        # not apply and the simplifier must not pretend it does.
        x = mgr.bv_var("x", 8)
        chained = mgr.bvashr(mgr.bvashr(x, mgr.bv_const(5, 8)),
                             mgr.bv_const(4, 8))
        simplified = simplify(mgr, chained)
        assert simplified.op is Op.BVASHR

    def test_variable_amount_chain_is_left_alone(self, mgr):
        x, y = mgr.bv_var("x", 32), mgr.bv_var("y", 32)
        chained = mgr.bvshl(mgr.bvshl(x, y), mgr.bv_const(1, 32))
        assert simplify(mgr, chained) is chained

    @pytest.mark.parametrize("shift_name", ["shl", "lshr"])
    @pytest.mark.parametrize("c1,c2", [(1, 2), (3, 4), (5, 4), (7, 7)])
    def test_chain_equivalence_by_evaluation(self, mgr, shift_name, c1, c2):
        builder = {"shl": mgr.bvshl, "lshr": mgr.bvlshr}[shift_name]
        x = mgr.bv_var("x", 8)
        original = builder(builder(x, mgr.bv_const(c1, 8)),
                           mgr.bv_const(c2, 8))
        simplified = simplify(mgr, original)
        for value in (0, 1, 0x7F, 0x80, 0xFF, 0x55):
            assert mgr.evaluate(original, {"x": value}) == \
                mgr.evaluate(simplified, {"x": value})

    @pytest.mark.parametrize("shift_name", ["shl", "lshr"])
    def test_chain_equivalence_by_solver(self, mgr, shift_name):
        builder = {"shl": mgr.bvshl, "lshr": mgr.bvlshr}[shift_name]
        x = mgr.bv_var("x", 8)
        original = builder(builder(x, mgr.bv_const(2, 8)), mgr.bv_const(3, 8))
        simplified = simplify(mgr, original)
        solver = Solver(mgr)
        solver.add(mgr.distinct(original, simplified))
        assert solver.check() is CheckResult.UNSAT

    def test_chain_query_verdicts_unchanged(self, mgr):
        x = mgr.bv_var("x", 8)

        # UNSAT: ((x << 2) << 3) != (x << 5) can never hold.
        unsat = Solver(mgr)
        unsat.add(mgr.distinct(
            mgr.bvshl(mgr.bvshl(x, mgr.bv_const(2, 8)), mgr.bv_const(3, 8)),
            mgr.bvshl(x, mgr.bv_const(5, 8))))
        assert unsat.check() is CheckResult.UNSAT

        # SAT: a fold must not erase a genuine single shift.
        sat = Solver(mgr)
        sat.add(mgr.distinct(mgr.bvshl(x, mgr.bv_const(5, 8)), x))
        assert sat.check() is CheckResult.SAT


class TestExtractConcatFolds:
    """PR-5 identities: extracts forward through concat / zext / sext."""

    def test_extract_within_low_half(self, mgr):
        hi, lo = mgr.bv_var("h", 8), mgr.bv_var("l", 8)
        term = mgr.extract(mgr.concat(hi, lo), 5, 2)
        simplified = simplify(mgr, term)
        assert simplified.op is Op.EXTRACT
        assert simplified.args[0] is lo
        assert simplified.attrs == (5, 2)

    def test_extract_within_high_half(self, mgr):
        hi, lo = mgr.bv_var("h", 8), mgr.bv_var("l", 8)
        term = mgr.extract(mgr.concat(hi, lo), 15, 8)
        # The full high half: the inner extract folds away entirely.
        assert simplify(mgr, term) is hi

    def test_straddling_extract_is_left_alone(self, mgr):
        hi, lo = mgr.bv_var("h", 8), mgr.bv_var("l", 8)
        term = mgr.extract(mgr.concat(hi, lo), 9, 6)
        assert simplify(mgr, term) is term

    def test_extract_below_extension(self, mgr):
        x = mgr.bv_var("x", 8)
        for extend in (mgr.zext, mgr.sext):
            term = mgr.extract(extend(x, 8), 7, 0)
            assert simplify(mgr, term) is x
            narrow = mgr.extract(extend(x, 8), 3, 1)
            simplified = simplify(mgr, narrow)
            assert simplified.op is Op.EXTRACT and simplified.args[0] is x

    def test_extract_of_zext_extension_bits_is_zero(self, mgr):
        x = mgr.bv_var("x", 8)
        term = mgr.extract(mgr.zext(x, 8), 15, 8)
        simplified = simplify(mgr, term)
        assert simplified.is_const() and simplified.value == 0

    def test_extract_of_sext_extension_bits_is_left_alone(self, mgr):
        # Sign-extension bits depend on x's sign bit; no constant fold.
        x = mgr.bv_var("x", 8)
        term = mgr.extract(mgr.sext(x, 8), 15, 8)
        assert not simplify(mgr, term).is_const()

    def test_concat_fold_equivalence_by_evaluation(self, mgr):
        hi, lo = mgr.bv_var("h", 8), mgr.bv_var("l", 8)
        cases = [mgr.extract(mgr.concat(hi, lo), 5, 2),
                 mgr.extract(mgr.concat(hi, lo), 14, 9),
                 mgr.extract(mgr.zext(mgr.bv_var("x", 8), 8), 12, 8)]
        for original in cases:
            simplified = simplify(mgr, original)
            for h in (0, 0xA5, 0xFF):
                for l in (0, 0x3C, 0xFF):
                    assignment = {"h": h, "l": l, "x": l}
                    assert mgr.evaluate(original, assignment) == \
                        mgr.evaluate(simplified, assignment)

    def test_concat_fold_equivalence_by_solver(self, mgr):
        hi, lo = mgr.bv_var("h", 8), mgr.bv_var("l", 8)
        original = mgr.extract(mgr.concat(hi, lo), 6, 1)
        simplified = simplify(mgr, original)
        solver = Solver(mgr)
        solver.add(mgr.distinct(original, simplified))
        assert solver.check() is CheckResult.UNSAT

    def test_extract_query_verdicts_unchanged(self, mgr):
        hi, lo = mgr.bv_var("h", 8), mgr.bv_var("l", 8)

        # UNSAT: extract(concat(h, l), 7, 0) != l can never hold.
        unsat = Solver(mgr)
        unsat.add(mgr.distinct(mgr.extract(mgr.concat(hi, lo), 7, 0), lo))
        assert unsat.check() is CheckResult.UNSAT

        # SAT: the high half is genuinely independent of the low half.
        sat = Solver(mgr)
        sat.add(mgr.distinct(mgr.extract(mgr.concat(hi, lo), 15, 8), lo))
        assert sat.check() is CheckResult.SAT


class TestVerdictPreservation:
    def test_queries_with_rewritten_subterms_keep_their_verdicts(self, mgr):
        x, y = mgr.bv_var("x", 16), mgr.bv_var("y", 16)
        zero = mgr.bv_const(0, 16)

        # UNSAT: (x ^ x) != 0 can never hold.
        unsat = Solver(mgr)
        unsat.add(mgr.distinct(mgr.bvxor(x, x), zero))
        assert unsat.check() is CheckResult.UNSAT

        # SAT: the rewrite must not over-simplify different operands.
        sat = Solver(mgr)
        sat.add(mgr.distinct(mgr.bvxor(x, y), zero))
        assert sat.check() is CheckResult.SAT
        model = sat.model()
        assert model["x"] ^ model["y"] != 0

    def test_checker_verdicts_unchanged_on_rewrite_heavy_source(self):
        # End to end: a function whose encoding contains x-x / x^x shapes
        # still produces the expected diagnostics.
        from repro.api import check_source

        report = check_source("""
            int redundant(int x) {
                int z = x ^ x;
                int d = x - x;
                if (z != d)
                    return -1;
                if (x + 100 < x)
                    return -2;
                return 0;
            }
        """)
        replacements = {bug.replacement for bug in report.bugs}
        # The unstable overflow check is found; the z != d comparison is
        # trivially false already (no UB needed), so it is not reported.
        assert any("false" in replacement for replacement in replacements)
        locations = {bug.location.line for bug in report.bugs}
        assert 5 not in locations
