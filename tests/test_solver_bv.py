"""Integration + property tests for the bit-vector solver facade."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import CheckResult, Solver, TermManager
from repro.solver.simplify import simplify, term_size

WIDTH = 8


@pytest.fixture()
def mgr():
    return TermManager()


def solve(mgr, *terms):
    solver = Solver(mgr)
    for t in terms:
        solver.add(t)
    return solver, solver.check()


class TestBasicQueries:
    def test_trivially_true(self, mgr):
        _, result = solve(mgr, mgr.true())
        assert result is CheckResult.SAT

    def test_trivially_false(self, mgr):
        _, result = solve(mgr, mgr.false())
        assert result is CheckResult.UNSAT

    def test_equation_has_model(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        solver, result = solve(mgr, mgr.eq(mgr.bvadd(x, mgr.bv_const(1, WIDTH)),
                                           mgr.bv_const(5, WIDTH)))
        assert result is CheckResult.SAT
        assert solver.model()["x"] == 4

    def test_contradictory_equations(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        eq1 = mgr.eq(x, mgr.bv_const(3, WIDTH))
        eq2 = mgr.eq(x, mgr.bv_const(4, WIDTH))
        _, result = solve(mgr, eq1, eq2)
        assert result is CheckResult.UNSAT

    def test_unsigned_overflow_possible(self, mgr):
        # Exists x: x + 100 < x (unsigned wrap-around) is SAT.
        x = mgr.bv_var("x", WIDTH)
        _, result = solve(mgr, mgr.bvult(mgr.bvadd(x, mgr.bv_const(100, WIDTH)), x))
        assert result is CheckResult.SAT

    def test_no_unsigned_overflow_when_bounded(self, mgr):
        # x < 100 and x + 100 < x is UNSAT for 8-bit x... actually x<100 means
        # x+100 <= 199 < 256, no wrap, so x+100 > x always: UNSAT.
        x = mgr.bv_var("x", WIDTH)
        bound = mgr.bvult(x, mgr.bv_const(100, WIDTH))
        wrap = mgr.bvult(mgr.bvadd(x, mgr.bv_const(100, WIDTH)), x)
        _, result = solve(mgr, bound, wrap)
        assert result is CheckResult.UNSAT

    def test_signed_overflow_check_unsat_under_assumption(self, mgr):
        # The core STACK pattern: assume no signed overflow of x + 100 (i.e.
        # the infinite-precision result stays in range), then x + 100 < x is
        # unsatisfiable.
        x = mgr.bv_var("x", WIDTH)
        wide_x = mgr.sext(x, 1)
        wide_sum = mgr.bvadd(wide_x, mgr.bv_const(100, WIDTH + 1))
        in_range = mgr.and_(
            mgr.bvsle(mgr.bv_const(-(1 << (WIDTH - 1)), WIDTH + 1), wide_sum),
            mgr.bvsle(wide_sum, mgr.bv_const((1 << (WIDTH - 1)) - 1, WIDTH + 1)),
        )
        check_true = mgr.bvslt(mgr.bvadd(x, mgr.bv_const(100, WIDTH)), x)
        _, result = solve(mgr, in_range, check_true)
        assert result is CheckResult.UNSAT

    def test_push_pop(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        solver = Solver(mgr)
        solver.add(mgr.bvult(x, mgr.bv_const(10, WIDTH)))
        solver.push()
        solver.add(mgr.bvugt(x, mgr.bv_const(20, WIDTH)))
        assert solver.check() is CheckResult.UNSAT
        solver.pop()
        assert solver.check() is CheckResult.SAT

    def test_stats_accumulate(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        solver = Solver(mgr)
        solver.add(mgr.eq(x, mgr.bv_const(1, WIDTH)))
        assert solver.check() is CheckResult.SAT
        assert solver.check() is CheckResult.SAT
        assert solver.stats.solver_time > 0


class TestArithmeticSemantics:
    """Cross-check bit-blasted semantics against the term evaluator."""

    def _model_satisfies(self, mgr, solver, term):
        model = solver.model()
        assignment = {name: model.get(name, 0) for name in model.as_dict()}
        assert mgr.evaluate(term, assignment)

    @pytest.mark.parametrize("op_name", ["bvadd", "bvsub", "bvmul", "bvand",
                                         "bvor", "bvxor", "bvshl", "bvlshr"])
    def test_op_has_consistent_model(self, mgr, op_name):
        x = mgr.bv_var("x", WIDTH)
        y = mgr.bv_var("y", WIDTH)
        op = getattr(mgr, op_name)
        constraint = mgr.and_(
            mgr.eq(op(x, y), mgr.bv_const(12, WIDTH)),
            mgr.bvugt(y, mgr.bv_const(1, WIDTH)),
        )
        solver, result = solve(mgr, constraint)
        if result is CheckResult.SAT:
            self._model_satisfies(mgr, solver, constraint)
        else:
            assert result is CheckResult.UNSAT

    def test_udiv_relation(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        constraint = mgr.eq(mgr.bvudiv(x, mgr.bv_const(3, WIDTH)),
                            mgr.bv_const(5, WIDTH))
        solver, result = solve(mgr, constraint)
        assert result is CheckResult.SAT
        assert solver.model()["x"] // 3 == 5

    def test_sdiv_most_negative_by_minus_one(self, mgr):
        # INT_MIN / -1 wraps to INT_MIN in the C* (wrap-around) semantics.
        int_min = mgr.bv_const(1 << (WIDTH - 1), WIDTH)
        minus_one = mgr.bv_const(-1, WIDTH)
        quotient = mgr.bvsdiv(int_min, minus_one)
        _, result = solve(mgr, mgr.eq(quotient, int_min))
        assert result is CheckResult.SAT

    def test_division_by_zero_smtlib_semantics(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        constraint = mgr.and_(
            mgr.eq(mgr.bvudiv(x, mgr.bv_const(0, WIDTH)),
                   mgr.bv_const(0xFF, WIDTH)),
        )
        _, result = solve(mgr, constraint)
        assert result is CheckResult.SAT


class TestSimplifier:
    def test_simplify_constant_expression(self, mgr):
        x = mgr.bv_const(4, WIDTH)
        expr = mgr.bvult(mgr.bvadd(x, mgr.bv_const(1, WIDTH)), mgr.bv_const(9, WIDTH))
        assert simplify(mgr, expr).value is True

    def test_simplify_sub_eq_zero(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        y = mgr.bv_var("y", WIDTH)
        expr = mgr.eq(mgr.bvsub(x, y), mgr.bv_const(0, WIDTH))
        simplified = simplify(mgr, expr)
        assert simplified is mgr.eq(x, y)

    def test_simplify_unsigned_lt_zero(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        assert simplify(mgr, mgr.bvult(x, mgr.bv_const(0, WIDTH))).value is False

    def test_term_size_counts_unique_nodes(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        expr = mgr.bvadd(x, x)
        assert term_size(expr) == 2


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 255), st.integers(0, 255))
    def test_add_commutes_in_models(self, a, b):
        mgr = TermManager()
        x = mgr.bv_const(a, WIDTH)
        y = mgr.bv_const(b, WIDTH)
        assert mgr.bvadd(x, y).value == mgr.bvadd(y, x).value

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_evaluator_matches_python_semantics(self, a, b, c):
        mgr = TermManager()
        x, y, z = (mgr.bv_var(n, WIDTH) for n in "xyz")
        expr = mgr.bvadd(mgr.bvmul(x, y), mgr.bvsub(z, x))
        expected = (a * b + c - a) % 256
        assert mgr.evaluate(expr, {"x": a, "y": b, "z": c}) == expected

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 255))
    def test_solver_finds_specific_value(self, target):
        mgr = TermManager()
        x = mgr.bv_var("x", WIDTH)
        solver = Solver(mgr)
        solver.add(mgr.eq(x, mgr.bv_const(target, WIDTH)))
        assert solver.check() is CheckResult.SAT
        assert solver.model()["x"] == target

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 254))
    def test_strict_sandwich_is_unsat(self, bound):
        # x < bound and x > bound is UNSAT for any bound.
        mgr = TermManager()
        x = mgr.bv_var("x", WIDTH)
        solver = Solver(mgr)
        solver.add(mgr.bvult(x, mgr.bv_const(bound, WIDTH)))
        solver.add(mgr.bvugt(x, mgr.bv_const(bound, WIDTH)))
        assert solver.check() is CheckResult.UNSAT
