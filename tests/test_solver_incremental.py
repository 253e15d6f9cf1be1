"""Incremental solving: assumptions, activation-literal push/pop, reuse.

Covers the edge cases the incremental refactor introduces:

* assumption-based ``check`` on a persistent clause database,
* push/pop interleaved with assumptions,
* budget exhaustion mid-run leaving the solver reusable,
* determinism: incremental checking returns verdicts identical to scratch
  solving on the snippet corpus.
"""

import pytest

from repro.api import check_source
from repro.core.checker import CheckerConfig, StackChecker
from repro.core.report import report_signature
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.solver import CheckResult, Solver, TermManager

WIDTH = 8


@pytest.fixture()
def mgr():
    return TermManager()


def _incremental(mgr, **kwargs):
    return Solver(mgr, incremental=True, **kwargs)


# -- assumptions over a persistent clause database ---------------------------------


class TestAssumptions:
    def test_assumptions_hold_only_for_one_check(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        solver = _incremental(mgr)
        solver.add(mgr.bvult(x, mgr.bv_const(10, WIDTH)))

        low = mgr.bvult(x, mgr.bv_const(3, WIDTH))
        high = mgr.bvuge(x, mgr.bv_const(3, WIDTH))
        assert solver.check(assumptions=[low]) is CheckResult.SAT
        assert solver.model()["x"] < 3
        assert solver.check(assumptions=[high]) is CheckResult.SAT
        assert 3 <= solver.model()["x"] < 10
        # Contradictory assumptions: UNSAT, but only for that call.
        assert solver.check(assumptions=[low, high]) is CheckResult.UNSAT
        assert solver.check() is CheckResult.SAT

    def test_unsat_base_reported_without_assumptions(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        solver = _incremental(mgr)
        solver.add(mgr.bvult(x, mgr.bv_const(3, WIDTH)))
        solver.add(mgr.bvugt(x, mgr.bv_const(5, WIDTH)))
        assert solver.check() is CheckResult.UNSAT

    def test_extra_is_treated_as_assumption(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        solver = _incremental(mgr)
        solver.add(mgr.bvult(x, mgr.bv_const(3, WIDTH)))
        assert solver.check(
            extra=[mgr.bvugt(x, mgr.bv_const(7, WIDTH))]) is CheckResult.UNSAT
        assert solver.check() is CheckResult.SAT


# -- push/pop via activation literals ----------------------------------------------


class TestPushPop:
    def test_pop_restores_satisfiability(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        solver = _incremental(mgr)
        solver.add(mgr.bvult(x, mgr.bv_const(100, WIDTH)))
        assert solver.check() is CheckResult.SAT

        solver.push()
        solver.add(mgr.bvugt(x, mgr.bv_const(200, WIDTH)))
        assert solver.check() is CheckResult.UNSAT
        solver.pop()
        assert solver.check() is CheckResult.SAT

    def test_push_pop_interleaved_with_assumptions(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        y = mgr.bv_var("y", WIDTH)
        solver = _incremental(mgr)
        solver.add(mgr.bvult(x, mgr.bv_const(50, WIDTH)))

        solver.push()
        solver.add(mgr.eq(y, mgr.bvadd(x, mgr.bv_const(1, WIDTH))))
        # Assumption inside the frame.
        assert solver.check(
            assumptions=[mgr.bvult(y, mgr.bv_const(10, WIDTH))]) is CheckResult.SAT
        model = solver.model()
        assert model["y"] == (model["x"] + 1) % (1 << WIDTH)
        # Contradicting the frame via an assumption is UNSAT ...
        assert solver.check(
            assumptions=[mgr.bvugt(y, mgr.bv_const(60, WIDTH))]) is CheckResult.UNSAT
        solver.pop()
        # ... but after the pop the same assumption is satisfiable again.
        assert solver.check(
            assumptions=[mgr.bvugt(y, mgr.bv_const(60, WIDTH))]) is CheckResult.SAT

        # A second frame on the same solver still works (fresh activation).
        solver.push()
        solver.add(mgr.bvugt(x, mgr.bv_const(40, WIDTH)))
        assert solver.check() is CheckResult.SAT
        assert 40 < solver.model()["x"] < 50
        solver.pop()

    def test_nested_frames(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        solver = _incremental(mgr)
        solver.push()
        solver.add(mgr.bvuge(x, mgr.bv_const(10, WIDTH)))
        solver.push()
        solver.add(mgr.bvult(x, mgr.bv_const(5, WIDTH)))
        assert solver.check() is CheckResult.UNSAT
        solver.pop()
        assert solver.check() is CheckResult.SAT
        assert solver.model()["x"] >= 10
        solver.pop()
        assert solver.check() is CheckResult.SAT

    def test_pop_without_push_raises(self, mgr):
        solver = _incremental(mgr)
        with pytest.raises(RuntimeError):
            solver.pop()

    def test_assertions_reflect_frames(self, mgr):
        x = mgr.bool_var("p")
        y = mgr.bool_var("q")
        solver = _incremental(mgr)
        solver.add(x)
        solver.push()
        solver.add(y)
        assert solver.assertions() == [x, y]
        solver.pop()
        assert solver.assertions() == [x]


# -- budget exhaustion leaves the solver reusable ----------------------------------


def _hard_term(mgr):
    """Factor a prime with 12-bit factors: UNSAT, but only after real search.

    The factors are zero-extended before multiplying, so the product cannot
    wrap — 15485863 is prime, hence no model exists, and the CDCL loop has
    to refute a full 12×12 multiplier circuit to prove it.
    """
    a = mgr.bv_var("hard_a", 12)
    b = mgr.bv_var("hard_b", 12)
    product = mgr.bvmul(mgr.zext(a, 12), mgr.zext(b, 12))
    return mgr.and_(
        mgr.eq(product, mgr.bv_const(15_485_863, 24)),
        mgr.bvugt(a, mgr.bv_const(1, 12)),
        mgr.bvugt(b, mgr.bv_const(1, 12)))


class TestBudgetExhaustion:
    def test_unknown_mid_run_keeps_solver_reusable(self, mgr):
        solver = Solver(mgr, max_propagations=1, incremental=True)
        x = mgr.bv_var("x", WIDTH)
        solver.add(mgr.bvult(x, mgr.bv_const(100, WIDTH)))

        solver.push()
        solver.add(_hard_term(mgr))
        assert solver.check() is CheckResult.UNKNOWN
        solver.pop()

        # The starved query neither poisoned the clause database nor the
        # budget of later queries: an easy follow-up still gets answered.
        solver.max_propagations = None
        assert solver.check(
            assumptions=[mgr.eq(x, mgr.bv_const(7, WIDTH))]) is CheckResult.SAT
        assert solver.model()["x"] == 7

    def test_propagation_budget_is_per_call(self, mgr):
        # The cumulative propagation counter must not starve later calls:
        # after a starved UNKNOWN, an easy query on the same solver still
        # gets its own full budget.
        solver = Solver(mgr, max_propagations=20_000, incremental=True)
        solver.push()
        solver.add(_hard_term(mgr))
        assert solver.check() is CheckResult.UNKNOWN
        assert solver.stats.propagations >= 20_000
        solver.pop()
        x = mgr.bv_var("x", WIDTH)
        assert solver.check(
            assumptions=[mgr.eq(x, mgr.bv_const(9, WIDTH))]) is CheckResult.SAT

    def test_zero_budget_returns_unknown_then_recovers(self, mgr):
        solver = Solver(mgr, max_propagations=0, incremental=True)
        solver.push()
        solver.add(_hard_term(mgr))
        assert solver.check() is CheckResult.UNKNOWN   # no budget at all
        # The interrupted run left the solver reusable: re-asking under a
        # real budget decides the same query (the instance is UNSAT) ...
        solver.max_propagations = None
        assert solver.check() is CheckResult.UNSAT
        solver.pop()
        # ... and popping the frame restores satisfiability.
        assert solver.check() is CheckResult.SAT


# -- incremental encodings are shared -----------------------------------------------


def test_blast_cache_shares_subterms_across_queries(mgr):
    x = mgr.bv_var("x", 16)
    y = mgr.bv_var("y", 16)
    shared = mgr.bvmul(x, y)  # expensive circuit, common to both queries
    solver = _incremental(mgr)
    # 39203 = 197 * 199: satisfiable, but no concrete-assignment guess hits
    # it, so the query has to bit-blast the multiplier.
    solver.add(mgr.eq(shared, mgr.bv_const(39_203, 16)))
    assert solver.check(
        assumptions=[mgr.bvugt(x, mgr.bv_const(1, 16))]) is CheckResult.SAT
    clauses_after_first = solver.stats.blasted_clauses
    assert clauses_after_first > 0
    assert solver.check(
        assumptions=[mgr.bvult(x, mgr.bv_const(40_000, 16)),
                     mgr.bvugt(y, mgr.bv_const(1, 16))]) is CheckResult.SAT
    second_delta = solver.stats.blasted_clauses - clauses_after_first
    # The multiplier was encoded once; the second query only adds its two
    # comparisons.
    assert second_delta < clauses_after_first / 2
    assert solver.stats.blast_hits > 0


# -- determinism: incremental == scratch on the snippet corpus ----------------------


def test_incremental_matches_scratch_on_snippet_corpus():
    """Acceptance: identical verdicts, query counts, and diagnostics."""
    snippets = SNIPPETS + STABLE_SNIPPETS
    for snippet in snippets:
        source = snippet.render("determinism")
        reports = {}
        for incremental in (True, False):
            config = CheckerConfig(incremental=incremental)
            reports[incremental] = check_source(source, config=config)
        incr, scratch = reports[True], reports[False]
        assert report_signature(incr) == report_signature(scratch), snippet.name
        assert incr.queries == scratch.queries, snippet.name
        assert incr.timeouts == scratch.timeouts == 0, snippet.name


def test_incremental_stats_reach_function_report():
    report = check_source(SNIPPETS[0].render("stats"))
    fn = report.functions[0]
    assert fn.contexts > 0
    assert fn.queries > 0
    # Some queries are decided by simplification; the ones that reached the
    # CDCL loop are accounted with their clause volume.
    assert fn.sat_calls >= 0
    if fn.sat_calls:
        assert fn.blasted_clauses > 0
    assert report.contexts == sum(f.contexts for f in report.functions)


# -- budget reuse and frame discipline ----------------------------------------------


class TestBudgetExhaustionMidRace:
    """A backend that runs out of budget stays reusable (docs/SOLVER.md)."""

    def test_starved_builtin_race_stays_reusable(self, mgr):
        # Through the facade: a propagation budget of 1 starves the builtin
        # backend (UNKNOWN), then a raised budget decides the same
        # persistent instance.
        solver = Solver(mgr, max_propagations=1, incremental=True,
                        backend="builtin")
        solver.push()
        solver.add(_hard_term(mgr))
        assert solver.check() is CheckResult.UNKNOWN
        solver.max_propagations = None
        assert solver.check() is CheckResult.UNSAT
        assert solver.stats.sat_calls == 2          # both reached the backend
        solver.pop()
        assert solver.check() is CheckResult.SAT


class TestFrameDiscipline:
    def test_non_lifo_pop_raises(self, mgr):
        x = mgr.bv_var("x", WIDTH)
        solver = _incremental(mgr)
        first = solver.push()
        solver.add(mgr.bvult(x, mgr.bv_const(10, WIDTH)))
        second = solver.push()
        with pytest.raises(RuntimeError, match="non-LIFO"):
            solver.pop(first)
        solver.pop(second)
        solver.pop(first)

    def test_non_lifo_context_close_raises(self):
        from repro.core.encode import FunctionEncoder
        from repro.core.queries import QueryEngine
        from repro.api import compile_source

        module = compile_source("int f(int x) { return x + 1; }")
        encoder = FunctionEncoder(next(iter(module.defined_functions())))
        engine = QueryEngine(encoder)
        mgr = encoder.manager
        x = mgr.bv_var("v", WIDTH)
        outer = engine.context([mgr.bvult(x, mgr.bv_const(10, WIDTH))])
        inner = engine.context([mgr.bvult(x, mgr.bv_const(5, WIDTH))])
        assert outer.is_unsat() is False
        assert inner.is_unsat() is False
        with pytest.raises(RuntimeError, match="non-LIFO"):
            outer.close()
        inner.close()
        outer.close()
        # The failed early close must not have retired the outer context:
        # after the ordered closes its base assertion (v < 10) is gone, so
        # v > 20 is satisfiable again on the shared solver.
        with engine.context([mgr.bvugt(x, mgr.bv_const(20, WIDTH))]) as fresh:
            assert fresh.is_unsat() is False
