"""Decision-for-decision identity of the CDCL core with its reference loop.

``repro.solver.sat`` reshapes the plain CDCL loop kept verbatim in
``sat_reference.py`` for speed.  It promises more than equal verdicts: every
call must return the same result, model and failed assumption, and must do
the same work (conflicts, decisions, propagations, restarts), because those
counters and models reach records, cache entries and report signatures.
These tests feed both solvers the same seeded operation sequences and
compare them after every call.  Set ``REPRO_PROPERTY_SEED`` to add a seed,
as for ``test_properties.py``.
"""

import os
import random

import pytest

import repro.solver.solver as solver_module
from repro import check_source
from repro.corpus.snippets import snippet_by_name
from repro.solver.bitblast import BitBlaster
from repro.solver.cnf import CnfBuilder
from repro.solver.sat import SatSolver
from repro.solver.terms import TermManager
from sat_reference import SatSolver as ReferenceSolver

SEEDS = [0, 1, 2]
if os.environ.get("REPRO_PROPERTY_SEED"):
    SEEDS.append(int(os.environ["REPRO_PROPERTY_SEED"]))


def _state(solver):
    # The learned clauses (literal order included) are internal, but they
    # steer every later call, so a difference there shows up early.
    return {"model": solver.model(), "ok": solver.ok,
            "learned": [clause.lits for clause in solver.learned],
            "failed_assumption": solver.failed_assumption,
            "conflicts": solver.conflicts, "decisions": solver.decisions,
            "propagations": solver.propagations, "restarts": solver.restarts}


class Pair:
    """The production solver and the reference, fed the same operations."""

    def __init__(self):
        self.fast, self.ref = SatSolver(), ReferenceSolver()

    def new_var(self):
        var = self.fast.new_var()
        assert self.ref.new_var() == var
        return var

    def add_clause(self, lits):
        added = self.fast.add_clause(list(lits))
        assert self.ref.add_clause(list(lits)) == added
        assert _state(self.fast) == _state(self.ref)
        return added

    def solve(self, assumptions=(), max_propagations=None):
        result = self.fast.solve(list(assumptions),
                                 max_propagations=max_propagations)
        expected = self.ref.solve(list(assumptions),
                                  max_propagations=max_propagations)
        assert result.value == expected.value
        assert _state(self.fast) == _state(self.ref)
        return result

    def outcome(self, result):
        if result.value == "unsat" and self.fast.failed_assumption is not None:
            return "refuted-assumption"
        return result.value


def _random_literals(rng, variables, count):
    return [v if rng.random() < 0.5 else -v
            for v in rng.sample(variables, min(count, len(variables)))]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_incremental_sessions_match_the_reference(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(16):
        pair = Pair()
        variables = [pair.new_var() for _ in range(rng.randint(3, 50))]
        for _ in range(int(len(variables) * rng.uniform(1.0, 4.0))):
            width = rng.choice((1,) + (2, 3, 3, 3, 4) * 4)
            pair.add_clause(_random_literals(rng, variables, width))
        for _ in range(8):
            assumptions = _random_literals(rng, variables, rng.randint(0, 5))
            if assumptions and rng.random() < 0.1:
                assumptions.append(-assumptions[0])
            budget = rng.choice((None, None, None, 0, 1, 5, 20, 100))
            outcomes.add(pair.outcome(pair.solve(assumptions, budget)))
            # Clauses (and now and then a fresh variable) between calls.
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.3:
                    variables.append(pair.new_var())
                pair.add_clause(_random_literals(rng, variables,
                                                 rng.randint(3, 4)))
    assert {"sat", "unsat", "refuted-assumption", "unknown"} <= outcomes


def _pigeonhole(pair, pigeons, holes, guard=None):
    p = [[pair.new_var() for _ in range(holes)] for _ in range(pigeons)]
    extra = [] if guard is None else [-guard]
    for row in p:
        pair.add_clause(row + extra)
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                pair.add_clause([-p[a][j], -p[b][j]] + extra)


def _count_calls(solver, method):
    calls = []
    original = getattr(solver, method)

    def counted(*args):
        calls.append(args)
        return original(*args)

    setattr(solver, method, counted)
    return calls


def test_learned_clause_reduction_matches_the_reference():
    # 8 pigeons in 7 holes takes thousands of conflicts, past the
    # 1000-learned-clause threshold; the guard literal turns the refutation
    # into a refuted assumption and leaves the solver usable.
    pair = Pair()
    guard = pair.new_var()
    _pigeonhole(pair, 8, 7, guard)
    reductions = _count_calls(pair.fast, "_reduce_learned")
    assert pair.outcome(pair.solve([guard])) == "refuted-assumption"
    assert reductions
    assert pair.solve().value == "sat"


def test_activity_rescale_matches_the_reference():
    # A fast decay pushes activities past 1e100 within a few hundred
    # conflicts, so the rescale runs several times during one search.
    pair = Pair()
    pair.fast.var_decay = pair.ref.var_decay = 0.5
    rescales = _count_calls(pair.fast, "_rescale_activity")
    guard = pair.new_var()
    _pigeonhole(pair, 7, 6, guard)
    assert pair.outcome(pair.solve([guard])) == "refuted-assumption"
    assert rescales
    # The rescaled solver keeps growing and solving.
    fresh = [pair.new_var() for _ in range(40)]
    for a, b in zip(fresh, fresh[1:]):
        pair.add_clause([-a, b])
    assert pair.solve([fresh[0]]).value == "sat"


class _Recorder(SatSolver):
    """A SatSolver that logs every call, for replay into a :class:`Pair`."""

    streams = []

    def __init__(self):
        super().__init__()
        self.ops = []
        self.streams.append(self.ops)

    def new_var(self):
        self.ops.append(("var",))
        return super().new_var()

    def add_clause(self, lits):
        self.ops.append(("clause", list(lits)))
        return super().add_clause(lits)

    def solve(self, assumptions=(), max_propagations=None):
        self.ops.append(("solve", list(assumptions), max_propagations))
        return super().solve(assumptions, max_propagations)


@pytest.mark.parametrize("name", ["fig10_postgres_division_overflow",
                                  "memcpy_overlap_guard_after_copy",
                                  "buffer_index_checked_after_use"])
def test_snippet_solver_streams_replay_identically(name, monkeypatch):
    # Every SatSolver call the checker makes on a snippet: the bit-blasted
    # clause stream plus the incremental solves under activation-literal
    # and delta assumptions.
    monkeypatch.setattr(_Recorder, "streams", [])
    monkeypatch.setattr(solver_module, "SatSolver", _Recorder)
    check_source(snippet_by_name(name).render("v"))
    assert _Recorder.streams
    solves = 0
    for ops in _Recorder.streams:
        pair = Pair()
        for op in ops:
            if op[0] == "var":
                pair.new_var()
            elif op[0] == "clause":
                pair.add_clause(op[1])
            else:
                pair.solve(op[1], op[2])
                solves += 1
    assert solves > 1


def _random_term(rng, mgr):
    x = mgr.bv_var(f"x{rng.randint(0, 2)}", 8)
    y = mgr.bv_var(f"y{rng.randint(0, 2)}", 8)
    ops = [lambda: mgr.eq(mgr.bvadd(x, y), mgr.bv_const(rng.randint(0, 255), 8)),
           lambda: mgr.bvult(mgr.bvmul(x, y), mgr.bv_const(rng.randint(1, 255), 8)),
           lambda: mgr.eq(mgr.bvand(x, y), mgr.bvxor(x, y)),
           lambda: mgr.bvugt(mgr.bvsub(x, y), mgr.bv_const(rng.randint(0, 255), 8))]
    term = rng.choice(ops)()
    for _ in range(3):
        combine = mgr.and_ if rng.random() < 0.5 else mgr.or_
        term = combine(term, rng.choice(ops)())
    return term


@pytest.mark.parametrize("seed", SEEDS)
def test_recorded_blast_clause_streams_replay_identically(seed):
    rng = random.Random(seed)
    for _ in range(4):
        mgr = TermManager()
        cnf = CnfBuilder(SatSolver(), record=True)
        BitBlaster(cnf).assert_term(_random_term(rng, mgr))
        pair = Pair()
        variables = [pair.new_var() for _ in range(cnf.sat.num_vars)]
        for clause in cnf.clauses:
            pair.add_clause(clause)
        pair.solve()
        for _ in range(6):
            pair.solve(_random_literals(rng, variables, rng.randint(1, 8)),
                       rng.choice((None, None, 3)))
