"""Unit tests for the CDCL SAT solver (repro.solver.sat)."""

import random

import pytest

from repro.solver.sat import SatResult, SatSolver


def make_vars(solver, count):
    return [solver.new_var() for _ in range(count)]


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert SatSolver().solve() is SatResult.SAT

    def test_unit_clause(self):
        s = SatSolver()
        x = s.new_var()
        s.add_clause([x])
        assert s.solve() is SatResult.SAT
        assert s.model_value(x) is True

    def test_contradictory_units(self):
        s = SatSolver()
        x = s.new_var()
        s.add_clause([x])
        s.add_clause([-x])
        assert s.solve() is SatResult.UNSAT

    def test_empty_clause_is_unsat(self):
        s = SatSolver()
        s.new_var()
        assert s.add_clause([]) is False
        assert s.solve() is SatResult.UNSAT

    def test_simple_implication_chain(self):
        s = SatSolver()
        a, b, c = make_vars(s, 3)
        s.add_clause([-a, b])
        s.add_clause([-b, c])
        s.add_clause([a])
        assert s.solve() is SatResult.SAT
        assert s.model_value(a) and s.model_value(b) and s.model_value(c)

    def test_tautology_clause_ignored(self):
        s = SatSolver()
        a = s.new_var()
        s.add_clause([a, -a])
        assert s.solve() is SatResult.SAT


class TestKnownFormulas:
    def test_xor_chain_sat(self):
        # (a xor b) encoded as CNF, plus a forced
        s = SatSolver()
        a, b = make_vars(s, 2)
        s.add_clause([a, b])
        s.add_clause([-a, -b])
        s.add_clause([a])
        assert s.solve() is SatResult.SAT
        assert s.model_value(a) is True
        assert s.model_value(b) is False

    def test_pigeonhole_3_into_2_unsat(self):
        # 3 pigeons, 2 holes: var p_{i,j} means pigeon i in hole j.
        s = SatSolver()
        p = [[s.new_var() for _ in range(2)] for _ in range(3)]
        for i in range(3):
            s.add_clause([p[i][0], p[i][1]])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    s.add_clause([-p[i1][j], -p[i2][j]])
        assert s.solve() is SatResult.UNSAT

    def test_php_4_into_3_unsat(self):
        s = SatSolver()
        n_pigeons, n_holes = 4, 3
        p = [[s.new_var() for _ in range(n_holes)] for _ in range(n_pigeons)]
        for i in range(n_pigeons):
            s.add_clause([p[i][j] for j in range(n_holes)])
        for j in range(n_holes):
            for i1 in range(n_pigeons):
                for i2 in range(i1 + 1, n_pigeons):
                    s.add_clause([-p[i1][j], -p[i2][j]])
        assert s.solve() is SatResult.UNSAT

    def test_graph_coloring_triangle_two_colors_unsat(self):
        # A triangle cannot be 2-colored.
        s = SatSolver()
        color = [[s.new_var() for _ in range(2)] for _ in range(3)]
        edges = [(0, 1), (1, 2), (0, 2)]
        for v in range(3):
            s.add_clause([color[v][0], color[v][1]])
            s.add_clause([-color[v][0], -color[v][1]])
        for u, v in edges:
            for c in range(2):
                s.add_clause([-color[u][c], -color[v][c]])
        assert s.solve() is SatResult.UNSAT

    def test_graph_coloring_triangle_three_colors_sat(self):
        s = SatSolver()
        color = [[s.new_var() for _ in range(3)] for _ in range(3)]
        edges = [(0, 1), (1, 2), (0, 2)]
        for v in range(3):
            s.add_clause([color[v][c] for c in range(3)])
        for u, v in edges:
            for c in range(3):
                s.add_clause([-color[u][c], -color[v][c]])
        assert s.solve() is SatResult.SAT
        model = s.model()
        for u, v in edges:
            colors_u = {c for c in range(3) if model[color[u][c]]}
            colors_v = {c for c in range(3) if model[color[v][c]]}
            assert colors_u.isdisjoint(colors_v) or not (colors_u & colors_v)


class TestModelSoundness:
    def _check_model_satisfies(self, clauses, model):
        for clause in clauses:
            satisfied = any(
                (lit > 0) == model[abs(lit)] for lit in clause
            )
            assert satisfied, f"clause {clause} not satisfied by model"

    @pytest.mark.parametrize("seed", range(6))
    def test_random_3sat_models_are_valid(self, seed):
        rng = random.Random(seed)
        n_vars, n_clauses = 20, 60
        s = SatSolver()
        variables = make_vars(s, n_vars)
        clauses = []
        for _ in range(n_clauses):
            chosen = rng.sample(variables, 3)
            clause = [v if rng.random() < 0.5 else -v for v in chosen]
            clauses.append(clause)
            s.add_clause(clause)
        result = s.solve()
        if result is SatResult.SAT:
            self._check_model_satisfies(clauses, s.model())
        else:
            assert result is SatResult.UNSAT

    def test_random_unsat_by_all_polarities(self):
        # For 3 variables, adding all 8 sign combinations of a clause is UNSAT.
        s = SatSolver()
        a, b, c = make_vars(s, 3)
        for mask in range(8):
            clause = [
                a if mask & 1 else -a,
                b if mask & 2 else -b,
                c if mask & 4 else -c,
            ]
            s.add_clause(clause)
        assert s.solve() is SatResult.UNSAT


def _truth_masks(num_vars):
    """masks[v]: bit a set iff assignment a (bit v-1 = var v) makes v true.

    Assignment sets over ``num_vars`` variables are then Python ints of
    ``2**num_vars`` bits, so a whole CNF is enumerated with a few big-int
    operations instead of a loop over every assignment.
    """
    size = 1 << num_vars
    every = (1 << size) - 1
    masks = [0]
    for i in range(num_vars):
        half = 1 << i
        repeat = every // ((1 << (2 * half)) - 1)
        masks.append((((1 << half) - 1) << half) * repeat)
    return masks, every


def _models(clauses, masks, every):
    """The set of assignments that satisfy every clause."""
    models = every
    for clause in clauses:
        satisfying = 0
        for lit in clause:
            satisfying |= masks[lit] if lit > 0 else every & ~masks[-lit]
        models &= satisfying
    return models


class TestBruteForceCrossCheck:
    """Every verdict, UNSAT included, against exhaustive enumeration."""

    @pytest.mark.parametrize("seed", range(8))
    def test_verdicts_and_failed_assumptions_match_enumeration(self, seed):
        rng = random.Random(seed)
        seen = set()
        for _ in range(12):
            n_vars = rng.randint(2, 16)
            masks, every = _truth_masks(n_vars)
            s = SatSolver()
            variables = make_vars(s, n_vars)
            clauses = []

            def add(count):
                for _ in range(count):
                    width = rng.randint(1, min(4, n_vars)) \
                        if rng.random() < 0.1 else min(3, n_vars)
                    clause = [v if rng.random() < 0.5 else -v
                              for v in rng.sample(variables, width)]
                    clauses.append(clause)
                    s.add_clause(clause)

            add(int(n_vars * rng.uniform(1.5, 4.5)))
            for _ in range(6):
                assumptions = [v if rng.random() < 0.5 else -v for v in
                               rng.sample(variables, rng.randint(0, n_vars))]
                result = s.solve(assumptions)
                models = _models(clauses + [[a] for a in assumptions],
                                 masks, every)
                assert (result is SatResult.SAT) == (models != 0)
                failed = s.failed_assumption
                if result is SatResult.SAT:
                    model = s.model()
                    self._check_model(clauses, model)
                    assert all(model[abs(a)] == (a > 0) for a in assumptions)
                    seen.add("sat")
                elif failed is None:
                    # Refuted without blaming an assumption: the clauses
                    # alone must be unsatisfiable.
                    assert _models(clauses, masks, every) == 0
                    seen.add("unsat")
                else:
                    # The clauses refute the failed assumption given the
                    # ones applied before it.
                    assert failed in assumptions
                    prefix = assumptions[:assumptions.index(failed) + 1]
                    assert _models(clauses + [[a] for a in prefix],
                                   masks, every) == 0
                    seen.add("failed")
                add(rng.randint(0, 3))
        assert seen == {"sat", "unsat", "failed"}

    def _check_model(self, clauses, model):
        for clause in clauses:
            assert any((lit > 0) == model[abs(lit)] for lit in clause)

    def test_truth_masks_enumerate_every_assignment(self):
        masks, every = _truth_masks(3)
        for a in range(8):
            for v in (1, 2, 3):
                assert bool(masks[v] >> a & 1) == bool(a >> (v - 1) & 1)
        assert _models([[1], [-2]], masks, every) == \
            sum(1 << a for a in range(8) if a & 1 and not a & 2)


class TestResourceLimits:
    def test_propagation_budget_returns_unknown(self):
        # A hard pigeonhole instance with a tiny propagation budget.
        s = SatSolver()
        n_pigeons, n_holes = 7, 6
        p = [[s.new_var() for _ in range(n_holes)] for _ in range(n_pigeons)]
        for i in range(n_pigeons):
            s.add_clause([p[i][j] for j in range(n_holes)])
        for j in range(n_holes):
            for i1 in range(n_pigeons):
                for i2 in range(i1 + 1, n_pigeons):
                    s.add_clause([-p[i1][j], -p[i2][j]])
        assert s.solve(max_propagations=50) is SatResult.UNKNOWN
        assert s.propagations >= 50
        # The budget is per call: an unbounded call decides the instance.
        assert s.solve() is SatResult.UNSAT

    def test_statistics_are_tracked(self):
        s = SatSolver()
        a, b = make_vars(s, 2)
        s.add_clause([a, b])
        s.add_clause([-a, b])
        s.add_clause([a, -b])
        s.solve()
        assert s.propagations >= 0
        assert s.decisions >= 0
