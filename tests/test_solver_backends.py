"""Unit tests for the pluggable backend layer (repro.solver.backends).

Registry resolution, the oracle pre-answer chain, DIMACS emit/parse
canonicalization, and the facade wiring (``Solver(backend=...)``: a
recorded clause stream that reproduces the default search, fed from a
cursor, and strict failure for an unknown or unavailable backend).

Everything here runs with the dependency-free builtin backend; the
``dimacs`` paths are driven through the bundled reference CLI
(``repro.solver.backends.selfsolve``) so no native solver is needed.
"""

import subprocess
import sys

import pytest

from repro.api import check_corpus
from repro.core.checker import CheckerConfig
from repro.core.report import report_signature
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.engine.engine import EngineConfig
from repro.solver import CheckResult, Solver, SolverStats, TermManager
from repro.solver.backends import (
    BACKENDS,
    BuiltinBackend,
    available_backends,
    constant_answer,
    create_backend,
    evaluation_answer,
    preanswer,
)
from repro.solver.backends.dimacs import (SAT_BINARY_ENV, DimacsBackend,
                                          parse_solver_output)
from repro.solver.backends.pysat_backend import PysatBackend
from repro.solver.backends.selfsolve import solve_dimacs_text
from repro.solver.cnf import CnfBuilder, emit_dimacs, parse_dimacs
from repro.solver.sat import SatResult, SatSolver

SELFSOLVE = f"{sys.executable} -m repro.solver.backends.selfsolve"


@pytest.fixture()
def mgr():
    return TermManager()


@pytest.fixture()
def selfsolve_env(monkeypatch):
    monkeypatch.setenv(SAT_BINARY_ENV, SELFSOLVE)


# -- registry ----------------------------------------------------------------------


class TestRegistry:
    def test_builtin_always_available(self):
        assert "builtin" in available_backends()
        assert isinstance(create_backend("builtin"), BuiltinBackend)

    def test_registry_names(self):
        assert set(BACKENDS) == {"builtin", "pysat", "dimacs"}

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            create_backend("boolector")

    def test_strict_resolution_raises_for_unavailable(self, monkeypatch):
        monkeypatch.delenv(SAT_BINARY_ENV, raising=False)
        with pytest.raises(RuntimeError, match="not available"):
            create_backend("dimacs")

    def test_dimacs_available_iff_env_set(self, monkeypatch):
        monkeypatch.delenv(SAT_BINARY_ENV, raising=False)
        assert not DimacsBackend.available()
        monkeypatch.setenv(SAT_BINARY_ENV, SELFSOLVE)
        assert DimacsBackend.available()

    def test_pysat_availability_matches_import(self):
        try:
            import pysat.solvers  # noqa: F401
            assert PysatBackend.available()
        except ImportError:
            assert not PysatBackend.available()


# -- oracle pre-answers -------------------------------------------------------------


class TestOracle:
    def test_constant_true(self, mgr):
        answer = constant_answer(mgr.true())
        assert answer.verdict == "sat" and answer.reason == "constant"

    def test_constant_false(self, mgr):
        answer = constant_answer(mgr.false())
        assert answer.verdict == "unsat" and answer.assignment is None

    def test_non_constant_defers(self, mgr):
        assert constant_answer(mgr.bool_var("p")) is None

    def test_evaluation_answer_is_verified(self, mgr):
        x = mgr.bv_var("x", 8)
        conjunction = mgr.eq(x, mgr.bv_const(0, 8))
        answer = evaluation_answer(mgr, conjunction)
        assert answer is not None and answer.verdict == "sat"
        assert mgr.evaluate(conjunction, answer.assignment)

    def test_evaluation_never_claims_unsat(self, mgr):
        x = mgr.bv_var("x", 8)
        # UNSAT conjunction: the oracle must defer, not decide.
        conjunction = mgr.and_(mgr.bvult(x, mgr.bv_const(3, 8)),
                               mgr.bvugt(x, mgr.bv_const(5, 8)))
        assert evaluation_answer(mgr, conjunction) is None

    def test_preanswer_counts_in_solver_stats(self, mgr):
        solver = Solver(mgr)
        x = mgr.bv_var("x", 8)
        solver.add(mgr.eq(x, mgr.bv_const(0, 8)))
        assert solver.check() is CheckResult.SAT
        assert solver.stats.oracle_sat == 1
        assert solver.stats.sat_calls == 0        # never reached a backend
        assert preanswer(mgr, mgr.false()).verdict == "unsat"


# -- DIMACS emit / parse ------------------------------------------------------------


class TestDimacsFormat:
    def test_canonical_numbering_is_sorted_and_dense(self):
        clauses = [[9, -4], [4, 2, -9]]
        text = emit_dimacs(clauses)
        # Used vars {2, 4, 9} remap to {1, 2, 3}; literals sort by
        # (variable, polarity) within each clause.
        assert text.splitlines() == ["p cnf 3 2", "-2 3 0", "1 2 -3 0"]

    def test_canonical_export_is_byte_stable_across_gaps(self):
        # Same clause structure, different absolute numbering: the export
        # must not leak allocation gaps.
        a = emit_dimacs([[1, -3], [3, 2]])
        b = emit_dimacs([[10, -30], [30, 20]])
        assert a == b

    def test_non_canonical_keeps_original_numbering(self):
        text = emit_dimacs([[9, -4]], canonical=False)
        assert text.splitlines() == ["p cnf 9 1", "-4 9 0"]

    def test_roundtrip(self):
        clauses = [[1, 2], [-2, 3], [-1, -3]]
        num_vars, parsed = parse_dimacs(emit_dimacs(clauses))
        assert num_vars == 3
        assert parsed == [[1, 2], [-2, 3], [-1, -3]]

    def test_parse_tolerates_comments_and_multiline_clauses(self):
        text = "c header\np cnf 3 2\n1 2\n0\nc mid\n-2 -3 0\n"
        num_vars, clauses = parse_dimacs(text)
        assert num_vars == 3
        assert clauses == [[1, 2], [-2, -3]]

    def test_parse_rejects_malformed_problem_line(self):
        with pytest.raises(ValueError, match="problem line"):
            parse_dimacs("p dnf 3 2\n1 0\n")

    def test_recording_builder_captures_clause_stream(self):
        sat = SatSolver()
        cnf = CnfBuilder(sat, record=True)
        a, b = cnf.new_lit(), cnf.new_lit()
        cnf.add_clause([a, b])
        # The stream includes the builder's internal true-var clause.
        assert cnf.clauses[0] == [cnf.true_lit]
        assert cnf.clauses[-1] == [a, b]
        assert len(cnf.clauses) == cnf.num_clauses


# -- the reference DIMACS CLI -------------------------------------------------------


class TestSelfsolve:
    def test_sat_instance(self):
        result, model = solve_dimacs_text("p cnf 2 2\n1 2 0\n-1 0\n")
        assert result is SatResult.SAT
        assert -1 in model and 2 in model

    def test_unsat_instance(self):
        result, _ = solve_dimacs_text("p cnf 1 2\n1 0\n-1 0\n")
        assert result is SatResult.UNSAT

    def test_cli_protocol_and_exit_codes(self, tmp_path):
        path = tmp_path / "q.cnf"
        path.write_text("p cnf 2 2\n1 2 0\n-1 0\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m",
                               "repro.solver.backends.selfsolve", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 10
        status, model = parse_solver_output(proc.stdout)
        assert status is SatResult.SAT
        assert model[1] is False and model[2] is True

        path.write_text("p cnf 1 2\n1 0\n-1 0\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m",
                               "repro.solver.backends.selfsolve", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 20
        assert "s UNSATISFIABLE" in proc.stdout


# -- facade wiring ------------------------------------------------------------------


def _unstable_query(mgr, solver):
    # x*x == 225 with x > 3: SAT only at the two square roots, which no
    # oracle pattern hits — the query must reach a real backend.
    x = mgr.bv_var("x", 8)
    solver.add(mgr.eq(mgr.bvmul(x, x), mgr.bv_const(225, 8)))
    solver.add(mgr.bvult(mgr.bv_const(3, 8), x))
    return x


_WORK = ("sat_calls", "restarts", "conflicts", "decisions", "propagations",
         "blasted_clauses")


def _snippet_run(monkeypatch, **overrides):
    """Check the 30 snippets in process with the cache off.

    Returns the report signature and the six work counters summed over
    every solver the run created.
    """
    solvers = []
    original = Solver.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        solvers.append(self)

    units = [(s.name, s.render("fed")) for s in SNIPPETS + STABLE_SNIPPETS]
    config = EngineConfig(workers=0, cache_enabled=False,
                          checker=CheckerConfig(**overrides))
    with monkeypatch.context() as patch:
        patch.setattr(Solver, "__init__", spy)
        result = check_corpus(units, engine_config=config)
    work = SolverStats()
    for solver in solvers:
        work.merge(solver.stats)
    return report_signature(result), {name: getattr(work, name)
                                      for name in _WORK}


class TestSolverFacade:
    @pytest.mark.parametrize("incremental", [False, True])
    def test_recorded_stream_reproduces_default_search(self, monkeypatch,
                                                       incremental):
        class Standalone(BuiltinBackend):
            """The builtin CDCL on its own SatSolver, fed the recorded
            clause stream through ``add_clauses`` as pysat and dimacs are."""

            name = "standalone"

        monkeypatch.setitem(BACKENDS, "standalone", Standalone)
        default = _snippet_run(monkeypatch, incremental=incremental)
        fed = _snippet_run(monkeypatch, incremental=incremental,
                           backend="standalone")
        assert fed[0] == default[0]
        assert fed[1] == default[1]
        assert default[1]["sat_calls"] > 0

    def test_explicit_unavailable_backend_raises(self, mgr, monkeypatch):
        monkeypatch.delenv(SAT_BINARY_ENV, raising=False)
        with pytest.raises(RuntimeError, match="not available"):
            Solver(mgr, backend="dimacs")
        with pytest.raises(ValueError, match="unknown solver backend"):
            Solver(mgr, backend="boolector")

    def test_backend_is_fed_each_recorded_clause_once(self, mgr,
                                                      monkeypatch):
        class Recording(BuiltinBackend):
            """A builtin backend on its own SatSolver, fed the stream."""

            name = "recording"
            instances = []

            def __init__(self):
                super().__init__()
                self.received = []
                Recording.instances.append(self)

            def add_clauses(self, clauses):
                self.received.extend(list(c) for c in clauses)
                super().add_clauses(clauses)

        monkeypatch.setitem(BACKENDS, "recording", Recording)
        solver = Solver(mgr, incremental=True, backend="recording")
        x = _unstable_query(mgr, solver)
        assert solver.check() is CheckResult.SAT
        assert solver.model()["x"] in (15, 241)
        solver.push()
        solver.add(mgr.eq(x, mgr.bv_const(15, 8)))
        assert solver.check() is CheckResult.SAT
        assert solver.model()["x"] == 15
        solver.pop()
        assert solver.check(assumptions=[mgr.eq(x, mgr.bv_const(16, 8))]) \
            is CheckResult.UNSAT
        assert solver.stats.sat_calls == 3          # all three were fed
        (backend,) = Recording.instances
        assert backend.received == solver._cnf.clauses
    @pytest.mark.parametrize("incremental", [False, True])
    def test_dimacs_backend_through_selfsolve(self, mgr, selfsolve_env,
                                              incremental):
        solver = Solver(mgr, incremental=incremental, backend="dimacs")
        x = _unstable_query(mgr, solver)
        assert solver.check() is CheckResult.SAT
        assert solver.model()["x"] in (15, 241)
        bad = mgr.eq(x, mgr.bv_const(0, 8))
        assert solver.check(assumptions=[bad]) is CheckResult.UNSAT
        assert solver.stats.sat_calls == 2

    def test_backend_push_pop(self, mgr, selfsolve_env):
        solver = Solver(mgr, incremental=True, backend="dimacs")
        x = mgr.bv_var("x", 8)
        solver.add(mgr.bvult(x, mgr.bv_const(100, 8)))
        solver.push()
        # A contradiction the oracle cannot see (it would need two passes):
        # x < 100 and x*x == 255 has no solution in 8 bits.
        solver.add(mgr.eq(mgr.bvmul(x, x), mgr.bv_const(255, 8)))
        assert solver.check() is CheckResult.UNSAT
        solver.pop()
        _unstable_query(mgr, solver)
        assert solver.check() is CheckResult.SAT
