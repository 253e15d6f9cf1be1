"""Cross-backend differential verdict suite.

Every solver query the checker issues on the snippet corpus must be decided
identically by every available backend:

* **checker level** — ``check_source`` per snippet per backend
  configuration; report signatures, query counts, and witness-validation
  counts must match the builtin baseline exactly.
* **query level** — the (base, deltas) pairs flowing through
  ``QueryContext.is_unsat`` are captured from a baseline run, then replayed
  through a fresh ``Solver`` per backend: verdicts must match, and SAT
  replays must produce models the term evaluator verifies against the
  original query.

The ``dimacs`` backend is exercised through the bundled reference CLI
(``python -m repro.solver.backends.selfsolve``), so this suite covers the
whole subprocess path without a native solver; the ``pysat`` cases run only
where python-sat is importable (``pytest.importorskip``-style guards via
``available_backends``).
"""

import sys

import pytest

from repro.api import check_source
from repro.core.checker import CheckerConfig
from repro.core.queries import QueryContext
from repro.core.report import report_signature
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.solver import CheckResult, Solver
from repro.solver.backends import available_backends
from repro.solver.backends.dimacs import SAT_BINARY_ENV

SELFSOLVE = f"{sys.executable} -m repro.solver.backends.selfsolve"

#: Snippets that keep the full differential sweep fast; every UB kind is
#: still represented because each template family contributes one member.
CORPUS = (SNIPPETS + STABLE_SNIPPETS)[::2]


def _backend_configs():
    """Every backend configuration available in this environment."""
    configs = [("builtin", {"backend": "builtin"}),
               ("dimacs", {"backend": "dimacs"})]
    if "pysat" in available_backends():
        configs.append(("pysat", {"backend": "pysat"}))
    return configs


@pytest.fixture(autouse=True)
def _selfsolve_binary(monkeypatch):
    monkeypatch.setenv(SAT_BINARY_ENV, SELFSOLVE)


# -- checker level ------------------------------------------------------------------


@pytest.mark.parametrize("label,overrides", _backend_configs(),
                         ids=[c[0] for c in _backend_configs()])
def test_checker_verdicts_identical_across_backends(label, overrides):
    for snippet in CORPUS:
        source = snippet.render("diff")
        baseline = check_source(source, config=CheckerConfig(
            validate_witnesses=True))
        routed = check_source(source, config=CheckerConfig(
            validate_witnesses=True, **overrides))
        assert report_signature(baseline) == report_signature(routed), \
            (label, snippet.name)
        assert baseline.queries == routed.queries, (label, snippet.name)
        assert baseline.timeouts == routed.timeouts == 0, (label, snippet.name)
        assert baseline.witnesses_confirmed == routed.witnesses_confirmed, \
            (label, snippet.name)
        assert baseline.witnesses_unconfirmed == routed.witnesses_unconfirmed, \
            (label, snippet.name)


# -- query level --------------------------------------------------------------------


def _capture_queries(source, max_queries=40):
    """Record the (manager, base, deltas) triples of one baseline run."""
    captured = []
    original = QueryContext.is_unsat

    def spy(self, deltas=()):
        if len(captured) < max_queries:
            captured.append((self.engine.encoder.manager,
                             list(self.base) + list(deltas), []))
        return original(self, deltas)

    QueryContext.is_unsat = spy
    try:
        check_source(source)
    finally:
        QueryContext.is_unsat = original
    return captured


def _replay(manager, goal, **solver_kwargs):
    solver = Solver(manager, **solver_kwargs)
    for term in goal:
        solver.add(term)
    result = solver.check()
    model = solver.model().as_dict() if result is CheckResult.SAT else None
    return result, model


def test_query_replay_identical_per_backend():
    """Each captured query: same verdict and a verified model."""
    backends = [{"backend": "builtin"}, {"backend": "dimacs"}]
    if "pysat" in available_backends():
        backends.append({"backend": "pysat"})

    queries = _capture_queries(SNIPPETS[0].render("replay"))
    assert queries, "the baseline run issued no solver queries"
    for manager, goal, _ in queries:
        reference, ref_model = _replay(manager, goal)
        if ref_model is not None:
            conjunction = manager.and_(*goal) if goal else manager.true()
            assert manager.evaluate(conjunction, ref_model)
        for kwargs in backends:
            result, model = _replay(manager, goal, **kwargs)
            assert result is reference, kwargs
            if result is CheckResult.SAT:
                # Models may differ between backends — but each must satisfy
                # the original query under the term evaluator.
                conjunction = manager.and_(*goal) if goal else manager.true()
                assert manager.evaluate(conjunction, model), kwargs


def test_assumption_failure_sets_identical_across_backends():
    """UNSAT under assumptions, then from the frames alone, on every backend."""
    from repro.solver import TermManager

    backends = ["builtin", "dimacs"]
    if "pysat" in available_backends():
        backends.append("pysat")

    for name in backends:
        mgr = TermManager()
        solver = Solver(mgr, incremental=True, backend=name)
        x = mgr.bv_var("x", 8)
        solver.add(mgr.bvult(x, mgr.bv_const(3, 8)))
        good = mgr.bvult(x, mgr.bv_const(2, 8))
        bad = mgr.eq(mgr.bvmul(x, x), mgr.bv_const(255, 8))
        assert solver.check(assumptions=[good, bad]) is CheckResult.UNSAT, name
        solver.push()
        solver.add(mgr.bvugt(x, mgr.bv_const(5, 8)))
        assert solver.check() is CheckResult.UNSAT, name
        # A satisfiable per-call term cannot rescue inconsistent frames.
        assert solver.check(assumptions=[good]) is CheckResult.UNSAT, name
        solver.pop()


_PYSAT = pytest.mark.skipif("pysat" not in available_backends(),
                            reason="python-sat is not installed")


@pytest.mark.parametrize("name", ["builtin", "dimacs",
                                  pytest.param("pysat", marks=_PYSAT)])
def test_budget_exhaustion_is_sound_and_reusable(name):
    """A starved call answers UNKNOWN or the true verdict, never a wrong one.

    The builtin CDCL must run out of a 1-propagation budget.  A backend
    that cannot honor the budget (dimacs, a pysat engine without limited
    solving) runs unbounded.  Either way the solver stays usable.
    """
    from repro.solver import TermManager

    mgr = TermManager()
    solver = Solver(mgr, max_propagations=1, incremental=True, backend=name)
    a, b = mgr.bv_var("a", 12), mgr.bv_var("b", 12)
    # 15,485,863 is prime: no two factors above 1 fit in 12 bits.
    product = mgr.bvmul(mgr.zext(a, 12), mgr.zext(b, 12))
    solver.push()
    solver.add(mgr.eq(product, mgr.bv_const(15_485_863, 24)))
    solver.add(mgr.bvugt(a, mgr.bv_const(1, 12)))
    solver.add(mgr.bvugt(b, mgr.bv_const(1, 12)))
    starved = solver.check()
    if name == "builtin":
        assert starved is CheckResult.UNKNOWN
    else:
        assert starved in (CheckResult.UNKNOWN, CheckResult.UNSAT), name
    solver.max_propagations = None
    assert solver.check() is CheckResult.UNSAT, name
    solver.pop()
    assert solver.check() is CheckResult.SAT, name
