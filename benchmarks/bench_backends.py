"""Solver-backend benchmark: verdict identity across backends.

Runs the fig16 snippet corpus through the checker once per backend
configuration and asserts the hard contract: every configuration must
report **byte-identical verdicts** (``report_signature`` equality — any
divergence is a soundness bug and fails the benchmark outright).  On top
of identity the benchmark reports per-configuration solver work and oracle
pre-answer counts, and — when python-sat is present — asserts that the
``pysat`` backend keeps pace with builtin on the re-solve-heavy scratch
workload.

``--bench-fast`` shrinks the corpus for the CI smoke job; the ``dimacs``
configuration drives the bundled reference CLI
(``python -m repro.solver.backends.selfsolve``) so the subprocess path is
always exercised, native solver or not.
"""

import sys
import time

import pytest

from repro.api import check_corpus
from repro.core.checker import CheckerConfig
from repro.core.report import report_signature
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.engine.engine import EngineConfig
from repro.solver.backends import available_backends
from repro.solver.backends.dimacs import SAT_BINARY_ENV

SELFSOLVE = f"{sys.executable} -m repro.solver.backends.selfsolve"


@pytest.fixture(autouse=True)
def _selfsolve_binary(monkeypatch):
    monkeypatch.setenv(SAT_BINARY_ENV, SELFSOLVE)


def _corpus(fast_mode):
    snippets = SNIPPETS + STABLE_SNIPPETS
    if fast_mode:
        snippets = snippets[::3]
    return [(s.name, s.render("backends")) for s in snippets]


def _configurations():
    """(label, CheckerConfig overrides) per runnable configuration."""
    configs = [("dimacs", {"backend": "dimacs"})]
    if "pysat" in available_backends():
        configs.append(("pysat", {"backend": "pysat"}))
    return configs


def _run(corpus, **overrides):
    config = CheckerConfig(**overrides)
    engine_config = EngineConfig(workers=0, checker=config,
                                 cache_enabled=False)
    started = time.monotonic()
    result = check_corpus(corpus, engine_config=engine_config)
    return result, time.monotonic() - started


def test_backend_verdict_identity(once, fast_mode):
    """HARD: every backend configuration reports identical verdicts."""
    corpus = _corpus(fast_mode)

    def sweep():
        baseline, baseline_elapsed = _run(corpus)
        rows = [("baseline", baseline, baseline_elapsed)]
        for label, overrides in _configurations():
            rows.append((label, *_run(corpus, **overrides)))
        return baseline, rows

    baseline, rows = once(sweep)
    reference = report_signature(baseline)

    print()
    print(f"{'configuration':14s} {'diags':>5s} {'queries':>7s} "
          f"{'sat_calls':>9s} {'oracle':>6s} {'time':>7s}")
    for label, result, elapsed in rows:
        stats = result.stats
        print(f"{label:14s} {stats.diagnostics:5d} {stats.queries:7d} "
              f"{stats.sat_calls:9d} "
              f"{stats.oracle_sat + stats.oracle_unsat:6d} "
              f"{elapsed:6.2f}s")

        # Verdict identity is the contract: any divergence from the
        # default-configuration baseline is a hard failure.
        assert report_signature(result) == reference, label
        assert stats.timeouts == 0, label

    # The oracle pre-pass decides a meaningful share before any backend
    # runs, identically across configurations.
    oracle_counts = {label: (result.stats.oracle_sat,
                             result.stats.oracle_unsat)
                     for label, result, _ in rows}
    assert len(set(oracle_counts.values())) == 1, oracle_counts
    assert baseline.stats.oracle_sat > 0


@pytest.mark.skipif("pysat" not in available_backends(),
                    reason="needs python-sat for a native backend")
def test_pysat_keeps_pace_with_builtin(once, fast_mode):
    """With python-sat present, the native backend must not lose to builtin.

    Scratch mode re-solves every query from zero, which is where a native
    CDCL implementation pays off; ``backend="pysat"`` must finish the same
    workload within 10% of the builtin run (with identical verdicts).
    """
    corpus = _corpus(fast_mode)

    def compare():
        builtin, builtin_elapsed = _run(corpus, incremental=False,
                                        backend="builtin")
        native, native_elapsed = _run(corpus, incremental=False,
                                      backend="pysat")
        return builtin, builtin_elapsed, native, native_elapsed

    builtin, builtin_elapsed, native, native_elapsed = once(compare)
    print()
    print(f"builtin: {builtin_elapsed:.2f}s   pysat: {native_elapsed:.2f}s")
    assert report_signature(native) == report_signature(builtin)
    assert native_elapsed <= builtin_elapsed * 1.1
