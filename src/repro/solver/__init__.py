"""Bit-vector constraint solver used by the STACK checker.

The paper uses the Boolector SMT solver to decide the satisfiability of
elimination and simplification queries over the theory of fixed-width bit
vectors (QF_BV).  This package provides a self-contained replacement:

* :mod:`repro.solver.terms` — hash-consed term DAG for booleans and bit
  vectors (constants, variables, arithmetic, comparisons, shifts, ite, ...).
* :mod:`repro.solver.simplify` — structural simplification and constant
  folding, applied while terms are built.
* :mod:`repro.solver.cnf` — CNF container and Tseitin transformation
  helpers, including activation-literal guarded assertions.
* :mod:`repro.solver.bitblast` — bit-blasting of bit-vector terms to CNF,
  memoized per hash-consed term id.
* :mod:`repro.solver.sat` — an incremental CDCL SAT solver (two-watched
  literals, VSIDS, restarts, assumptions, a per-call propagation budget).
* :mod:`repro.solver.solver` — the :class:`Solver` facade with assertion
  stacks, models and the per-query budget ``DEFAULT_MAX_PROPAGATIONS``.
* :mod:`repro.solver.backends` — pluggable SAT backends behind the facade
  (in-process CDCL by default, python-sat, external DIMACS binaries; one
  per solver, ``Solver(backend=...)``) and the oracle pre-answer chain.
  Every SAT call the facade makes goes through one of them.

The public API mirrors the small subset of an SMT solver API that STACK
needs: build terms via :class:`TermManager`, assert them on a
:class:`Solver`, and call :meth:`Solver.check`.  The incremental entry
points (``Solver(..., incremental=True)``) are first-class:
``check(assumptions=...)`` decides a query under per-call assumptions over
a persistent clause database, ``push``/``pop`` scope assertions via
activation literals without CNF rebuilds, and learned clauses and
bit-blasted encodings are retained across queries.  :class:`SolverStats`
exposes the work done — restarts, blasted clauses, blast-cache hits — and
:func:`is_unsat` is a one-shot convenience wrapper.
See docs/SOLVER.md for the architecture and a tuning table.
"""

from repro.solver.terms import (
    BV,
    BOOL,
    Op,
    Sort,
    Term,
    TermManager,
)
from repro.solver.sat import SatResult, SatSolver
from repro.solver.backends import (
    BACKENDS,
    SolverBackend,
    available_backends,
    create_backend,
)
from repro.solver.solver import (
    CheckResult,
    Model,
    Solver,
    SolverStats,
    is_unsat,
)

__all__ = [
    "BACKENDS",
    "BV",
    "BOOL",
    "CheckResult",
    "Model",
    "Op",
    "SatResult",
    "SatSolver",
    "Solver",
    "SolverBackend",
    "SolverStats",
    "Sort",
    "Term",
    "TermManager",
    "available_backends",
    "create_backend",
    "is_unsat",
]
