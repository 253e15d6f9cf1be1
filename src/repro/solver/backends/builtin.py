"""The builtin backend: the in-process CDCL solver behind the contract.

It is the facade's default backend.  Two construction modes:

* ``BuiltinBackend(sat=solver)`` wraps an *externally fed* solver — the
  facade's own SAT instance, which already receives every clause directly
  through its :class:`~repro.solver.cnf.CnfBuilder`.  ``add_clauses`` is a
  no-op then, so the clause stream is neither recorded nor applied twice.
  This is how every default ``Solver`` runs.
* ``BuiltinBackend()`` owns a fresh :class:`~repro.solver.sat.SatSolver`
  and consumes the recorded clause stream via :meth:`add_clauses` like any
  other backend (how a standalone backend, e.g. from ``create_backend``,
  runs).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.solver.backends.base import BackendAnswer, SolverBackend
from repro.solver.sat import SatResult, SatSolver


class BuiltinBackend(SolverBackend):
    """Adapter around the dependency-free incremental CDCL solver."""

    name = "builtin"

    def __init__(self, sat: Optional[SatSolver] = None) -> None:
        self._external = sat is not None
        self.sat = sat if sat is not None else SatSolver()

    def ensure_vars(self, num_vars: int) -> None:
        while self.sat.num_vars < num_vars:
            self.sat.new_var()

    def add_clauses(self, clauses: Sequence[Sequence[int]]) -> None:
        if self._external:
            return  # the wrapped solver is fed directly by its CnfBuilder
        for clause in clauses:
            self.sat.add_clause(list(clause))

    def solve(self, assumptions: Sequence[int] = (),
              max_propagations: Optional[int] = None) -> BackendAnswer:
        sat = self.sat
        conflicts0, decisions0 = sat.conflicts, sat.decisions
        propagations0, restarts0 = sat.propagations, sat.restarts
        result = sat.solve(assumptions=list(assumptions),
                           max_propagations=max_propagations)
        stats = {
            "conflicts": sat.conflicts - conflicts0,
            "decisions": sat.decisions - decisions0,
            "propagations": sat.propagations - propagations0,
            "restarts": sat.restarts - restarts0,
        }
        model = sat.model() if result is SatResult.SAT else None
        return BackendAnswer(result=result, model=model, stats=stats)
