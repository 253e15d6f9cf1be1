"""CaDiCaL (and friends) via ``python-sat``, behind the backend contract.

The import is optional: :meth:`PysatBackend.available` answers False on a
stock install and the registry simply skips the backend, so tier-1 stays
dependency-free.  When ``python-sat`` is present the backend keeps one
native solver alive for the facade's lifetime and feeds it the recorded
clause stream incrementally — CaDiCaL's own incremental interface does the
rest (assumptions, learned-clause retention).

Budget: ``max_propagations`` maps to ``prop_budget``/``solve_limited`` where
the chosen engine supports limited solving.  Engines without those hooks
run an unbounded ``solve`` — sound, just not budgeted.

``REPRO_PYSAT_SOLVER`` selects the engine name (default ``cadical195``,
the ZK-ARCKIT-style bootstrap choice).
"""

from __future__ import annotations

import importlib.util
import os
from typing import Optional, Sequence

from repro.solver.backends.base import BackendAnswer, SolverBackend
from repro.solver.sat import SatResult

#: Environment variable naming the pysat engine to instantiate.
PYSAT_SOLVER_ENV = "REPRO_PYSAT_SOLVER"
DEFAULT_PYSAT_SOLVER = "cadical195"


class PysatBackend(SolverBackend):
    """Adapter around a ``pysat.solvers.Solver`` instance."""

    name = "pysat"

    def __init__(self, solver_name: Optional[str] = None) -> None:
        if not self.available():
            raise RuntimeError(
                "the 'pysat' backend requires the python-sat package "
                "(pip install python-sat)")
        from pysat.solvers import Solver as _PysatSolver

        self.solver_name = solver_name or os.environ.get(
            PYSAT_SOLVER_ENV, DEFAULT_PYSAT_SOLVER)
        self._solver = _PysatSolver(name=self.solver_name)
        self._num_vars = 0

    @classmethod
    def available(cls) -> bool:
        return importlib.util.find_spec("pysat") is not None

    # -- contract ----------------------------------------------------------------

    def ensure_vars(self, num_vars: int) -> None:
        self._num_vars = max(self._num_vars, num_vars)

    def add_clauses(self, clauses: Sequence[Sequence[int]]) -> None:
        for clause in clauses:
            self._solver.add_clause(list(clause))

    def solve(self, assumptions: Sequence[int] = (),
              max_propagations: Optional[int] = None) -> BackendAnswer:
        solver = self._solver
        stats0 = self._accum_stats()
        assume = list(assumptions)
        limited = max_propagations is not None
        if limited:
            try:
                solver.prop_budget(int(max_propagations))
                status = solver.solve_limited(assumptions=assume)
            except NotImplementedError:
                limited = False       # this engine has no limited solving
        if not limited:
            status = solver.solve(assumptions=assume)

        stats = self._stats_delta(stats0)
        if status is True:
            model = {abs(lit): lit > 0 for lit in (solver.get_model() or [])}
            return BackendAnswer(result=SatResult.SAT, model=model,
                                 stats=stats)
        if status is False:
            return BackendAnswer(result=SatResult.UNSAT, stats=stats)
        return BackendAnswer(result=SatResult.UNKNOWN, stats=stats)

    def close(self) -> None:
        self._solver.delete()

    # -- stats helpers -----------------------------------------------------------

    def _accum_stats(self) -> dict:
        try:
            stats = self._solver.accum_stats()
        except NotImplementedError:
            return {}
        return dict(stats) if stats else {}

    def _stats_delta(self, before: dict) -> dict:
        after = self._accum_stats()
        keys = ("conflicts", "decisions", "propagations", "restarts")
        return {key: int(after.get(key, 0)) - int(before.get(key, 0))
                for key in keys if key in after}
