"""The pluggable SAT-backend contract.

A :class:`SolverBackend` decides one bit-blasted CNF query: the facade
(:class:`repro.solver.solver.Solver`) owns terms, simplification, the oracle
pre-answer stage, and bit-blasting; a backend only ever sees DIMACS-style
integer literals.  The contract is deliberately small so that radically
different engines fit behind it — the in-process CDCL solver, CaDiCaL via
``python-sat``, or any DIMACS-speaking binary reached over a pipe:

* **clauses** arrive incrementally via :meth:`add_clauses` (append-only; the
  facade never retracts — retired assertions are guarded by activation
  literals exactly as in the builtin incremental mode).  A solver holds one
  backend and feeds it each recorded clause exactly once, from a cursor,
* **assume** — :meth:`solve` takes per-call assumption literals,
* **budget** — a per-call ``max_propagations``, counted in SAT
  propagations so that it never depends on the clock; a backend that
  cannot honor it runs unbounded (the answer is still sound, just possibly
  more expensive).  There is no cancellation hook: a call returns when it
  has an answer or its budget is spent,
* **stats** — every answer carries a plain-int counter dict so per-backend
  work lands in :class:`~repro.solver.solver.SolverStats` and the JSONL
  sink.

Verdict identity is the hard contract: for the same clause set and
assumptions, every backend must return the same SAT/UNSAT status (UNKNOWN
is always permitted under an exhausted budget).  Models may differ between
backends — any satisfying assignment is acceptable.  Every query the
facade's pre-pass leaves open goes through this contract, the default
in-process CDCL included (``backend="builtin"``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.solver.sat import SatResult


@dataclass
class BackendAnswer:
    """One backend's answer to one solve call."""

    result: SatResult
    #: Variable assignment (var -> bool) when SAT; unset variables default
    #: to False at model-extraction time.  None for UNSAT/UNKNOWN.
    model: Optional[Dict[int, bool]] = None
    #: Backend-specific work counters (conflicts, decisions, ...).
    stats: Dict[str, int] = field(default_factory=dict)

    def model_value(self, var: int) -> bool:
        """Model accessor mirroring :meth:`SatSolver.model_value`."""
        if self.model is None:
            return False
        return bool(self.model.get(var, False))


class SolverBackend(abc.ABC):
    """Abstract SAT backend: append clauses, solve under assumptions."""

    #: Registry/report name ("builtin", "pysat", "dimacs", ...).
    name: str = "?"

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can run in the current environment."""
        return True

    @abc.abstractmethod
    def ensure_vars(self, num_vars: int) -> None:
        """Make variables ``1..num_vars`` known to the backend."""

    @abc.abstractmethod
    def add_clauses(self, clauses: Sequence[Sequence[int]]) -> None:
        """Append clauses (DIMACS literals) to the backend's database."""

    @abc.abstractmethod
    def solve(self, assumptions: Sequence[int] = (),
              max_propagations: Optional[int] = None) -> BackendAnswer:
        """Decide the clause database under per-call assumptions and budget."""

    def close(self) -> None:
        """Release external resources (processes, native solver handles)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
