"""Subprocess backend: any DIMACS-speaking solver binary.

``REPRO_SAT_BINARY`` names the command (shell-style, so arguments are
allowed — e.g. ``"python -m repro.solver.backends.selfsolve"`` drives the
bundled reference solver, and ``"cadical -q"`` or ``"kissat"`` drive real
ones).  Each solve writes the accumulated clause database plus the per-call
assumptions (as unit clauses) to a temporary CNF file, invokes the command
with that path as its last argument, and parses SAT-competition output:
the ``s SATISFIABLE`` / ``s UNSATISFIABLE`` / ``s UNKNOWN`` status line
(exit codes 10/20 are also honored) and ``v`` model lines.

The backend is stateless across calls from the binary's point of view —
assumptions cannot be retracted any other way through a pipe — so it pays
a full re-solve and a process start per query.  That is the price of total
pluggability: it is an escape hatch to a real solver binary, not a fast
path.  ``max_propagations`` cannot be forwarded portably, so the child
always runs to completion.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
from typing import Dict, List, Optional, Sequence

from repro.solver.backends.base import BackendAnswer, SolverBackend
from repro.solver.cnf import emit_dimacs
from repro.solver.sat import SatResult

#: Environment variable naming the external solver command.
SAT_BINARY_ENV = "REPRO_SAT_BINARY"


def parse_solver_output(text: str) -> "tuple[Optional[SatResult], Dict[int, bool]]":
    """Parse SAT-competition style output into (status, model)."""
    status: Optional[SatResult] = None
    model: Dict[int, bool] = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("s "):
            verdict = line[2:].strip().upper()
            if verdict == "SATISFIABLE":
                status = SatResult.SAT
            elif verdict == "UNSATISFIABLE":
                status = SatResult.UNSAT
            else:
                status = SatResult.UNKNOWN
        elif line.startswith("v ") or line == "v":
            for token in line[1:].split():
                lit = int(token)
                if lit != 0:
                    model[abs(lit)] = lit > 0
    return status, model


class DimacsBackend(SolverBackend):
    """Adapter around an external DIMACS solver process."""

    name = "dimacs"

    def __init__(self, command: Optional[str] = None) -> None:
        command = command if command is not None \
            else os.environ.get(SAT_BINARY_ENV, "")
        if not command:
            raise RuntimeError(
                "the 'dimacs' backend needs a solver command in the "
                f"{SAT_BINARY_ENV} environment variable")
        self.command = shlex.split(command)
        self._clauses: List[List[int]] = []
        self._num_vars = 0

    @classmethod
    def available(cls) -> bool:
        return bool(os.environ.get(SAT_BINARY_ENV))

    # -- contract ----------------------------------------------------------------

    def ensure_vars(self, num_vars: int) -> None:
        self._num_vars = max(self._num_vars, num_vars)

    def add_clauses(self, clauses: Sequence[Sequence[int]]) -> None:
        for clause in clauses:
            self._clauses.append(list(clause))

    def solve(self, assumptions: Sequence[int] = (),
              max_propagations: Optional[int] = None) -> BackendAnswer:
        clauses = self._clauses + [[lit] for lit in assumptions]
        num_vars = max([self._num_vars]
                       + [abs(lit) for c in clauses for lit in c] or [0])
        text = emit_dimacs(clauses, num_vars=num_vars, canonical=False)

        path = None
        try:
            with tempfile.NamedTemporaryFile(
                    "w", suffix=".cnf", delete=False, encoding="utf-8") as cnf:
                cnf.write(text)
                path = cnf.name
            process = subprocess.run(
                self.command + [path],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        except OSError as exc:
            raise RuntimeError(
                f"dimacs backend failed to run {self.command[0]!r}: {exc}")
        finally:
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass

        status, model = parse_solver_output(process.stdout or "")
        if status is None:
            # No status line: fall back to the 10/20 exit-code convention.
            if process.returncode == 10:
                status = SatResult.SAT
            elif process.returncode == 20:
                status = SatResult.UNSAT
            else:
                status = SatResult.UNKNOWN
        if status is SatResult.SAT:
            return BackendAnswer(result=SatResult.SAT, model=model,
                                 stats={"solves": 1})
        return BackendAnswer(result=status, stats={"solves": 1})
