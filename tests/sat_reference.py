"""Reference CDCL SAT solver for the decision-identity tests (test-only).

This is ``repro.solver.sat`` as it stood before its hot loops were
rewritten, kept verbatim below this paragraph.  ``test_sat_identity.py``
drives it side by side with the production solver and requires the same
answers, models, failed assumptions and work counters after every call.
Do not optimise it: its value is that it is the plain, obvious loop.  One
change was made since: the per-call budget counts propagations
(``max_propagations``) instead of conflicts, checked at the same point of
the loop, as in the production solver.

The original module docstring follows.

This is the boolean engine underneath the bit-vector solver.  It implements
the standard conflict-driven clause-learning loop:

* two-watched-literal clause propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style activity-based decision heuristic with phase saving,
* Luby-sequence restarts,
* learned-clause deletion based on activity.

The solver is *incremental*: ``solve`` may be called repeatedly on the same
instance, clauses may be added between calls, and each call may pass a set
of assumption literals that hold only for that call.  Learned clauses,
variable activities, and saved phases persist across calls, which is what
makes closely related queries cheap after the first one.  Resource budgets
(``max_conflicts``, ``timeout``) are per call, and exhausting one leaves the
solver reusable.  When a call returns UNSAT because an assumption literal
was refuted, ``failed_assumption`` names it and the clause database stays
consistent (``ok`` remains True).

Literals use the DIMACS convention: variable ``v`` (a positive integer) is
represented by the literals ``v`` and ``-v``.  The solver is deliberately
dependency-free so that the whole reproduction runs on a stock Python
install.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence


class SatResult(enum.Enum):
    """Outcome of a SAT solver invocation."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"      # resource limit (timeout / conflict budget) reached


class _Clause:
    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: List[int], learned: bool = False) -> None:
        self.lits = lits
        self.learned = learned
        self.activity = 0.0


class SatSolver:
    """Incremental CDCL solver over integer literals.

    Typical use::

        solver = SatSolver()
        x, y = solver.new_var(), solver.new_var()
        solver.add_clause([x, y])
        solver.add_clause([-x])
        assert solver.solve() is SatResult.SAT
        assert solver.model_value(y) is True
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[_Clause] = []
        self.learned: List[_Clause] = []
        # watches[lit] -> clauses watching lit
        self.watches: Dict[int, List[_Clause]] = {}
        # assignment: var -> bool or None
        self.assign: List[Optional[bool]] = [None]
        self.level: List[int] = [0]
        self.reason: List[Optional[_Clause]] = [None]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0

        self.activity: List[float] = [0.0]
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.phase: List[bool] = [False]

        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        #: The assumption literal whose refutation caused the last UNSAT
        #: answer, or None when the clause database itself is inconsistent.
        self.failed_assumption: Optional[int] = None

    # -- problem construction ---------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self.num_vars += 1
        self.assign.append(None)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        v = self.num_vars
        self.watches.setdefault(v, [])
        self.watches.setdefault(-v, [])
        return v

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause; returns False if the formula is trivially UNSAT."""
        if not self.ok:
            return False
        # A previous SAT answer leaves its model on the trail; root-level
        # simplification below is only sound against root-level assignments.
        if self.trail_lim:
            self._cancel_until(0)
        seen = set()
        out: List[int] = []
        for lit in lits:
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            value = self._value(lit)
            if value is True and self._lit_level(lit) == 0:
                return True  # already satisfied at root
            if value is False and self._lit_level(lit) == 0:
                continue      # falsified at root; drop literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self.ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self.ok = False
                return False
            return True
        clause = _Clause(out)
        self.clauses.append(clause)
        self._attach(clause)
        return True

    def _attach(self, clause: _Clause) -> None:
        self.watches[clause.lits[0]].append(clause)
        self.watches[clause.lits[1]].append(clause)

    # -- assignment helpers --------------------------------------------------

    def _value(self, lit: int) -> Optional[bool]:
        val = self.assign[abs(lit)]
        if val is None:
            return None
        return val if lit > 0 else not val

    def _lit_level(self, lit: int) -> int:
        return self.level[abs(lit)]

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        value = self._value(lit)
        if value is not None:
            return value
        var = abs(lit)
        self.assign[var] = lit > 0
        self.level[var] = self._decision_level()
        self.reason[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)
        return True

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            neg = -lit
            watchers = self.watches[neg]
            new_watchers: List[_Clause] = []
            i = 0
            conflict: Optional[_Clause] = None
            while i < len(watchers):
                clause = watchers[i]
                i += 1
                lits = clause.lits
                # Make sure the falsified literal is at position 1.
                if lits[0] == neg:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._value(first) is True:
                    new_watchers.append(clause)
                    continue
                # Look for a replacement watch.
                found = False
                for k in range(2, len(lits)):
                    if self._value(lits[k]) is not False:
                        lits[1], lits[k] = lits[k], lits[1]
                        self.watches[lits[1]].append(clause)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                new_watchers.append(clause)
                if self._value(first) is False:
                    conflict = clause
                    new_watchers.extend(watchers[i:])
                    break
                self._enqueue(first, clause)
            self.watches[neg] = new_watchers
            if conflict is not None:
                return conflict
        return None

    # -- conflict analysis ---------------------------------------------------

    def _analyze(self, conflict: _Clause) -> tuple[List[int], int]:
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = None
        clause: Optional[_Clause] = conflict
        index = len(self.trail) - 1

        while True:
            assert clause is not None
            self._bump_clause(clause)
            for q in clause.lits:
                if lit is not None and q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self.level[var] >= self._decision_level():
                        counter += 1
                    else:
                        learnt.append(q)
            # Pick next literal from the trail to resolve on.
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            var = abs(lit)
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            clause = self.reason[var]
        learnt[0] = -lit

        # Compute backtrack level (second highest level in the clause).
        if len(learnt) == 1:
            back_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if self.level[abs(learnt[i])] > self.level[abs(learnt[max_i])]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = self.level[abs(learnt[1])]
        return learnt, back_level

    def _bump_var(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for i in range(1, self.num_vars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100

    def _bump_clause(self, clause: _Clause) -> None:
        if clause.learned:
            clause.activity += 1.0

    def _decay_var_activity(self) -> None:
        self.var_inc /= self.var_decay

    # -- backtracking ---------------------------------------------------------

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self.trail_lim[level]
        for lit in reversed(self.trail[limit:]):
            var = abs(lit)
            self.assign[var] = None
            self.reason[var] = None
        del self.trail[limit:]
        del self.trail_lim[level:]
        self.qhead = len(self.trail)

    # -- decisions ------------------------------------------------------------

    def _pick_branch_var(self) -> Optional[int]:
        best_var = None
        best_act = -1.0
        for var in range(1, self.num_vars + 1):
            if self.assign[var] is None and self.activity[var] > best_act:
                best_act = self.activity[var]
                best_var = var
        if best_var is None:
            return None
        return best_var if self.phase[best_var] else -best_var

    # -- learned clause management -----------------------------------------

    def _reduce_learned(self) -> None:
        self.learned.sort(key=lambda c: c.activity)
        keep = self.learned[len(self.learned) // 2:]
        dropped = set(id(c) for c in self.learned[: len(self.learned) // 2]
                      if len(c.lits) > 2)
        if not dropped:
            return
        self.learned = [c for c in self.learned if id(c) not in dropped or len(c.lits) <= 2]
        for lit in list(self.watches):
            self.watches[lit] = [c for c in self.watches[lit] if id(c) not in dropped]

    # -- main loop -------------------------------------------------------------

    @staticmethod
    def _luby(i: int) -> int:
        """The i-th element (1-based) of the Luby restart sequence (1,1,2,1,1,2,4,...)."""
        x = i - 1
        size, seq = 1, 0
        while size < x + 1:
            seq += 1
            size = 2 * size + 1
        while size - 1 != x:
            size = (size - 1) // 2
            seq -= 1
            x = x % size
        return 1 << seq

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_propagations: Optional[int] = None,
        timeout: Optional[float] = None,
        stop: Optional["threading.Event"] = None,
    ) -> SatResult:
        """Decide satisfiability under optional assumptions and budgets.

        ``max_propagations`` and ``timeout`` are budgets for *this call*; the
        cumulative ``conflicts`` counter keeps growing across calls.
        ``stop`` is an optional :class:`threading.Event`: setting it from
        another thread makes the loop return UNKNOWN at the next decision
        point with the solver left reusable — how a portfolio race cancels
        a losing backend.
        """
        self.failed_assumption = None
        if not self.ok:
            return SatResult.UNSAT
        deadline = None if timeout is None else time.monotonic() + timeout
        restart_idx = 1
        conflict_budget = 100 * self._luby(restart_idx)
        conflicts_here = 0
        propagations_at_entry = self.propagations
        max_learned = max(1000, len(self.clauses) // 2)

        self._cancel_until(0)
        conflict = self._propagate()
        if conflict is not None:
            self.ok = False
            return SatResult.UNSAT

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if self._decision_level() == 0:
                    self.ok = False
                    return SatResult.UNSAT
                learnt, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    clause = _Clause(learnt, learned=True)
                    self.learned.append(clause)
                    self._attach(clause)
                    self._enqueue(learnt[0], clause)
                self._decay_var_activity()
                if len(self.learned) > max_learned:
                    self._reduce_learned()
                    max_learned = int(max_learned * 1.3)
                continue

            if deadline is not None and time.monotonic() > deadline:
                self._cancel_until(0)
                return SatResult.UNKNOWN
            if stop is not None and stop.is_set():
                self._cancel_until(0)
                return SatResult.UNKNOWN
            if max_propagations is not None and self.propagations \
                    - propagations_at_entry >= max_propagations:
                self._cancel_until(0)
                return SatResult.UNKNOWN
            if conflicts_here >= conflict_budget:
                conflicts_here = 0
                restart_idx += 1
                self.restarts += 1
                conflict_budget = 100 * self._luby(restart_idx)
                self._cancel_until(len(assumptions) if assumptions else 0)
                continue

            # Apply assumptions first.
            if self._decision_level() < len(assumptions):
                lit = assumptions[self._decision_level()]
                value = self._value(lit)
                if value is True:
                    self.trail_lim.append(len(self.trail))
                    continue
                if value is False:
                    # The clause database refutes this assumption: UNSAT
                    # relative to the assumptions, but the solver stays
                    # consistent and reusable.
                    self.failed_assumption = lit
                    self._cancel_until(0)
                    return SatResult.UNSAT
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
                continue

            lit = self._pick_branch_var()
            if lit is None:
                return SatResult.SAT
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)

    # -- model access ------------------------------------------------------

    def model_value(self, var: int) -> bool:
        """Value of a variable in the most recent SAT model (False if unset)."""
        value = self.assign[var]
        return bool(value)

    def model(self) -> Dict[int, bool]:
        """Full variable assignment of the most recent SAT model."""
        return {v: bool(self.assign[v]) for v in range(1, self.num_vars + 1)}
