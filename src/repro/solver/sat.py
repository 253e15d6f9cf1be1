"""A CDCL SAT solver.

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
makes closely related queries cheap after the first one.  The one resource
budget, ``max_propagations``, is per call and counts propagated literals, so
whether it runs out depends only on the clause stream, never on the clock or
the load of the machine; exhausting it leaves the solver reusable.  When a
call returns UNSAT because an assumption literal was refuted,
``failed_assumption`` names it and the clause database stays consistent
(``ok`` remains True).

Literals use the DIMACS convention: variable ``v`` (a positive integer) is
represented by the literals ``v`` and ``-v``.  The solver is deliberately
dependency-free so that the whole reproduction runs on a stock Python
install; its hot loops are shaped for CPython instead, and every call makes
exactly the decisions of the plain loop they replaced (docs/SOLVER.md, "CDCL
core").
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence


class SatResult(enum.Enum):
    """Outcome of a SAT solver invocation."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"      # propagation budget exhausted


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
        # Literal-indexed (length 2 * _capacity + 1): vals[lit] is True,
        # False or None, and watches[lit] lists the clauses watching lit.
        self._capacity = 0
        self.vals: List[Optional[bool]] = [None]
        self.watches: List[Optional[List[_Clause]]] = [None]
        # Variable-indexed; level and reason are only read while assigned.
        self.level: List[int] = [0]
        self.reason: List[Optional[_Clause]] = [None]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0

        self.activity: List[float] = [0.0]
        # prio[v] is activity[v] while v is unassigned, else -1.0.  bound[b]
        # >= max(prio[64*b:64*b+64]), stale-high until the pick tightens it.
        self.prio: List[float] = [-1.0]
        self.bound: List[float] = [-1.0]
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.phase: List[bool] = [False]
        self._seen: List[bool] = [False]

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
        v = self.num_vars
        if v > self._capacity:
            self._grow()
        self.watches[v], self.watches[-v] = [], []
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.prio.append(0.0)
        self.bound[v >> 6] = max(self.bound[v >> 6], 0.0)
        self.phase.append(False)
        self._seen.append(False)
        return v

    def _grow(self) -> None:
        # Negative literals index from the end: the gap goes in the middle.
        old = self._capacity
        self._capacity = max(16, 2 * old)
        gap = [None] * (2 * (self._capacity - old))
        self.vals = self.vals[:old + 1] + gap + self.vals[old + 1:]
        self.watches = self.watches[:old + 1] + gap + self.watches[old + 1:]
        self.bound += [-1.0] * ((self._capacity >> 6) + 1 - len(self.bound))

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause; returns False if the formula is trivially UNSAT."""
        if not self.ok:
            return False
        # Back to the root (a SAT answer leaves its model on the trail), so
        # every assigned literal below is a root-level one.
        if self.trail_lim:
            self._cancel_until(0)
        vals = self.vals
        seen = set()
        out: List[int] = []
        for lit in lits:
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            value = vals[lit]
            if value is True:
                return True  # already satisfied at root
            if value is False:
                continue      # falsified at root; drop literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)
            self.ok = self._propagate() is None
            return self.ok
        clause = _Clause(out)
        self.clauses.append(clause)
        self.watches[out[0]].append(clause)
        self.watches[out[1]].append(clause)
        return True

    # -- assignment and propagation --------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> None:
        """Assign the unassigned literal ``lit`` at the current level."""
        var = abs(lit)
        self.vals[lit] = True
        self.vals[-lit] = False
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.prio[var] = -1.0
        self.trail.append(lit)

    def _propagate(self) -> Optional[_Clause]:
        trail, vals, watches = self.trail, self.vals, self.watches
        level, reason, prio = self.level, self.reason, self.prio
        dl = len(self.trail_lim)
        qhead = self.qhead
        conflict: Optional[_Clause] = None
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            watchers = watches[neg]
            j = moved = 0
            for clause in watchers:
                lits = clause.lits
                # Make sure the falsified literal is at position 1.
                first = lits[0]
                if first == neg:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = neg
                value = vals[first]
                if value is True:
                    watchers[j] = clause
                    j += 1
                    continue
                # Look for a replacement watch.
                for k in range(2, len(lits)):
                    other = lits[k]
                    if vals[other] is not False:
                        lits[1] = other
                        lits[k] = neg
                        watches[other].append(clause)
                        moved += 1
                        break
                else:
                    # Clause is unit or conflicting.
                    watchers[j] = clause
                    j += 1
                    if value is False:
                        conflict = clause
                        break
                    vals[first] = True
                    vals[-first] = False
                    var = first if first > 0 else -first
                    level[var] = dl
                    reason[var] = clause
                    prio[var] = -1.0
                    trail.append(first)
            if conflict is not None:
                del watchers[j:j + moved]
                break
            del watchers[j:]
        self.propagations += qhead - self.qhead
        self.qhead = qhead
        return conflict

    # -- conflict analysis ---------------------------------------------------

    def _analyze(self, conflict: _Clause) -> tuple[List[int], int]:
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen, level, trail = self._seen, self.level, self.trail
        activity, reason, inc = self.activity, self.reason, self.var_inc
        dl = len(self.trail_lim)
        counter = lit = 0
        clause = conflict
        index = len(trail) - 1

        while True:
            if clause.learned:
                clause.activity += 1.0
            for q in clause.lits:
                if q == lit:
                    continue
                var = q if q > 0 else -q
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    activity[var] += inc
                    if activity[var] > 1e100:
                        self._rescale_activity()
                        inc = self.var_inc
                    if level[var] >= dl:
                        counter += 1
                    else:
                        learnt.append(q)
            # Pick next literal from the trail to resolve on.
            while not seen[abs(trail[index])]:
                index -= 1
            lit = trail[index]
            var = abs(lit)
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            clause = reason[var]
        learnt[0] = -lit
        for q in learnt:
            seen[abs(q)] = False

        # Backtrack to the second highest level; its first literal goes to [1].
        back_level = 0
        if len(learnt) > 1:
            i = max(range(1, len(learnt)), key=lambda i: level[abs(learnt[i])])
            learnt[1], learnt[i] = learnt[i], learnt[1]
            back_level = level[abs(learnt[1])]
        return learnt, back_level

    def _rescale_activity(self) -> None:
        # Conflict analysis bumps assigned variables only, whose prio stays
        # -1.0; a rescale is the one point there that moves prio.
        activity, prio = self.activity, self.prio
        activity[:] = [a * 1e-100 for a in activity]
        prio[:] = [-1.0 if p < 0.0 else a for p, a in zip(prio, activity)]
        self.bound[:] = [max(prio[i:i + 64], default=-1.0)
                         for i in range(0, 64 * len(self.bound), 64)]
        self.var_inc *= 1e-100

    # -- backtracking ---------------------------------------------------------

    def _cancel_until(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        limit = self.trail_lim[level]
        vals, prio, bound, activity, phase = \
            self.vals, self.prio, self.bound, self.activity, self.phase
        for lit in self.trail[limit:]:
            vals[lit] = vals[-lit] = None
            var = abs(lit)
            prio[var] = act = activity[var]
            phase[var] = lit > 0
            if bound[var >> 6] < act:
                bound[var >> 6] = act
        del self.trail[limit:]
        del self.trail_lim[level:]
        self.qhead = len(self.trail)

    # -- learned clause management -----------------------------------------

    def _reduce_learned(self) -> None:
        self.learned.sort(key=lambda c: c.activity)
        dropped = {c for c in self.learned[: len(self.learned) // 2]
                   if len(c.lits) > 2}
        self.learned = [c for c in self.learned if c not in dropped]
        for lit in {lit for c in dropped for lit in c.lits[:2]}:
            watchers = self.watches[lit]
            watchers[:] = [c for c in watchers if c not in dropped]

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
    ) -> SatResult:
        """Decide satisfiability under optional assumptions and a budget.

        ``max_propagations`` is the budget of *this call* (None: unbounded);
        the cumulative ``propagations`` counter keeps growing across calls.
        """
        self.failed_assumption = None
        if not self.ok:
            return SatResult.UNSAT
        restart_idx = 1
        conflict_budget = 100 * self._luby(restart_idx)
        conflicts_here = 0
        limit = None if max_propagations is None \
            else self.propagations + max_propagations
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
                if not self.trail_lim:
                    self.ok = False
                    return SatResult.UNSAT
                learnt, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                clause = None
                if len(learnt) > 1:
                    clause = _Clause(learnt, learned=True)
                    self.learned.append(clause)
                    self.watches[learnt[0]].append(clause)
                    self.watches[learnt[1]].append(clause)
                self._enqueue(learnt[0], clause)
                self.var_inc /= self.var_decay
                if len(self.learned) > max_learned:
                    self._reduce_learned()
                    max_learned = int(max_learned * 1.3)
                continue

            if limit is not None and self.propagations >= limit:
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
            if len(self.trail_lim) < len(assumptions):
                lit = assumptions[len(self.trail_lim)]
                value = self.vals[lit]
                if value is False:
                    # The clause database refutes this assumption: UNSAT
                    # relative to the assumptions, but the solver stays
                    # consistent and reusable.
                    self.failed_assumption = lit
                    self._cancel_until(0)
                    return SatResult.UNSAT
                self.trail_lim.append(len(self.trail))
                if value is None:
                    self._enqueue(lit, None)
                continue

            # Branch on the highest-activity unassigned var, lowest on ties:
            # the first block whose bound is the maximum and holds it.
            bound, prio = self.bound, self.prio
            while True:
                best = max(bound)
                if best < 0.0:
                    return SatResult.SAT
                start = bound.index(best) << 6
                exact = max(prio[start:start + 64])
                if exact == best:
                    break
                bound[start >> 6] = exact
            var = prio.index(best, start)
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if self.phase[var] else -var, None)

    # -- model access ------------------------------------------------------

    def model_value(self, var: int) -> bool:
        """Value of a variable in the most recent SAT model (False if unset)."""
        return self.vals[var] is True

    def model(self) -> Dict[int, bool]:
        """Full variable assignment of the most recent SAT model."""
        return {v: self.vals[v] is True for v in range(1, self.num_vars + 1)}
