"""Solver facade combining term simplification, bit-blasting, and CDCL SAT.

The :class:`Solver` provides the small slice of an SMT solver API that STACK
needs: assert boolean terms over bit vectors, check satisfiability under a
per-query propagation budget, and extract models.

Two operating modes exist:

* **scratch** (``incremental=False``) — every ``check`` builds a fresh SAT
  instance from the current assertion set.  Simple, stateless between
  queries, and the reference semantics the incremental mode is tested
  against.
* **incremental** (``incremental=True``) — one SAT instance, one CNF, and
  one bit-blaster persist for the solver's lifetime.  Assertions are guarded
  by per-frame *activation literals*, so ``push``/``pop`` never rebuild CNF:
  a pop permanently asserts the negated activation literal, retiring the
  frame's constraints while keeping every learned clause and every
  bit-blasted encoding.  ``check(assumptions=...)`` passes per-query deltas
  straight to the SAT solver as assumption literals, which is how the
  checker batches the closely related elimination/simplification queries of
  one candidate into one context.

Both modes share the same pre-pass: the asserted conjunction is structurally
simplified (deciding many queries outright) and the oracle chain
(:mod:`repro.solver.backends.oracle`) tries a handful of concrete
assignments before any bit-blasting happens.

Queries that survive the pre-pass are bit-blasted once and handed to one
named backend from :mod:`repro.solver.backends`, the way the paper sends
every query to Boolector.  The default, ``backend="builtin"``, is the
in-process CDCL engine; ``"pysat"`` and ``"dimacs"`` receive the recorded
clause stream instead.  Backends must agree on verdicts; models may differ
(any satisfying assignment is acceptable).

The budget is counted in SAT propagations, not seconds: the paper gives
Boolector 5 s per query, and ``DEFAULT_MAX_PROPAGATIONS`` is about that much
CDCL work, but a verdict under it never depends on the clock or on the load
of the machine (docs/ENGINE.md, "Budgets").
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import merge_counter_dataclass
from repro.solver.backends import (BackendAnswer, BuiltinBackend,
                                   SolverBackend, backend_class, preanswer)
from repro.solver.bitblast import BitBlaster
from repro.solver.cnf import CnfBuilder
from repro.solver.sat import SatResult, SatSolver
from repro.solver.simplify import simplify
from repro.solver.terms import Term, TermManager, collect_variables

#: The per-query budget, in SAT propagations, of every solver the checker
#: and its verifiers build.
DEFAULT_MAX_PROPAGATIONS = 1_000_000


class CheckResult(enum.Enum):
    """Outcome of a satisfiability query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"       # propagation budget exhausted


@dataclass
class SolverStats:
    """Counters accumulated across all queries issued to a solver.

    The first block counts time and the oracle pre-pass's answers; the
    second exposes the work the CDCL/bit-blasting layers did, which is what
    makes the incremental-vs-scratch comparison observable in run stats
    (see docs/SOLVER.md for a tuning table).  The checker counts verdicts
    itself, in the function's ``queries`` and ``timeouts``.
    """

    solver_time: float = 0.0      # seconds inside check

    oracle_sat: int = 0           # queries decided SAT by the oracle pre-pass
    oracle_unsat: int = 0         # queries decided UNSAT by constant folding

    sat_calls: int = 0            # queries that reached the CDCL loop
    restarts: int = 0             # CDCL restarts across those calls
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    blasted_clauses: int = 0      # CNF clauses produced by bit-blasting
    blast_hits: int = 0           # term encodings reused from the blast cache

    def merge(self, other: "SolverStats") -> None:
        """Accumulate another stats block into this one.

        Reflection-based (:func:`repro.obs.metrics.merge_counter_dataclass`):
        every numeric field adds, so a counter added to this dataclass later
        can never be silently dropped (``tests/test_stats_merge.py`` guards
        this).
        """
        merge_counter_dataclass(self, other)


class Model:
    """A satisfying assignment mapping variable names to concrete values."""

    def __init__(self, values: Dict[str, int]) -> None:
        self._values = dict(values)

    def __getitem__(self, name: str) -> int:
        return self._values[name]

    def get(self, name: str, default: Optional[int] = None) -> Optional[int]:
        return self._values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def as_dict(self) -> Dict[str, int]:
        return dict(self._values)

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Model({items})"


@dataclass
class _Frame:
    """One assertion frame of the incremental solver.

    ``act`` is the frame's activation literal; it is allocated lazily, the
    first time a term of this frame is encoded.  Every assertion of the
    frame becomes the guarded clause ``(-act ∨ lit)``, and each check
    assumes ``act``; popping the frame permanently asserts ``-act``.
    """

    terms: List[Term] = field(default_factory=list)
    act: Optional[int] = None
    encoded: int = 0              # how many terms are already in the CNF


class Solver:
    """Bit-vector satisfiability solver with an assertion stack.

    Parameters
    ----------
    manager:
        The :class:`TermManager` used to build asserted terms.  A solver may
        also be created without one, in which case it allocates its own.
    max_propagations:
        Per-query budget in SAT propagations (``None``: unbounded); a query
        that exhausts it answers UNKNOWN.  The checker passes its own
        configured value through.
    incremental:
        Keep one SAT instance alive across ``check`` calls: learned clauses
        are retained, bit-blasted encodings are memoized per hash-consed
        term id, and push/pop is implemented with activation literals.  A
        budget-exhausted (UNKNOWN) query leaves the solver reusable.
    backend:
        The named backend from :data:`repro.solver.backends.BACKENDS`
        ("builtin", the default in-process CDCL, "pysat" or "dimacs") that
        decides every query the pre-pass leaves open.  Naming an unknown or
        unavailable backend raises.
    """

    def __init__(
        self,
        manager: Optional[TermManager] = None,
        max_propagations: Optional[int] = DEFAULT_MAX_PROPAGATIONS,
        incremental: bool = False,
        backend: str = "builtin",
    ) -> None:
        self.manager = manager if manager is not None else TermManager()
        self.max_propagations = max_propagations
        self.incremental = incremental
        self.stats = SolverStats()
        self._frames: List[_Frame] = [_Frame()]
        self._last_model: Optional[Model] = None
        self._backend_cls = backend_class(backend)
        # Persistent engines (incremental mode), created on first use.
        self._sat: Optional[SatSolver] = None
        self._cnf: Optional[CnfBuilder] = None
        self._blaster: Optional[BitBlaster] = None
        self._backend: Optional[SolverBackend] = None
        self._fed = 0                 # recorded clauses the backend has seen
        self._simplified: Dict[int, Term] = {}

    # -- assertion stack --------------------------------------------------------

    def add(self, term: Term) -> None:
        """Assert a boolean term."""
        if not term.sort.is_bool():
            raise TypeError("only boolean terms can be asserted")
        self._frames[-1].terms.append(term)

    def push(self) -> "_Frame":
        """Push a backtracking point; returns an opaque frame token.

        Pass the token back to :meth:`pop` to assert LIFO discipline when
        several callers share one solver.
        """
        frame = _Frame()
        self._frames.append(frame)
        return frame

    def pop(self, expected: Optional["_Frame"] = None) -> None:
        """Pop to the most recent backtracking point.

        In incremental mode the popped frame's activation literal is
        permanently negated, which retires its assertions without discarding
        learned clauses or encodings.  When ``expected`` (a token from
        :meth:`push`) is given, popping anything else raises instead of
        silently retiring another caller's frame.
        """
        if len(self._frames) == 1:
            raise RuntimeError("pop without matching push")
        if expected is not None and self._frames[-1] is not expected:
            raise RuntimeError(
                "pop does not match the pushed frame (non-LIFO use of a "
                "shared solver)")
        frame = self._frames.pop()
        if frame.act is not None and self._cnf is not None:
            self._cnf.add_clause([-frame.act])

    def assertions(self) -> List[Term]:
        out: List[Term] = []
        for frame in self._frames:
            out.extend(frame.terms)
        return out

    # -- checking ----------------------------------------------------------------

    def check(
        self,
        extra: Sequence[Term] = (),
        assumptions: Sequence[Term] = (),
    ) -> CheckResult:
        """Decide satisfiability of the asserted terms plus ``extra``.

        ``assumptions`` (and ``extra``, which is treated identically) hold
        only for this call.  In incremental mode they become SAT-level
        assumption literals over the persistent clause database.
        """
        start = time.monotonic()
        mgr = self.manager
        deltas = list(extra) + list(assumptions)

        terms = self.assertions() + deltas
        if self.incremental:
            # Per-term simplification is memoized for the solver's lifetime,
            # so repeated checks over a large base only pay dictionary
            # lookups here; conjoining the simplified terms still applies
            # the constructor-level folding (constants, complements) that
            # decides trivial queries outright.
            conjunction = mgr.and_(*[self._simplify_term(t) for t in terms])
        else:
            conjunction = mgr.true()
            for t in terms:
                conjunction = mgr.and_(conjunction, t)
            conjunction = simplify(mgr, conjunction)

        # Oracle pre-pass: constant folding decides either way; the
        # evaluation oracle tries a handful of concrete assignments with
        # the term evaluator before paying for bit-blasting (sound because
        # a verified satisfying assignment is a model; never claims UNSAT).
        oracle = preanswer(mgr, conjunction)
        if oracle is not None:
            if oracle.verdict == "sat":
                self.stats.oracle_sat += 1
                if oracle.reason == "constant":
                    self._last_model = Model(self._default_model(terms))
                else:
                    self._last_model = Model(oracle.assignment)
                result = CheckResult.SAT
            else:
                self.stats.oracle_unsat += 1
                result = CheckResult.UNSAT
        elif self.incremental:
            result = self._check_incremental(terms, deltas)
        else:
            result = self._check_scratch(conjunction, terms)
        self.stats.solver_time += time.monotonic() - start
        return result

    def model(self) -> Model:
        """Model of the last SAT query."""
        if self._last_model is None:
            raise RuntimeError("no model available; last check was not SAT")
        return self._last_model

    def _new_engines(self, sat: SatSolver) -> Tuple[CnfBuilder, SolverBackend]:
        """A CNF builder over ``sat`` and the configured backend for it.

        "builtin" wraps ``sat`` itself, which the CnfBuilder already feeds
        clause by clause, so the clause stream is not recorded; any other
        backend consumes the recording.
        """
        if self._backend_cls is BuiltinBackend:
            return CnfBuilder(sat), BuiltinBackend(sat=sat)
        return CnfBuilder(sat, record=True), self._backend_cls()

    # -- scratch mode ------------------------------------------------------------

    def _check_scratch(self, conjunction: Term,
                       terms: Sequence[Term]) -> CheckResult:
        sat = SatSolver()
        cnf, backend = self._new_engines(sat)
        blaster = BitBlaster(cnf)
        try:
            blaster.assert_term(conjunction)
            backend.ensure_vars(sat.num_vars)
            backend.add_clauses(cnf.clauses)
            answer = backend.solve(max_propagations=self.max_propagations)
        finally:
            backend.close()
        self._account_backend_work(answer, cnf, blaster, 0, 0)
        return self._apply_backend_answer(answer, blaster, terms)

    # -- incremental mode --------------------------------------------------------

    def _ensure_engines(self) -> None:
        if self._sat is None:
            self._sat = SatSolver()
            self._cnf, self._backend = self._new_engines(self._sat)
            self._blaster = BitBlaster(self._cnf)

    def _simplify_term(self, term: Term) -> Term:
        cached = self._simplified.get(term.tid)
        if cached is None:
            cached = simplify(self.manager, term)
            self._simplified[term.tid] = cached
        return cached

    def _encode_pending(self) -> None:
        """Encode assertions added since the last check, frame by frame."""
        for frame in self._frames:
            if frame.encoded == len(frame.terms):
                continue
            if frame.act is None:
                frame.act = self._cnf.new_lit()
            for term in frame.terms[frame.encoded:]:
                lit = self._blaster.blast_bool(self._simplify_term(term))
                self._cnf.assert_lit(lit, guard=frame.act)
            frame.encoded = len(frame.terms)

    def _check_incremental(self, terms: Sequence[Term],
                           deltas: Sequence[Term]) -> CheckResult:
        self._ensure_engines()
        sat, cnf, blaster = self._sat, self._cnf, self._blaster
        clauses0 = cnf.num_clauses
        hits0 = blaster.cache_hits

        self._encode_pending()
        delta_lits = [blaster.blast_bool(self._simplify_term(term))
                      for term in deltas]
        assume = [frame.act for frame in self._frames if frame.act is not None]
        assume.extend(delta_lits)

        # Deliver the clauses recorded since the last check (a cursor into
        # the stream), so a persistent external backend stays incremental.
        backend = self._backend
        backend.ensure_vars(sat.num_vars)
        backend.add_clauses(cnf.clauses[self._fed:])
        self._fed = len(cnf.clauses)
        answer = backend.solve(assume, max_propagations=self.max_propagations)
        self._account_backend_work(answer, cnf, blaster, clauses0, hits0)
        return self._apply_backend_answer(answer, blaster, terms)

    # -- backend answers -----------------------------------------------------------

    def _apply_backend_answer(self, answer: BackendAnswer,
                              blaster: BitBlaster,
                              terms: Sequence[Term]) -> CheckResult:
        if answer.result is SatResult.SAT:
            self._last_model = self._extract_model(answer, blaster, terms)
            return CheckResult.SAT
        self._last_model = None
        if answer.result is SatResult.UNSAT:
            return CheckResult.UNSAT
        return CheckResult.UNKNOWN

    def _account_backend_work(self, answer: BackendAnswer, cnf: CnfBuilder,
                              blaster: BitBlaster, clauses0: int,
                              hits0: int) -> None:
        self.stats.sat_calls += 1
        work = answer.stats
        self.stats.restarts += work.get("restarts", 0)
        self.stats.conflicts += work.get("conflicts", 0)
        self.stats.decisions += work.get("decisions", 0)
        self.stats.propagations += work.get("propagations", 0)
        self.stats.blasted_clauses += cnf.num_clauses - clauses0
        self.stats.blast_hits += blaster.cache_hits - hits0

    # -- helpers -------------------------------------------------------------------

    def _default_model(self, terms: Sequence[Term]) -> Dict[str, int]:
        """Arbitrary assignment when the formula simplified to ``true``."""
        values: Dict[str, int] = {}
        for term in terms:
            for name, sort in collect_variables(term).items():
                values.setdefault(name, 0)
        return values

    def _extract_model(
        self,
        answer: BackendAnswer,
        blaster: BitBlaster,
        terms: Sequence[Term],
    ) -> Model:
        """Rebuild named values from a SAT answer's variable assignment."""
        model_value = answer.model_value
        values: Dict[str, int] = {}
        for name, bits in blaster.known_bv_variables().items():
            value = 0
            for i, lit in enumerate(bits):
                bit_val = model_value(abs(lit))
                if lit < 0:
                    bit_val = not bit_val
                if bit_val:
                    value |= 1 << i
            values[name] = value
        for name, lit in blaster.known_bool_variables().items():
            bit_val = model_value(abs(lit))
            if lit < 0:
                bit_val = not bit_val
            values[name] = int(bit_val)
        # Variables folded away before blasting get an arbitrary value.
        for term in terms:
            for name, _sort in collect_variables(term).items():
                values.setdefault(name, 0)
        return Model(values)


def is_unsat(manager: TermManager, *terms: Term) -> bool:
    """Convenience helper: True iff the conjunction of ``terms`` is UNSAT."""
    solver = Solver(manager)
    for term in terms:
        solver.add(term)
    return solver.check() is CheckResult.UNSAT
