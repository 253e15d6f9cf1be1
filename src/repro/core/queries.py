"""Query execution for the solver-based optimizer.

Each elimination/simplification decision is one satisfiability query.  The
:class:`QueryEngine` issues them under a per-query propagation budget (it
stands in for the paper's 5 s Boolector timeout but does not depend on the
clock), and counts the Figure 16 numbers (#queries, and as #query timeouts
the queries that exhausted the budget) straight into the
:class:`~repro.core.report.Counters` of the function it serves.

Queries come in *batches*: for one unstable-code candidate the checker asks
an elimination or simplification question and then re-asks it under the
well-defined-program assumption (and, for minimal-UB-set computation, once
more per dominating UB condition).  Those queries share almost everything —
only a few conjuncts differ.  A :class:`QueryContext` exploits that: the
shared base terms (typically the candidate's path condition) are asserted
once into an incremental solver frame, and each query passes only its delta
terms as solver *assumptions*.  In incremental mode (the default) one
persistent :class:`~repro.solver.solver.Solver` is shared by every context
the engine opens — contexts map to activation-literal frames, so learned
clauses and bit-blasted encodings carry across the whole function.  With
``incremental=False`` each query builds a fresh scratch solver, which is the
reference semantics the incremental path is tested against.

When a :class:`~repro.engine.cache.SolverQueryCache` is attached, every
query is first content-addressed (structural hash of the query terms plus
their auxiliary definitions) and looked up; a hit replays the cached verdict
without touching any solver.  The cache therefore sits *above* the
incremental layer: a hit skips the context entirely, a miss is solved
incrementally and the verdict stored.  ``stats.queries`` keeps counting
every question asked — the Figure 16 number — while ``stats.solver_queries``
counts only the questions that actually reached a solver.

:func:`set_query_hook` installs a process-wide callback that sees every
query a solver answered; the engine's work units use it for the slow-query
log (docs/OBSERVABILITY.md), so this module needs no part of the ops layer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.encode import FunctionEncoder
from repro.core.report import Counters
from repro.obs.trace import span
from repro.solver.solver import (DEFAULT_MAX_PROPAGATIONS, CheckResult,
                                 Solver, SolverStats)
from repro.solver.terms import Term


#: Called as ``hook(key, verdict, elapsed, backend)`` after every query a
#: solver answered (cache replays excluded); see :func:`set_query_hook`.
_query_hook: Optional[Callable[..., None]] = None


def set_query_hook(hook: Optional[Callable[..., None]],
                   ) -> Optional[Callable[..., None]]:
    """Install ``hook`` for every query in this process (None removes it).

    Returns the hook it displaces, so a caller can put that one back.
    """
    global _query_hook
    previous = _query_hook
    _query_hook = hook
    return previous


class QueryContext:
    """One incremental context: shared base terms, per-query deltas.

    Use as a context manager::

        with engine.context([reach]) as ctx:
            plain = ctx.is_unsat()              # base only
            stable = ctx.is_unsat([delta])      # base + delta as assumption

    In incremental mode the base terms (plus their auxiliary definitions)
    live in a pushed frame of the engine's shared solver, and each
    ``is_unsat`` call passes its deltas as solver assumptions — nothing is
    re-encoded between queries.  Closing the context pops the frame.  In
    scratch mode every call builds a fresh solver, reproducing the
    pre-incremental behavior query for query.
    """

    def __init__(self, engine: "QueryEngine", base: Sequence[Term]) -> None:
        self.engine = engine
        self.base: List[Term] = list(base)
        self._frame = None            # token from Solver.push (LIFO guard)
        self._asserted: Set[int] = set()
        self._closed = False

    def __enter__(self) -> "QueryContext":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Pop this context's solver frame (idempotent).

        Contexts over a shared incremental solver must close in LIFO order;
        popping while a later context's frame is still open raises rather
        than silently retiring that context's assertions.
        """
        if self._closed:
            return
        if self._frame is not None:
            # Pop before marking closed: a failed non-LIFO pop must leave
            # the context open so a later (correctly ordered) close can
            # still retire the frame — otherwise the base assertions leak
            # into the shared solver and poison every later verdict.
            self.engine._shared_solver.pop(self._frame)
        self._closed = True

    def is_unsat(self, deltas: Sequence[Term] = ()) -> Optional[bool]:
        """Decide whether base ∧ deltas (∧ their definitions) is UNSAT.

        Returns True (UNSAT), False (SAT), or None when the query exhausted
        its budget (in which case the checker conservatively assumes
        nothing).
        """
        if self._closed:
            raise RuntimeError("query context is closed")
        engine = self.engine
        full: List[Term] = self.base + list(deltas)
        definitions = engine.encoder.definitions_for(*full)
        goal = full + definitions

        # The span's identity carries only the verdict — deliberately not
        # whether the cache answered — so traced span trees stay identical
        # whatever the cache contents (which vary across worker counts).
        with span("solver.query") as query_span:
            key: Optional[str] = None
            if engine.cache is not None:
                from repro.engine.cache import canonical_query_key

                key = canonical_query_key(goal, engine._key_memo)
                verdict = engine.cache.lookup(
                    key, max_propagations=engine.max_propagations)
                if verdict is not None:
                    engine.stats.cache_hits += 1
                    query_span.set_arg("verdict", verdict)
                    return engine._record(verdict)

            if engine.incremental:
                solver = self._ensure_frame()
                for definition in definitions:
                    if definition.tid not in self._asserted:
                        solver.add(definition)
                        self._asserted.add(definition.tid)
                before = solver.stats.solver_time
                result = solver.check(assumptions=list(deltas))
                elapsed = solver.stats.solver_time - before
            else:
                solver = Solver(engine.encoder.manager,
                                max_propagations=engine.max_propagations,
                                backend=engine.backend)
                for term in goal:
                    solver.add(term)
                result = solver.check()
                elapsed = solver.stats.solver_time
                engine._scratch_stats.merge(solver.stats)

            verdict = result.value
            if engine.cache is not None and key is not None:
                engine.cache.store(key, verdict,
                                   max_propagations=engine.max_propagations,
                                   elapsed=elapsed)
            hook = _query_hook
            if hook is not None:
                hook(key, verdict, elapsed, engine.backend)
            query_span.set_arg("verdict", verdict)
            return engine._record(verdict)

    def _ensure_frame(self) -> Solver:
        solver = self.engine._shared()
        if self._frame is None:
            self._frame = solver.push()
            for term in self.base:
                solver.add(term)
                self._asserted.add(term.tid)
        return solver


class QueryEngine:
    """Issues satisfiability queries for one function's encoder.

    ``queries``, ``cache_hits``, ``timeouts`` and ``contexts`` are counted
    into ``stats``: the :class:`~repro.core.report.FunctionReport` the
    checker passes, or a fresh :class:`~repro.core.report.Counters`.
    """

    def __init__(self, encoder: FunctionEncoder,
                 max_propagations: Optional[int] = DEFAULT_MAX_PROPAGATIONS,
                 cache: Optional["SolverQueryCache"] = None,
                 incremental: bool = True,
                 backend: str = "builtin",
                 stats: Optional[Counters] = None) -> None:
        self.encoder = encoder
        self.max_propagations = max_propagations
        self.cache = cache
        self.incremental = incremental
        self.backend = backend
        self.stats = stats if stats is not None else Counters()
        self._shared_solver: Optional[Solver] = None
        self._scratch_stats = SolverStats()
        # Per-term records of the cache key, keyed by the tids of the
        # encoder's term manager (see repro.engine.cache).
        self._key_memo: Dict[int, tuple] = {}

    # -- contexts ---------------------------------------------------------------

    def context(self, base: Sequence[Term] = ()) -> QueryContext:
        """Open an incremental context over shared ``base`` terms.

        In scratch mode the context is just a grouping device (every query
        still builds its own solver), so it is not counted.
        """
        if self.incremental:
            self.stats.contexts += 1
        return QueryContext(self, base)

    def is_unsat(self, terms: Sequence[Term]) -> Optional[bool]:
        """One-shot query: decide whether the conjunction of ``terms`` is UNSAT.

        Returns True (UNSAT), False (SAT), or None when the budget ran out.
        Batched callers should prefer :meth:`context`.
        """
        with self.context(terms) as ctx:
            return ctx.is_unsat()

    # -- solver plumbing ---------------------------------------------------------

    def _shared(self) -> Solver:
        if self._shared_solver is None:
            self._shared_solver = Solver(
                self.encoder.manager, max_propagations=self.max_propagations,
                incremental=True, backend=self.backend)
        return self._shared_solver

    @property
    def solver_stats(self) -> SolverStats:
        """Aggregate solver-level counters across scratch and shared solvers."""
        merged = SolverStats()
        merged.merge(self._scratch_stats)
        if self._shared_solver is not None:
            merged.merge(self._shared_solver.stats)
        return merged

    def _record(self, verdict: str) -> Optional[bool]:
        """Update counters for one answered query and map verdict to bool."""
        self.stats.queries += 1
        if verdict == CheckResult.UNSAT.value:
            return True
        if verdict == CheckResult.SAT.value:
            return False
        self.stats.timeouts += 1
        return None
