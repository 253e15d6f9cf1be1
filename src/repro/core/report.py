"""Bug reports and diagnostics (§4.5 of the paper).

A :class:`Diagnostic` describes one piece of unstable code: where it is,
which algorithm found it (elimination, boolean simplification, or algebra
simplification), what the optimizer would do to it, and the minimal set of
undefined-behavior conditions responsible.  A :class:`BugReport` aggregates
the diagnostics for a module together with the query statistics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.core.ubconditions import UBCondition, UBKind
from repro.ir.source import Origin, SourceLocation


class Algorithm(enum.Enum):
    """Which solver-based optimization identified the unstable code (§3.2)."""

    ELIMINATION = "elimination"
    SIMPLIFY_BOOLEAN = "simplification (boolean oracle)"
    SIMPLIFY_ALGEBRA = "simplification (algebra oracle)"


@dataclass
class MinimalUBSet:
    """The minimal set of UB conditions that makes a fragment unstable (Fig. 8)."""

    conditions: List[UBCondition] = field(default_factory=list)

    @property
    def kinds(self) -> List[UBKind]:
        return [c.kind for c in self.conditions]

    def __len__(self) -> int:
        return len(self.conditions)

    def __iter__(self):
        return iter(self.conditions)

    def describe(self) -> str:
        if not self.conditions:
            return "(no single UB condition isolated)"
        return "; ".join(c.describe() for c in self.conditions)


@dataclass
class Diagnostic:
    """One unstable-code warning."""

    function: str
    location: SourceLocation
    algorithm: Algorithm
    message: str
    fragment: str = ""                   # printed IR of the unstable fragment
    replacement: str = ""                # what the optimizer would fold it to
    ub_set: MinimalUBSet = field(default_factory=MinimalUBSet)
    origin: Optional[Origin] = None
    classification: Optional[str] = None  # filled by repro.core.classify
    #: Concrete replay verdict (a :class:`repro.exec.witness.WitnessReport`),
    #: attached by stage 5 when ``CheckerConfig.validate_witnesses`` is set.
    witness: Optional["WitnessReport"] = None
    #: Auto-repair verdict (a :class:`repro.repair.repair.RepairReport`),
    #: attached by stage 6 when ``CheckerConfig.repair`` is set.
    repair: Optional["RepairReport"] = None

    @property
    def ub_kinds(self) -> List[UBKind]:
        return self.ub_set.kinds

    def describe(self) -> str:
        lines = [f"{self.location}: unstable code in function '{self.function}'",
                 f"  {self.message}"]
        if self.replacement:
            lines.append(f"  the optimizer may replace it with: {self.replacement}")
        lines.append(f"  found by: {self.algorithm.value}")
        lines.append(f"  undefined behavior involved: {self.ub_set.describe()}")
        if self.classification:
            lines.append(f"  classification: {self.classification}")
        if self.witness is not None:
            lines.append(f"  {self.witness.describe()}")
        if self.repair is not None:
            lines.append(f"  {self.repair.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Diagnostic {self.function} {self.location} {self.algorithm.name}>"


def diagnostic_signature(diagnostic: Diagnostic) -> tuple:
    """Stable, comparable identity of one diagnostic.

    Used by tests and benchmarks to assert that two checker runs (e.g.
    sequential vs. parallel, incremental vs. scratch) report the same bugs.
    """
    return (diagnostic.function, str(diagnostic.location),
            diagnostic.algorithm.value, diagnostic.message,
            diagnostic.fragment, diagnostic.replacement,
            tuple(sorted(k.value for k in set(diagnostic.ub_kinds))),
            diagnostic.classification)


def report_signature(result) -> List[tuple]:
    """Sorted diagnostic signatures of anything exposing ``.bugs``.

    Accepts a :class:`BugReport` or an engine result alike.
    """
    return sorted(diagnostic_signature(d) for d in result.bugs)


@dataclass
class Counters:
    """The counters every function, unit and run record carries.

    Declared once: :class:`FunctionReport` and the engine's ``RunStats``
    extend this class, :meth:`BugReport.totals` and ``aggregate_results``
    sum it field by field, and the result sink writes it
    (``repro.engine.sink``, docs/ENGINE.md).  Python 3.9 has no
    ``kw_only`` dataclasses, so every field needs a default.
    """

    queries: int = 0
    cache_hits: int = 0                     # queries answered from the cache
    timeouts: int = 0
    # Solver-level counters (see repro.solver.solver.SolverStats / docs/SOLVER.md):
    contexts: int = 0                       # incremental query contexts opened
    sat_calls: int = 0                      # queries that reached the CDCL loop
    restarts: int = 0                       # CDCL restarts across those calls
    blasted_clauses: int = 0                # CNF clauses produced by bit-blasting
    solver_time: float = 0.0                # seconds spent inside the solver
    oracle_sat: int = 0                     # queries the oracle pre-pass decided SAT
    oracle_unsat: int = 0                   # queries constant folding decided UNSAT
    analysis_time: float = 0.0
    # Stage-5 witness validation counters (repro.exec.witness / docs/EXEC.md):
    witnesses_confirmed: int = 0            # replay trips the reported UB
    witnesses_unconfirmed: int = 0          # probable false positive
    witnesses_inconclusive: int = 0         # no model / out of fuel
    witness_time: float = 0.0               # seconds spent replaying
    # Stage-6 auto-repair counters (repro.repair / docs/REPAIR.md):
    repairs_attempted: int = 0              # diagnostics stage 6 considered
    repairs_succeeded: int = 0              # a candidate cleared all 3 gates
    repairs_rejected: int = 0               # every candidate failed a gate
    repairs_no_template: int = 0            # the library proposed nothing
    repair_gate_equivalence_rejects: int = 0
    repair_gate_recheck_rejects: int = 0
    repair_gate_replay_rejects: int = 0
    repair_time: float = 0.0                # seconds spent in stage 6

    @property
    def solver_queries(self) -> int:
        """Queries that actually reached the solver."""
        return self.queries - self.cache_hits

    @property
    def witnesses_validated(self) -> int:
        return (self.witnesses_confirmed + self.witnesses_unconfirmed
                + self.witnesses_inconclusive)

    def add(self, other: "Counters") -> None:
        """Add every counter of ``other`` into this one."""
        for name in COUNTER_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))


#: The counter fields, in declaration (and record) order.
COUNTER_NAMES = tuple(f.name for f in fields(Counters))

#: The counters a function takes from its solver's
#: :class:`~repro.solver.solver.SolverStats`, each under the same name.
SOLVER_COUNTERS = ("sat_calls", "restarts", "blasted_clauses", "solver_time",
                   "oracle_sat", "oracle_unsat")


@dataclass
class ClusterStats:
    """The counters of one clustered run, the run record's ``cluster`` block.

    :func:`repro.cluster.propagate.propagate_clusters` counts into it, and
    the engine's ``RunStats`` extends it (docs/CLUSTER.md).
    """

    cluster_functions: int = 0              # functions that entered clustering
    cluster_clusters: int = 0               # distinct canonical forms
    cluster_propagated: int = 0             # verdicts copied from a representative
    cluster_confirmed: int = 0              # members that passed the solver gate
    cluster_fallbacks: int = 0              # members re-checked in full instead
    cluster_time: float = 0.0               # seconds fingerprinting + confirming


@dataclass
class FunctionReport(Counters):
    """Diagnostics and counters for one analyzed function."""

    function: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    suppressed_compiler_origin: int = 0     # warnings dropped per §4.2/§4.5
    cluster_propagated: bool = False        # verdict copied from a cluster
                                            # representative (docs/CLUSTER.md)


@dataclass
class BugReport:
    """The result of checking a module (or a whole build).

    Every counter of :class:`Counters` reads as its total over the
    functions: ``report.queries`` is ``report.totals().queries``.
    """

    module: str = ""
    functions: List[FunctionReport] = field(default_factory=list)

    @property
    def bugs(self) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for report in self.functions:
            out.extend(report.diagnostics)
        return out

    def totals(self) -> Counters:
        """Every counter summed over the functions.

        ``sum`` rather than :meth:`Counters.add`: a report without
        functions (a unit that failed to compile) totals to int ``0``,
        which its unit record has always shown as ``0``, not ``0.0``.
        """
        return Counters(**{name: sum(getattr(report, name)
                                     for report in self.functions)
                           for name in COUNTER_NAMES})

    def __getattr__(self, name: str):
        if name in COUNTER_NAMES or name in ("solver_queries",
                                             "witnesses_validated"):
            return getattr(self.totals(), name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def by_algorithm(self) -> Dict[Algorithm, int]:
        counts = {algorithm: 0 for algorithm in Algorithm}
        for diagnostic in self.bugs:
            counts[diagnostic.algorithm] += 1
        return counts

    def by_ub_kind(self) -> Dict[UBKind, int]:
        counts: Dict[UBKind, int] = {}
        for diagnostic in self.bugs:
            for kind in set(diagnostic.ub_kinds):
                counts[kind] = counts.get(kind, 0) + 1
        return counts

    def describe(self) -> str:
        totals = self.totals()
        lines = [f"== Stack report for {self.module or '<module>'} =="]
        if not self.bugs:
            lines.append("no unstable code found")
        for diagnostic in self.bugs:
            lines.append(diagnostic.describe())
            lines.append("")
        lines.append(f"{len(self.bugs)} warning(s), "
                     f"{totals.solver_queries} queries solved, "
                     f"{totals.cache_hits} cache hits, "
                     f"{totals.timeouts} timeouts")
        lines.append(f"solver work: {totals.sat_calls} CDCL calls over "
                     f"{totals.contexts} incremental contexts, "
                     f"{totals.restarts} restarts, "
                     f"{totals.blasted_clauses} bit-blasted clauses, "
                     f"{totals.solver_time:.2f}s in the solver")
        if totals.witnesses_validated:
            lines.append(f"witness validation: "
                         f"{totals.witnesses_confirmed} confirmed, "
                         f"{totals.witnesses_unconfirmed} unconfirmed, "
                         f"{totals.witnesses_inconclusive} inconclusive "
                         f"({totals.witness_time:.2f}s replaying)")
        if totals.repairs_attempted:
            lines.append(f"auto-repair: {totals.repairs_succeeded} of "
                         f"{totals.repairs_attempted} diagnostics repaired, "
                         f"{totals.repairs_rejected} rejected by the verifier, "
                         f"{totals.repairs_no_template} without a template "
                         f"({totals.repair_time:.2f}s in stage 6)")
        return "\n".join(lines)

    def merge(self, other: "BugReport") -> None:
        self.functions.extend(other.functions)
