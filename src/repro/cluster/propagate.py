"""Solve one representative per cluster, confirm members, copy verdicts.

Clustering is a corpus-level run mode of the engine
(``EngineConfig(cluster=True)``): :meth:`repro.engine.engine.CheckEngine`
compiles the corpus, clusters its functions, checks the representatives
through its ordinary fan-out and hands them to :func:`propagate_clusters`.

Propagation is gated twice.  Membership in a cluster already means *exact*
canonical-form equality (structural isomorphism up to renaming and
commutative operand order), and on top of that every member must pass a
per-member solver equivalence check before it may receive the
representative's verdict: the member is cloned, renamed onto the
representative through the fingerprint's positional isomorphism, both
functions are encoded into one shared :class:`TermManager`, and
``ret_rep ≠ ret_member`` must be UNSAT.  Because the aligned member
hash-conses onto the representative's terms, the disequality collapses at
construction time for true clones, so confirmation costs one encoding pass
rather than a full blast-and-solve cycle.  A member that does not collapse
goes through the repair verifier's equivalence query
(:func:`repro.repair.verify.equivalence_query`, the query behind
:func:`~repro.repair.verify.prove_equivalence`): arguments equated, the
external world correlated by result name, the representative's
reach-guarded well-definedness assumed.

A member that cannot be confirmed — an UNKNOWN verdict, a void return, or a
diagnostic that cannot be remapped onto the member's own instructions — is
*never* propagated to; it falls back to an ordinary full check.  The
``fallbacks`` counter makes that visible, and the benchmark asserts the
propagated/confirmed counters stay equal (zero unconfirmed propagations).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import ClusterMember, FunctionCluster
from repro.core.checker import CheckerConfig, StackChecker
from repro.core.encode import FunctionEncoder
from repro.core.report import ClusterStats, Diagnostic, FunctionReport
from repro.exec.clone import clone_function
from repro.ir.function import Function
from repro.ir.printer import print_instruction
from repro.obs.trace import counter, span
from repro.repair.verify import (
    equivalence_query,
    return_term,
    well_defined_original,
)
from repro.solver.solver import CheckResult, Solver
from repro.solver.terms import TermManager


def aligned_clone(member: ClusterMember, representative: ClusterMember) -> Function:
    """Clone ``member`` renamed onto ``representative`` via the isomorphism.

    Equal canonical forms correspond position-by-position, so copying the
    representative's function/argument/block/instruction names onto the
    member's clone makes the two encodings share variable names — unchanged
    subexpressions then hash-cons to the *same* terms, and the name-keyed
    external-world correlation of the equivalence gate lines up.
    """
    from repro.cluster.fingerprint import fingerprint_function

    clone = clone_function(member.function)
    clone.name = representative.function.name
    clone_print = fingerprint_function(clone)     # same structure, same order
    for argument, rep_argument in zip(clone.arguments,
                                      representative.function.arguments):
        argument.name = rep_argument.name
    for block, rep_block in zip(clone_print.blocks,
                                representative.fingerprint.blocks):
        block.name = rep_block.name
    for inst, rep_inst in zip(clone_print.instructions,
                              representative.fingerprint.instructions):
        inst.name = rep_inst.name
    return clone


class ClusterConfirmer:
    """Per-cluster dual-encoder equivalence gate (repair-verifier machinery).

    The representative is encoded once; every member re-uses that encoding
    through the shared manager, so confirming N members costs N single
    encodings plus N (almost always trivially UNSAT) solver calls.
    """

    def __init__(self, representative: ClusterMember,
                 max_propagations: Optional[int]) -> None:
        self.representative = representative
        self.max_propagations = max_propagations
        self.manager = TermManager()
        self.encoder = FunctionEncoder(representative.function, self.manager)
        self.return_term = return_term(self.encoder)
        self.well_defined = well_defined_original(self.encoder)
        self._members = 0

    def confirm(self, member: ClusterMember) -> bool:
        """True iff ``member`` is solver-proven equivalent to the representative."""
        if self.return_term is None:
            return False                  # nothing to compare (void function)
        aligned = aligned_clone(member, self.representative)

        # Fast path: encode the aligned member in the representative's own
        # serial range.  Fresh variables are named ``{function}.{kind}.{n}``,
        # so a true clone draws exactly the representative's names, its
        # terms hash-cons onto the representative's, and the return
        # disequality folds to a constant contradiction — the solver call
        # degenerates to refuting ``false``.  The aliasing this induces is
        # precisely the name-keyed external-world correlation the slow path
        # asserts, applied at hash-cons time.
        encoder = FunctionEncoder(aligned, self.manager)
        member_return = return_term(encoder)
        if member_return is self.return_term:
            solver = Solver(self.manager,
                            max_propagations=self.max_propagations)
            solver.add(self.manager.distinct(self.return_term, member_return))
            return solver.check() is CheckResult.UNSAT

        # Anything that did not collapse gets the full repair-gate proof
        # under a disjoint serial range (serial aliasing is only justified
        # when the encodings are identical, so re-draw the fresh variables).
        self._members += 1
        encoder = FunctionEncoder(aligned, self.manager,
                                  serial_start=self._members * 1_000_000)
        member_return = return_term(encoder)
        if member_return is None or \
                member_return.width != self.return_term.width:
            return False
        return equivalence_query(
            self.encoder, encoder, self.return_term, member_return,
            self.well_defined, self.max_propagations) is CheckResult.UNSAT


def _map_diagnostic(diagnostic: Diagnostic, representative: ClusterMember,
                    member: ClusterMember) -> Optional[Diagnostic]:
    """Re-anchor a representative's diagnostic onto the member's own IR."""
    for position, inst in enumerate(representative.fingerprint.instructions):
        if inst.location == diagnostic.location and \
                print_instruction(inst) == diagnostic.fragment:
            target = member.fingerprint.instructions[position]
            return dataclasses.replace(
                diagnostic, function=member.function.name,
                location=target.location, fragment=print_instruction(target))
    return None


def _propagated_report(rep_report: FunctionReport,
                       representative: ClusterMember, member: ClusterMember,
                       elapsed: float) -> Optional[FunctionReport]:
    """The member's report, copied from the representative's; None if any
    diagnostic cannot be faithfully remapped (the caller then falls back)."""
    diagnostics: List[Diagnostic] = []
    for diagnostic in rep_report.diagnostics:
        mapped = _map_diagnostic(diagnostic, representative, member)
        if mapped is None:
            return None
        diagnostics.append(mapped)
    return FunctionReport(
        function=member.function.name, diagnostics=diagnostics,
        analysis_time=elapsed,
        suppressed_compiler_origin=rep_report.suppressed_compiler_origin,
        cluster_propagated=True)


def propagate_clusters(
    clusters: Sequence[FunctionCluster],
    config: CheckerConfig,
    cache=None,
    rep_results: Optional[Dict[int, FunctionReport]] = None,
) -> Tuple[Dict[Tuple[int, int], FunctionReport],
           ClusterStats, List[Dict[str, object]]]:
    """Solve representatives, confirm members, and copy verdicts.

    ``rep_results`` maps cluster index to an already-computed representative
    report (the engine supplies these from its worker pool); missing entries
    are checked here, sequentially.  Returns per-function reports keyed by
    ``(unit, index)``, the run's :class:`ClusterStats`, and one JSON-ready
    record per cluster for the result sink.
    """
    reports: Dict[Tuple[int, int], FunctionReport] = {}
    checker = StackChecker(config, query_cache=cache)
    stats = ClusterStats(cluster_clusters=len(clusters))
    records: List[Dict[str, object]] = []

    for cluster_index, cluster in enumerate(clusters):
        stats.cluster_functions += len(cluster.members)
        representative = cluster.representative
        rep_report = (rep_results or {}).get(cluster_index)
        if rep_report is None:
            rep_report = checker.check_function(representative.function)
        reports[representative.key] = rep_report

        propagated = fallbacks = 0
        confirmer: Optional[ClusterConfirmer] = None
        for member in cluster.members[1:]:
            started = time.monotonic()
            if confirmer is None:
                confirmer = ClusterConfirmer(representative,
                                             config.max_propagations)
            report: Optional[FunctionReport] = None
            with span("cluster.confirm", member=member.label) as confirm_span:
                confirmed = confirmer.confirm(member)
                confirm_span.set_arg("confirmed", confirmed)
            if confirmed:
                stats.cluster_confirmed += 1
                counter("cluster.confirmations")
                report = _propagated_report(rep_report, representative,
                                            member,
                                            time.monotonic() - started)
            stats.cluster_time += time.monotonic() - started
            if report is not None:
                stats.cluster_propagated += 1
                propagated += 1
            else:
                fallbacks += 1
                stats.cluster_fallbacks += 1
                report = checker.check_function(member.function)
            reports[member.key] = report

        records.append({
            "type": "cluster",
            "index": cluster_index,
            "fingerprint": cluster.digest[:16],
            "size": len(cluster.members),
            "representative": representative.label,
            "members": [member.label for member in cluster.members],
            "diagnostics": len(rep_report.diagnostics),
            "propagated": propagated,
            "fallbacks": fallbacks,
        })
    return reports, stats, records
