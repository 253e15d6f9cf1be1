"""Figure 9 / §6.1: new bugs per system, broken down by undefined behavior."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.ubconditions import UBKind
from repro.corpus.systems import (
    FIGURE9_KINDS,
    FIGURE9_TOTAL_BUGS,
    SYSTEMS,
    SystemProfile,
    generate_system_corpus,
)
from repro.experiments.common import SnippetAnalyzer, render_table


@dataclass
class SystemFinding:
    """Checker results for one system's synthetic code base."""

    system: str
    seeded_bugs: int
    confirmed_bugs: int
    by_kind: Dict[UBKind, int] = field(default_factory=dict)
    false_positives_on_stable_files: int = 0


@dataclass
class Figure9Result:
    findings: List[SystemFinding] = field(default_factory=list)

    @property
    def total_confirmed(self) -> int:
        return sum(f.confirmed_bugs for f in self.findings)

    @property
    def total_seeded(self) -> int:
        return sum(f.seeded_bugs for f in self.findings)

    def kind_totals(self) -> Dict[UBKind, int]:
        totals: Dict[UBKind, int] = {kind: 0 for kind in FIGURE9_KINDS}
        for finding in self.findings:
            for kind, count in finding.by_kind.items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    @property
    def total_false_positives(self) -> int:
        return sum(f.false_positives_on_stable_files for f in self.findings)

    def render(self) -> str:
        headers = ["system", "# bugs"] + [k.short_name for k in FIGURE9_KINDS]
        rows = []
        for finding in self.findings:
            row = [finding.system, finding.confirmed_bugs]
            row.extend(finding.by_kind.get(kind, 0) or "" for kind in FIGURE9_KINDS)
            rows.append(row)
        totals = self.kind_totals()
        rows.append(["all", self.total_confirmed] +
                    [totals.get(kind, 0) for kind in FIGURE9_KINDS])
        table = render_table(headers, rows,
                             title="Figure 9: new bugs identified, by system and UB kind")
        paper = (f"paper: {FIGURE9_TOTAL_BUGS} bugs total; "
                 f"this run: {self.total_confirmed} confirmed from "
                 f"{self.total_seeded} seeded patterns; "
                 f"{self.total_false_positives} warnings on stable filler code")
        return table + "\n\n" + paper


def run_figure9(systems: Optional[Sequence[SystemProfile]] = None,
                analyzer: Optional[SnippetAnalyzer] = None) -> Figure9Result:
    """Check every system's synthetic code base and tabulate confirmed bugs.

    Analysis is memoised per snippet template (see
    :class:`~repro.experiments.common.SnippetAnalyzer`); instance counts come
    from the corpus seeding, so the table reflects what the checker finds for
    each seeded pattern instance.
    """
    systems = list(SYSTEMS if systems is None else systems)
    analyzer = analyzer if analyzer is not None else SnippetAnalyzer()
    result = Figure9Result()

    for profile in systems:
        finding = SystemFinding(system=profile.name, seeded_bugs=profile.total_bugs,
                                confirmed_bugs=0)
        corpus = generate_system_corpus(profile)
        for _filename, _source, snippet in corpus:
            if snippet is None:
                continue
            analysis = analyzer.analyze(snippet)
            if not analysis.flagged:
                continue
            finding.confirmed_bugs += 1
            # Attribute the confirmed bug to the seeded kind(s) so the table
            # has the same column structure as the paper.
            for kind in snippet.ub_kinds:
                finding.by_kind[kind] = finding.by_kind.get(kind, 0) + 1
                break
        result.findings.append(finding)

    # Stable-file false positives are evaluated once globally (same templates
    # everywhere); spread the count onto the first finding for reporting.
    from repro.corpus.snippets import STABLE_SNIPPETS
    false_positives = 0
    for stable in STABLE_SNIPPETS:
        if analyzer.analyze(stable).flagged:
            false_positives += 1
    if result.findings:
        result.findings[0].false_positives_on_stable_files = false_positives
    return result
