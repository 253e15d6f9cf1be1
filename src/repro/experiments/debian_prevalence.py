"""Figures 17 and 18 and §6.5: prevalence of unstable code across an archive.

The experiment analyzes a deterministic sample of synthetic Debian-shaped
packages with the real checker, then extrapolates the per-package rates to
the 8,575 C/C++ packages of Debian Wheezy.  Three numbers are compared with
the paper:

* the number of packages with at least one unstable-code report (§6.5 says
  3,471 of 8,575),
* reports per algorithm (Figure 17),
* reports per UB condition kind (Figure 18), plus the single- vs. multi-UB
  report split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.report import Algorithm
from repro.core.ubconditions import UBKind
from repro.corpus.debian import (
    DebianArchiveModel,
    PAPER_C_PACKAGES,
    PAPER_PACKAGES_WITH_REPORTS,
    PAPER_REPORTS_BY_ALGORITHM,
    PAPER_REPORTS_BY_KIND,
)
from repro.experiments.common import SnippetAnalyzer, render_table


@dataclass
class PrevalenceResult:
    sample_size: int
    packages_with_reports: int = 0
    reports_by_algorithm: Dict[Algorithm, int] = field(default_factory=dict)
    packages_by_algorithm: Dict[Algorithm, int] = field(default_factory=dict)
    reports_by_kind: Dict[UBKind, int] = field(default_factory=dict)
    single_ub_reports: int = 0
    multi_ub_reports: int = 0

    # -- extrapolation ------------------------------------------------------------

    def extrapolated_packages_with_reports(self) -> int:
        return int(round(DebianArchiveModel.scale_to_archive(
            self.packages_with_reports, self.sample_size)))

    def extrapolated_reports_by_algorithm(self) -> Dict[Algorithm, int]:
        return {
            algorithm: int(round(DebianArchiveModel.scale_to_archive(count, self.sample_size)))
            for algorithm, count in self.reports_by_algorithm.items()
        }

    def extrapolated_reports_by_kind(self) -> Dict[UBKind, int]:
        return {
            kind: int(round(DebianArchiveModel.scale_to_archive(count, self.sample_size)))
            for kind, count in self.reports_by_kind.items()
        }

    # -- rendering -----------------------------------------------------------------

    def render_figure17(self) -> str:
        headers = ["algorithm", "# reports (sample)", "# reports (extrapolated)",
                   "# reports (paper)"]
        paper_by_name = PAPER_REPORTS_BY_ALGORITHM
        extrapolated = self.extrapolated_reports_by_algorithm()
        rows = []
        for algorithm in Algorithm:
            rows.append([
                algorithm.value,
                self.reports_by_algorithm.get(algorithm, 0),
                extrapolated.get(algorithm, 0),
                paper_by_name.get(algorithm.value, 0),
            ])
        prevalence = (
            f"packages with >=1 report: {self.packages_with_reports}/{self.sample_size} "
            f"sampled -> {self.extrapolated_packages_with_reports()} of "
            f"{PAPER_C_PACKAGES} extrapolated (paper: {PAPER_PACKAGES_WITH_REPORTS})")
        return render_table(headers, rows,
                            title="Figure 17: reports per algorithm") + "\n\n" + prevalence

    def render_figure18(self) -> str:
        headers = ["UB condition", "# reports (sample)", "# reports (extrapolated)",
                   "# reports (paper)"]
        extrapolated = self.extrapolated_reports_by_kind()
        rows = []
        for kind, paper_count in PAPER_REPORTS_BY_KIND.items():
            rows.append([kind.value, self.reports_by_kind.get(kind, 0),
                         extrapolated.get(kind, 0), paper_count])
        split = (f"reports with a single UB condition: {self.single_ub_reports}; "
                 f"with multiple: {self.multi_ub_reports} "
                 f"(paper: 69,301 vs 2,579)")
        return render_table(headers, rows,
                            title="Figure 18: reports per UB condition") + "\n\n" + split

    def render(self) -> str:
        return self.render_figure17() + "\n\n" + self.render_figure18()


def run_prevalence(sample_size: int = 60, seed: int = 2013,
                   analyzer: Optional[SnippetAnalyzer] = None,
                   workers: int = 0) -> PrevalenceResult:
    """Analyze a sample of synthetic packages and tabulate report statistics.

    With ``workers > 1`` the distinct snippet templates seeded across the
    sampled packages are first analyzed through the parallel
    :class:`~repro.engine.engine.CheckEngine` (sharing one solver-query
    cache), and the per-package tabulation then runs over memoised results.
    """
    model = DebianArchiveModel(seed=seed)
    if analyzer is None:
        from repro.engine.cache import SolverQueryCache

        analyzer = SnippetAnalyzer(query_cache=SolverQueryCache())
    result = PrevalenceResult(sample_size=sample_size)

    packages = model.sample_packages(sample_size)
    if workers > 1:
        distinct = {snippet.name: snippet for package in packages
                    for snippet in package.seeded_snippets}
        analyzer.prewarm(distinct.values(), workers=workers)

    for package in packages:
        package_algorithms = set()
        package_had_report = False
        for _filename, _source, snippet in package.files:
            if snippet is None:
                continue
            analysis = analyzer.analyze(snippet)
            if not analysis.flagged:
                continue
            package_had_report = True
            for algorithm in analysis.algorithms:
                result.reports_by_algorithm[algorithm] = \
                    result.reports_by_algorithm.get(algorithm, 0) + 1
                package_algorithms.add(algorithm)
            for kind in analysis.kinds:
                result.reports_by_kind[kind] = result.reports_by_kind.get(kind, 0) + 1
            for conditions in analysis.ub_conditions_per_bug:
                if conditions > 1:
                    result.multi_ub_reports += 1
                else:
                    result.single_ub_reports += 1
        if package_had_report:
            result.packages_with_reports += 1
        for algorithm in package_algorithms:
            result.packages_by_algorithm[algorithm] = \
                result.packages_by_algorithm.get(algorithm, 0) + 1
    return result
