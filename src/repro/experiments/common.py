"""Shared experiment infrastructure: memoised analysis and table rendering."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api import check_source
from repro.core.checker import CheckerConfig
from repro.core.report import Algorithm, BugReport
from repro.core.ubconditions import UBKind
from repro.corpus.snippets import Snippet


@dataclass
class SnippetAnalysis:
    """Checker output summarised for one snippet template."""

    snippet_name: str
    bug_count: int
    kinds: Tuple[UBKind, ...]
    algorithms: Tuple[Algorithm, ...]
    queries: int
    timeouts: int
    analysis_time: float
    ub_conditions_per_bug: Tuple[int, ...] = ()

    @property
    def flagged(self) -> bool:
        return self.bug_count > 0


class SnippetAnalyzer:
    """Runs the checker on snippet templates, memoising by template name.

    The synthetic corpora instantiate the same template many times with only
    identifier suffixes changing, which cannot affect the analysis outcome.
    Analyzing each template once and reusing the summary keeps the archive-
    and system-scale experiments tractable on a laptop; the per-instance
    counts still come from the corpus seeding.

    A shared :class:`~repro.engine.cache.SolverQueryCache` can be attached so
    that even *distinct* templates reuse each other's solver verdicts, and
    :meth:`prewarm` routes a batch of templates through the parallel
    :class:`~repro.engine.engine.CheckEngine` before the sequential
    tabulation loops run.
    """

    def __init__(self, config: Optional[CheckerConfig] = None,
                 query_cache: Optional["SolverQueryCache"] = None) -> None:
        self.config = config if config is not None else CheckerConfig()
        self.query_cache = query_cache
        self._cache: Dict[str, SnippetAnalysis] = {}

    def analyze(self, snippet: Snippet) -> SnippetAnalysis:
        cached = self._cache.get(snippet.name)
        if cached is not None:
            return cached
        report = check_source(snippet.render("t"), filename=f"{snippet.name}.c",
                              config=self.config, cache=self.query_cache)
        analysis = self._summarise(snippet.name, report)
        self._cache[snippet.name] = analysis
        return analysis

    def prewarm(self, snippets: Iterable[Snippet], workers: int = 0) -> int:
        """Analyze many templates through the engine in one fan-out.

        Summaries land in the memo cache and the workers' solver verdicts are
        absorbed into ``query_cache``, so subsequent sequential ``analyze``
        calls are cache replays.  Returns the number of templates analyzed.
        """
        from repro.engine.engine import CheckEngine, EngineConfig

        pending = [s for s in snippets if s.name not in self._cache]
        if not pending:
            return 0
        engine = CheckEngine(EngineConfig(workers=workers, checker=self.config))
        if self.query_cache is not None and engine.cache is not None:
            # Verdicts the analyzer already holds seed the fan-out warm.
            engine.cache.seed(self.query_cache.snapshot())
        result = engine.check_corpus(
            (snippet.name, snippet.render("t")) for snippet in pending)
        for snippet, unit_result in zip(pending, result.results):
            if not unit_result.ok:
                continue
            self._cache[snippet.name] = self._summarise(snippet.name,
                                                        unit_result.report)
        if self.query_cache is not None and engine.cache is not None:
            self.query_cache.absorb(engine.cache.snapshot())
        return len(pending)

    @staticmethod
    def _summarise(name: str, report: BugReport) -> SnippetAnalysis:
        kinds: List[UBKind] = []
        algorithms: List[Algorithm] = []
        per_bug: List[int] = []
        for bug in report.bugs:
            kinds.extend(set(bug.ub_kinds))
            algorithms.append(bug.algorithm)
            per_bug.append(max(1, len(bug.ub_set)))
        return SnippetAnalysis(
            snippet_name=name,
            bug_count=len(report.bugs),
            kinds=tuple(kinds),
            algorithms=tuple(algorithms),
            queries=report.queries,
            timeouts=report.timeouts,
            analysis_time=report.analysis_time,
            ub_conditions_per_bug=tuple(per_bug),
        )


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an ASCII table in the style of the paper's figures."""
    columns = len(headers)
    widths = [len(str(h)) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    for row in text_rows:
        for index in range(columns):
            if index < len(row):
                widths[index] = max(widths[index], len(row[index]))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        padded = [row[i].ljust(widths[i]) if i < len(row) else "".ljust(widths[i])
                  for i in range(columns)]
        lines.append("  ".join(padded))
    return "\n".join(lines)
