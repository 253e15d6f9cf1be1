"""Figure 16: checker performance on Kerberos, Postgres, and the Linux kernel.

The paper reports build time, analysis time, number of files, number of
solver queries, and query timeouts for three systems (705, 770, and 14,136
files).  The reproduction builds scaled synthetic corpora with the same
*relative* sizes, measures real build (frontend+lowering) and analysis
(checker) time, and reports the measured query/timeout counts next to the
paper's numbers.  A query "times out" here when it exhausts its propagation
budget, which stands in for the paper's 5 s Boolector timeout.  Absolute
times are expected to differ (pure-Python solver vs. Boolector on a 2013
Xeon); the shape — Linux ≫ Postgres ≫ Kerberos,
timeouts well under 1 % — is the reproduction target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import compile_source
from repro.core.checker import CheckerConfig
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.engine.engine import CheckEngine, EngineConfig
from repro.experiments.common import render_table

#: (paper files, paper build minutes, paper analysis minutes, paper queries,
#:  paper timeouts) per system.
PAPER_FIGURE16: Dict[str, Tuple[int, int, int, int, int]] = {
    "Kerberos": (705, 1, 2, 79_547, 2),
    "Postgres": (770, 1, 11, 229_624, 1_131),
    "Linux kernel": (14_136, 33, 62, 3_094_340, 1_212),
}


@dataclass
class SystemPerformance:
    system: str
    files: int
    build_time: float
    analysis_time: float
    queries: int
    timeouts: int
    cache_hits: int = 0

    @property
    def timeout_fraction(self) -> float:
        return self.timeouts / self.queries if self.queries else 0.0


@dataclass
class Figure16Result:
    measurements: List[SystemPerformance] = field(default_factory=list)
    scale: float = 1.0

    def render(self) -> str:
        headers = ["system", "files", "build (s)", "analysis (s)",
                   "# queries", "# cache hits", "# timeouts", "paper files",
                   "paper queries", "paper timeouts"]
        rows = []
        for m in self.measurements:
            paper = PAPER_FIGURE16.get(m.system, (0, 0, 0, 0, 0))
            rows.append([m.system, m.files, f"{m.build_time:.2f}",
                         f"{m.analysis_time:.2f}", m.queries, m.cache_hits,
                         m.timeouts, paper[0], paper[3], paper[4]])
        title = (f"Figure 16: checker performance (synthetic corpora scaled to "
                 f"{self.scale:.3f} of the paper's file counts)")
        return render_table(headers, rows, title=title)


def _corpus_sources(file_count: int, unstable_fraction: float = 0.25) -> List[str]:
    """Deterministic mix of unstable and stable translation units."""
    sources: List[str] = []
    unstable_every = max(1, int(round(1.0 / unstable_fraction))) if unstable_fraction else 0
    for index in range(file_count):
        if unstable_every and index % unstable_every == 0:
            snippet = SNIPPETS[index % len(SNIPPETS)]
        else:
            snippet = STABLE_SNIPPETS[index % len(STABLE_SNIPPETS)]
        sources.append(snippet.render(f"perf_{index}"))
    return sources


def run_figure16(scale: float = 0.02,
                 config: Optional[CheckerConfig] = None,
                 workers: int = 0) -> Figure16Result:
    """Measure build/analysis performance on scaled synthetic corpora.

    ``scale`` multiplies the paper's per-system file counts (the default
    0.02 keeps a full run to roughly a minute on a laptop; the benchmark
    harness uses a smaller scale still).  The analysis phase runs through
    :class:`~repro.engine.engine.CheckEngine` — pass ``workers > 1`` to fan
    the per-file modules out over a worker pool with a shared solver-query
    cache, the way the paper's archive runs parallelize over packages.
    """
    config = config if config is not None else CheckerConfig(minimize_ub_sets=False)
    result = Figure16Result(scale=scale)
    # One engine for all three systems, so the solver-query cache carries
    # verdicts across corpora the way a real archive run would.
    engine = CheckEngine(EngineConfig(workers=workers, checker=config))

    for system, (paper_files, _bmin, _amin, _queries, _timeouts) in PAPER_FIGURE16.items():
        file_count = max(3, int(round(paper_files * scale)))
        sources = _corpus_sources(file_count)

        build_started = time.monotonic()
        modules = [compile_source(source, filename=f"{system}_{i}.c")
                   for i, source in enumerate(sources)]
        build_time = time.monotonic() - build_started

        run = engine.check_modules(modules)

        result.measurements.append(SystemPerformance(
            system=system, files=file_count, build_time=build_time,
            analysis_time=run.stats.wall_clock, queries=run.stats.queries,
            timeouts=run.stats.timeouts, cache_hits=run.stats.cache_hits))
    return result
