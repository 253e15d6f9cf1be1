"""Code corpora used by the evaluation experiments.

The paper evaluates STACK on real code bases (Linux, Postgres, Kerberos, the
whole Debian Wheezy archive).  Those trees are not available offline, so this
package provides the synthetic equivalents described in DESIGN.md:

* :mod:`repro.corpus.snippets` — the paper's verbatim examples (Figures 1, 2,
  10–15 and the six Figure 4 checks) plus a library of unstable- and
  stable-code templates covering every UB kind STACK implements,
* :mod:`repro.corpus.systems` — the 23 systems of Figure 9 with their
  reported bug mixes, and per-system synthetic code bases seeded accordingly,
* :mod:`repro.corpus.debian` — a scaled model of the Debian Wheezy archive
  for the prevalence experiments (Figures 17/18, §6.5),
* :mod:`repro.corpus.benchmark_suite` — the ten-test completeness benchmark
  of §6.6 (Regehr's contest winners plus the Wang et al. survey).
"""

from repro.corpus.snippets import (
    SNIPPETS,
    STABLE_SNIPPETS,
    Snippet,
    snippet_by_name,
    snippets_for_kind,
)
from repro.corpus.systems import SYSTEMS, SystemProfile, generate_system_corpus
from repro.corpus.debian import DebianArchiveModel
from repro.corpus.benchmark_suite import COMPLETENESS_TESTS, CompletenessTest

__all__ = [
    "COMPLETENESS_TESTS",
    "CompletenessTest",
    "DebianArchiveModel",
    "SNIPPETS",
    "STABLE_SNIPPETS",
    "SYSTEMS",
    "Snippet",
    "SystemProfile",
    "generate_system_corpus",
    "snippet_by_name",
    "snippets_for_kind",
]
