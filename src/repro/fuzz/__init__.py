"""Generative fuzzing for the checker pipeline.

The subsystem has three parts (docs/FUZZ.md):

* :mod:`repro.fuzz.generator` — seeded generation of MiniC translation
  units and raw IR functions across scenario classes keyed to the paper's
  UB taxonomy,
* :mod:`repro.fuzz.campaign` — the orchestrator: fans generated programs
  through the parallel :class:`~repro.engine.engine.CheckEngine` (with
  stage-5 witness replay and the seeded differential optimizer runner),
  schedules generation by observed verdict coverage, and streams
  deterministic JSONL,
* :mod:`repro.fuzz.reduce` — ddmin reduction of every unstable finding to
  a minimal reproducer that still reproduces the verdict.

Entry points: :func:`run_fuzz_campaign` from Python, ``python -m repro
fuzz`` from the shell, ``repro.experiments.fuzz`` for the campaign summary
table, and ``benchmarks/bench_fuzz.py`` for the invariants (determinism
per seed, zero unexplained miscompiles, throughput).
"""

from repro.fuzz.campaign import (
    FuzzCampaign,
    FuzzConfig,
    FuzzResult,
    FuzzStats,
    run_fuzz_campaign,
)
from repro.fuzz.generator import (
    ALL_SCENARIOS,
    GeneratedProgram,
    ProgramGenerator,
    build_ir_module,
)
from repro.fuzz.reduce import (
    ReducedCase,
    ddmin,
    reduce_module,
    reduce_source,
)

__all__ = [
    "ALL_SCENARIOS",
    "FuzzCampaign",
    "FuzzConfig",
    "FuzzResult",
    "FuzzStats",
    "GeneratedProgram",
    "ProgramGenerator",
    "ReducedCase",
    "build_ir_module",
    "ddmin",
    "reduce_module",
    "reduce_source",
    "run_fuzz_campaign",
]
