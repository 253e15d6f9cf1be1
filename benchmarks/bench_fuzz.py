"""Fuzzing-campaign benchmark: determinism, soundness, and throughput.

Three invariants of the generative fuzzing subsystem (docs/FUZZ.md), run
at acceptance scale:

* **Determinism per seed** — two campaigns with one seed produce
  byte-identical JSONL streams, and a parallel run reproduces the
  sequential one exactly.
* **Zero unexplained miscompiles / zero crashes** — the seeded
  differential runner may only observe UB-justified divergences, every
  generated program must compile and check without failure, and every
  verdict must match the generator's expectation.
* **Reproducers for every finding** — each flagged program carries a
  ddmin-minimized reproducer, and the minimized template still reproduces
  the verdict when re-checked from scratch.

``--bench-fast`` shrinks the campaign for the CI smoke job;
``--engine-workers`` sizes the engine pool for the throughput run.
"""

import json
from pathlib import Path

from repro.api import check_source
from repro.core.checker import CheckerConfig
from repro.experiments.fuzz import DEFAULT_BUDGET, FAST_BUDGET, \
    render, run_fuzz_experiment
from repro.fuzz import FuzzConfig, run_fuzz_campaign


def _campaign_config(seed, budget, workers=0, out=None):
    return FuzzConfig(seed=seed, budget=budget, workers=workers,
                      reduce=True, out=out)


def test_fuzz_campaign_is_deterministic_per_seed(tmp_path, fast_mode, once):
    budget = 10 if fast_mode else 16
    paths = [str(tmp_path / f"run{i}.jsonl") for i in range(3)]

    def both_runs():
        first = run_fuzz_campaign(_campaign_config(11, budget, out=paths[0]))
        second = run_fuzz_campaign(_campaign_config(11, budget, out=paths[1]))
        return first, second

    first, second = once(both_runs)
    blob = Path(paths[0]).read_bytes()
    assert blob == Path(paths[1]).read_bytes()
    assert first.stats.as_dict() == second.stats.as_dict()

    # A parallel run replays the sequential stream byte for byte: results
    # come back in submission order and the records carry no timing.
    run_fuzz_campaign(_campaign_config(11, budget, workers=2, out=paths[2]))
    assert blob == Path(paths[2]).read_bytes()

    # A different seed genuinely reruns the dice.
    other = str(tmp_path / "other.jsonl")
    run_fuzz_campaign(_campaign_config(12, budget, out=other))
    assert blob != Path(other).read_bytes()


def test_fuzz_campaign_acceptance_scale(tmp_path, fast_mode, engine_workers,
                                        once):
    """The headline campaign: >= 200 programs through the parallel engine."""
    budget = FAST_BUDGET if fast_mode else DEFAULT_BUDGET
    out = str(tmp_path / "campaign.jsonl")
    result = once(run_fuzz_experiment, budget=budget, seed=0,
                  workers=engine_workers, reduce=True, out=out)
    print()
    print(render(result))
    stats = result.stats

    # Zero crashes: every program compiled, verified, and checked.
    assert stats.programs == budget
    assert stats.failed_units == 0
    # Every verdict matches the generator's expectation — detection on the
    # unstable variants, precision on the stable-by-construction ones.
    assert stats.expectation_mismatches == 0
    assert stats.flagged_programs == stats.expected_unstable > 0
    # Zero unexplained miscompiles in the differential campaign.
    assert stats.diff_executions > 0
    assert stats.miscompiles == 0
    # Witness replay confirms diagnostics; none may be refuted outright.
    assert stats.witnesses_confirmed > 0
    assert stats.witnesses_unconfirmed == 0

    # Every unstable finding is accompanied by a minimized reproducer.
    flagged = [r for r in result.records if r["flagged"]]
    assert flagged and all(r["reduced"] is not None for r in flagged)
    for record in flagged:
        assert record["reduced"]["elements_after"] <= \
            record["reduced"]["elements_before"]

    # ... and every distinct MiniC reproducer still reproduces the verdict
    # when re-checked from scratch, outside the campaign.
    config = CheckerConfig(minimize_ub_sets=False)
    seen = set()
    for record in flagged:
        reduced = record["reduced"]
        if reduced["mode"] != "minic" or reduced["template"] in seen:
            continue
        seen.add(reduced["template"])
        report = check_source(reduced["template"].replace("{S}", "r0"),
                              config=config)
        kinds = {k.value for bug in report.bugs for k in bug.ub_kinds}
        assert kinds & set(reduced["kinds"])
    assert seen, "campaign produced no MiniC reproducers to re-check"

    # The stream on disk matches the in-memory records plus one summary.
    lines = Path(out).read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(result.records) + 1
    summary = json.loads(lines[-1])
    assert summary["type"] == "fuzz-run"
    assert summary["diff"]["miscompile"] == 0

    # Throughput: the campaign must stay corpus-scale practical.  The floor
    # is deliberately loose (CI machines vary); locally this runs at tens
    # of programs per second.
    assert stats.throughput > 0.5


def test_fuzz_scheduler_covers_every_scenario(fast_mode, once):
    budget = 36 if fast_mode else 72
    result = once(run_fuzz_campaign,
                  FuzzConfig(seed=5, budget=budget, reduce=False))
    by_scenario = result.stats.by_scenario
    # Coverage-guided scheduling must leave no scenario class unvisited.
    from repro.fuzz import ALL_SCENARIOS

    assert set(by_scenario) == set(ALL_SCENARIOS)
    assert all(row["programs"] > 0 for row in by_scenario.values())
