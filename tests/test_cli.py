"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main

UNSTABLE = """
int write_check(char *buf, char *buf_end, unsigned int len) {
    if (buf + len >= buf_end) return -1;
    if (buf + len < buf) return -1;
    return 0;
}
"""

STABLE = """
int safe_div(int a, int b) {
    if (b == 0) return 0;
    return a / b;
}
"""


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return str(path)


def test_reports_unstable_code_and_exits_1(tmp_path, capsys):
    code = main([write(tmp_path, "unstable.c", UNSTABLE)])
    out = capsys.readouterr().out
    assert code == 1
    assert "unstable code" in out
    assert "warning(s)" in out


def test_stable_code_exits_0(tmp_path, capsys):
    code = main([write(tmp_path, "stable.c", STABLE)])
    out = capsys.readouterr().out
    assert code == 0
    assert "no unstable code found" in out


def test_json_output_matches_sink_format(tmp_path, capsys):
    path = write(tmp_path, "unstable.c", UNSTABLE)
    code = main([path, "--json"])
    record = json.loads(capsys.readouterr().out)
    assert code == 1
    assert record["type"] == "unit"
    assert record["unit"] == path
    assert record["queries"] > 0
    assert len(record["diagnostics"]) >= 2
    assert record["diagnostics"][0]["witness"] is None


def test_validate_attaches_witnesses(tmp_path, capsys):
    code = main([write(tmp_path, "unstable.c", UNSTABLE), "--json",
                 "--validate"])
    record = json.loads(capsys.readouterr().out)
    assert code == 1
    assert record["witnesses_confirmed"] == len(record["diagnostics"])
    for diagnostic in record["diagnostics"]:
        assert diagnostic["witness"]["verdict"] == "confirmed"


def test_validate_human_readable(tmp_path, capsys):
    code = main([write(tmp_path, "unstable.c", UNSTABLE), "--validate"])
    out = capsys.readouterr().out
    assert code == 1
    assert "witness confirmed" in out
    assert "witness validation:" in out


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(STABLE))
    assert main(["-"]) == 0
    assert "no unstable code" in capsys.readouterr().out


def test_missing_file_exits_2(tmp_path, capsys):
    code = main([str(tmp_path / "missing.c")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_uncompilable_source_exits_2(tmp_path, capsys):
    code = main([write(tmp_path, "broken.c", "int f( {")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_show_config_prints_checker_config(tmp_path, capsys):
    main([write(tmp_path, "stable.c", STABLE), "--show-config",
          "--no-incremental", "--max-propagations", "2500"])
    out = capsys.readouterr().out
    assert "CheckerConfig:" in out
    assert "incremental = False" in out
    assert "max_propagations = 2500" in out


def test_parser_flags_exist():
    parser = build_parser()
    args = parser.parse_args(["file.c", "--json", "--validate",
                              "--max-propagations", "100"])
    assert args.json and args.validate and args.max_propagations == 100
    args = parser.parse_args(["file.c", "--repair", "--patch-out", "p.diff",
                              "--seed", "3", "--diff"])
    assert args.repair and args.patch_out == "p.diff"
    assert args.seed == 3 and args.diff


REORDERABLE = """
int average(int total, int count) {
    int mean = total / count;
    if (count == 0) return 0;
    return mean;
}
"""


def test_repair_writes_patches(tmp_path, capsys):
    out = tmp_path / "patches.diff"
    code = main([write(tmp_path, "reorder.c", REORDERABLE), "--repair",
                 "--patch-out", str(out)])
    assert code == 1
    assert "auto-repair:" in capsys.readouterr().out
    text = out.read_text(encoding="utf-8")
    assert "--- a/average.ll" in text
    assert "+++ b/average.ll" in text
    assert "reorder-guard" in text


def test_repair_json_record(tmp_path, capsys):
    code = main([write(tmp_path, "reorder.c", REORDERABLE), "--repair",
                 "--json"])
    record = json.loads(capsys.readouterr().out)
    assert code == 1
    assert record["repairs_attempted"] == record["repairs_succeeded"] > 0
    for diagnostic in record["diagnostics"]:
        assert diagnostic["repair"]["status"] == "repaired"


def test_patch_out_stdout_and_no_patches(tmp_path, capsys):
    code = main([write(tmp_path, "stable.c", STABLE), "--repair",
                 "--patch-out", "-"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# no patches emitted" in out


def test_seed_flag_reaches_config(tmp_path, capsys):
    main([write(tmp_path, "stable.c", STABLE), "--seed", "42",
          "--show-config"])
    out = capsys.readouterr().out
    assert "witness_seed = 42" in out


def test_diff_runs_the_differential_campaign(tmp_path, capsys):
    code = main([write(tmp_path, "stable.c", STABLE), "--diff", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Differential optimizer testing (seed 1" in out


def test_diff_with_json_keeps_stdout_parseable(tmp_path, capsys):
    main([write(tmp_path, "stable.c", STABLE), "--diff", "--json"])
    captured = capsys.readouterr()
    record = json.loads(captured.out)       # table must not corrupt stdout
    assert record["type"] == "unit"
    assert "Differential optimizer testing" in captured.err


# -- the fuzz subcommand ------------------------------------------------------------


def test_fuzz_findings_exit_1(tmp_path, capsys):
    out = tmp_path / "campaign.jsonl"
    code = main(["fuzz", "--budget", "6", "--seed", "1", "--reduce",
                 "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 1                       # seed 1's first programs do flag
    assert "fuzz campaign: seed 1, 6 programs" in printed
    assert "reduced:" in printed
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 7                 # 6 programs + 1 summary
    summary = json.loads(lines[-1])
    assert summary["type"] == "fuzz-run"
    assert summary["diff"]["miscompile"] == 0


def test_fuzz_clean_campaign_exits_0(capsys):
    # Seed 11's first two programs are stable-by-construction variants, so
    # the campaign reports nothing — the no-findings exit path.
    code = main(["fuzz", "--budget", "2", "--seed", "11", "--no-diff",
                 "--no-validate"])
    printed = capsys.readouterr().out
    assert code == 0
    assert "flagged 0 programs" in printed


def test_fuzz_anomalies_exit_1_even_without_diagnostics(monkeypatch, capsys):
    # A miscompile (or crashed unit / expectation mismatch) must flip the
    # exit code even when no checker diagnostic was reported.
    from repro.fuzz import FuzzResult, FuzzStats

    def fake_campaign(config):
        return FuzzResult(stats=FuzzStats(seed=config.seed, programs=2,
                                          miscompiles=1))

    monkeypatch.setattr("repro.fuzz.run_fuzz_campaign", fake_campaign)
    code = main(["fuzz", "--budget", "2", "--seed", "11"])
    capsys.readouterr()
    assert code == 1


def test_fuzz_invalid_budget_exits_2(capsys):
    code = main(["fuzz", "--budget", "0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_fuzz_unwritable_out_exits_2(tmp_path, capsys):
    # Pointing --out at a directory fails the stream open with an OSError.
    code = main(["fuzz", "--budget", "2", "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_fuzz_parser_flags_exist():
    from repro.__main__ import build_fuzz_parser

    args = build_fuzz_parser().parse_args(
        ["--seed", "7", "--budget", "42", "--reduce", "--out", "x.jsonl",
         "--workers", "2", "--no-diff", "--no-validate"])
    assert args.seed == 7 and args.budget == 42 and args.reduce
    assert args.out == "x.jsonl" and args.workers == 2
    assert args.no_diff and args.no_validate


def test_fuzz_deterministic_stream(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert main(["fuzz", "--budget", "5", "--seed", "3",
                 "--out", str(first)]) == \
        main(["fuzz", "--budget", "5", "--seed", "3", "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# Observability flags (--version, --trace, --profile)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [["--version"], ["fuzz", "--version"],
                                  ["cluster", "--version"]],
                         ids=["check", "fuzz", "cluster"])
def test_version_flag_on_every_subcommand(argv, capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    assert f"repro {__version__}" in capsys.readouterr().out


def test_trace_writes_loadable_chrome_trace(tmp_path, capsys):
    from repro.obs.chrometrace import validate_chrome_trace

    trace = tmp_path / "trace.json"
    code = main([write(tmp_path, "unstable.c", UNSTABLE),
                 "--trace", str(trace), "--profile"])
    captured = capsys.readouterr()
    assert code == 1
    document = json.loads(trace.read_text(encoding="utf-8"))
    validate_chrome_trace(document)
    names = [event["name"] for event in document["traceEvents"]]
    for stage in ("stage1.parse", "stage2.encode", "stage4.report",
                  "solver.query"):
        assert stage in names, stage
    # --profile prints the text profile to stderr, report stays on stdout.
    assert "self" in captured.err or "solver" in captured.err
    assert "unstable code" in captured.out


def test_cluster_trace_writes_loadable_chrome_trace(tmp_path, capsys):
    from repro.obs.chrometrace import validate_chrome_trace

    trace = tmp_path / "trace.json"
    main(["cluster", "--synthetic", "6", "--trace", str(trace)])
    capsys.readouterr()
    document = json.loads(trace.read_text(encoding="utf-8"))
    validate_chrome_trace(document)
    assert any(event["name"].startswith("unit:")
               for event in document["traceEvents"])


# ---------------------------------------------------------------------------
# The check alias, --stdin, and interrupt handling (exit 130)
# ---------------------------------------------------------------------------


def test_check_alias_matches_default_mode(tmp_path, capsys):
    from repro.engine.sink import verdict_view

    path = write(tmp_path, "unstable.c", UNSTABLE)
    direct = main([path, "--json"])
    direct_out = capsys.readouterr().out
    aliased = main(["check", path, "--json"])
    aliased_out = capsys.readouterr().out
    assert direct == aliased == 1
    # Identical up to wall-clock timing fields.
    assert verdict_view(json.loads(direct_out)) == \
        verdict_view(json.loads(aliased_out))


def test_check_stdin_flag(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(UNSTABLE))
    code = main(["check", "--stdin", "--json"])
    record = json.loads(capsys.readouterr().out)
    assert code == 1
    assert record["unit"] == "<stdin>"


def test_no_source_and_no_stdin_exits_2(capsys):
    assert main(["check"]) == 2
    assert "--stdin" in capsys.readouterr().err


def test_cluster_interrupt_flushes_partial_stream_and_exits_130(
        tmp_path, capsys, monkeypatch):
    import repro.engine.engine as engine_module

    out = tmp_path / "partial.jsonl"
    real_check = engine_module.check_work_unit
    calls = {"count": 0}

    def interrupting(unit, config, **kwargs):
        calls["count"] += 1
        if calls["count"] == 3:               # Ctrl-C lands mid-corpus
            raise KeyboardInterrupt
        return real_check(unit, config, **kwargs)

    monkeypatch.setattr(engine_module, "check_work_unit", interrupting)
    code = main(["cluster", "--synthetic", "6", "--no-cluster",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 130
    assert "interrupted" in captured.err
    records = [json.loads(line) for line in out.read_text().splitlines()]
    # Finished units reached the stream; the summary is marked interrupted.
    assert [r["type"] for r in records[:-1]] == ["unit"] * (len(records) - 1)
    assert records[-1]["type"] == "run"
    assert records[-1]["interrupted"] is True
    assert records[-1]["units"] == len(records) - 1 == 2


def test_fuzz_interrupt_flushes_partial_summary_and_exits_130(
        tmp_path, capsys, monkeypatch):
    from repro.engine.engine import CheckEngine

    out = tmp_path / "partial-fuzz.jsonl"

    def interrupting(self, corpus):
        raise KeyboardInterrupt

    monkeypatch.setattr(CheckEngine, "check_corpus", interrupting)
    code = main(["fuzz", "--budget", "2", "--seed", "11",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 130
    assert "interrupted" in captured.err
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[-1]["type"] == "fuzz-run"
    assert records[-1]["interrupted"] is True


def test_sigterm_interrupts_like_ctrl_c(tmp_path):
    """SIGTERM mid-run behaves exactly like Ctrl-C: partial JSONL flushed,
    summary marked interrupted, exit 130."""
    import os
    import signal
    import subprocess
    import sys
    import time

    import repro

    out = tmp_path / "sigterm.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "cluster", "--synthetic", "80",
         "--no-cluster", "--out", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env)
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:        # wait for real progress
        if out.exists() and len(out.read_text().splitlines()) >= 2:
            break
        time.sleep(0.05)
    process.send_signal(signal.SIGTERM)
    assert process.wait(timeout=60) == 130
    assert "interrupted" in process.stderr.read()
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[-1]["type"] == "run"
    assert records[-1]["interrupted"] is True
    assert 0 < records[-1]["units"] < 80


def test_default_check_loads_no_external_backend(tmp_path):
    """The dimacs and pysat backends are imported only when named, and
    the check path does not load the ops layer."""
    import os
    import subprocess
    import sys

    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "check",
         write(tmp_path, "stable.c", STABLE)],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in run.stderr.splitlines()
                if line.startswith("import time:")}
    assert "repro.solver.backends.builtin" in imported
    assert "repro.solver.backends.dimacs" not in imported
    assert "repro.solver.backends.pysat_backend" not in imported
    assert "repro.obs.ops" not in imported
    assert "repro.obs.flightrec" not in imported


def test_run_summary_records_carry_version_and_config(tmp_path, capsys):
    from repro import __version__
    from repro.engine.engine import CheckEngine, EngineConfig

    results = tmp_path / "results.jsonl"
    engine = CheckEngine(EngineConfig(workers=0, results_path=str(results)))
    engine.check_corpus([("u0", STABLE)])
    records = [json.loads(line) for line in results.read_text().splitlines()]
    summary = [r for r in records if r["type"] == "run"]
    assert summary, [r["type"] for r in records]
    assert summary[0]["version"] == __version__
    assert summary[0]["config"]["engine"]["workers"] == 0
    assert summary[0]["config"]["checker"]["trace"] is False

    fuzz_out = tmp_path / "fuzz.jsonl"
    main(["fuzz", "--budget", "2", "--seed", "5", "--out", str(fuzz_out)])
    capsys.readouterr()
    records = [json.loads(line) for line in fuzz_out.read_text().splitlines()]
    summary = [r for r in records if r["type"] == "fuzz-run"]
    assert summary[0]["version"] == __version__
    assert summary[0]["config"]["seed"] == 5
    # Environment knobs stay out of the identity-bearing summary.
    assert "out" not in summary[0]["config"]
