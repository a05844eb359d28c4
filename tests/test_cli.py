"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.units import KB, MB

#: Each target the pre-registry ``repro audit`` hard-coded, and the
#: registry entry (with that entry's own flags) that now covers it.
AUDIT_EQUIVALENTS = {
    "exp1": ["table6", "--access", "pc"],
    "exp2": ["deletion", "--access", "pc"],
    "exp3": ["fig4", "--service", "Dropbox", "--access", "pc"],
    "exp4": ["table8", "--access", "pc", "--size", str(1 * MB)],
    "exp5": ["probe-dedup", "Dropbox", "--max-block", str(2 * MB)],
    "exp6": ["fig6", "--service", "Dropbox", "--max-x", "4",
             "--total", str(64 * KB)],
    "exp7": ["fig7", "--service", "Dropbox", "--max-x", "1",
             "--total", str(64 * KB)],
    "exp8": ["faults", "--fault-rate", "0.75"],
    "exp10": ["backends", "--files", "6"],
    "exp11": ["strategies", "--files", "1"],
    "replay": ["replay", "--workers", "2", "--scale", "0.005"],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


def test_list(capsys):
    out = run(capsys, "list")
    assert "table6" in out and "probe-dedup" in out


def test_table6(capsys):
    out = run(capsys, "table6")
    assert "GoogleDrive" in out and "Dropbox" in out


def test_table7_web(capsys):
    out = run(capsys, "table7", "--access", "web")
    assert "UbuntuOne" in out


def test_fig3(capsys):
    out = run(capsys, "fig3", "--service", "Box")
    assert "TUE" in out


def test_fig6(capsys):
    out = run(capsys, "fig6", "--service", "GoogleDrive", "--max-x", "6",
              "--total", str(64 * 1024))
    assert "Figure 6" in out


def test_deletion(capsys):
    out = run(capsys, "deletion")
    assert "deletion sync traffic" in out


def test_probe_defer(capsys):
    out = run(capsys, "probe-defer", "GoogleDrive")
    assert "4.2" in out


def test_probe_dedup(capsys):
    out = run(capsys, "probe-dedup", "UbuntuOne", "--max-block",
              str(2 * 1024 * 1024))
    assert "Full file" in out


def test_trace_and_save(tmp_path, capsys):
    out_path = tmp_path / "t.zip"
    out = run(capsys, "trace", "--scale", "0.005", "--out", str(out_path))
    assert "files" in out
    assert out_path.exists()


@pytest.mark.parametrize("command, argv", [
    ("trace", ["trace", "--scale", "-1"]),
    ("trace", ["trace", "--scale", "0"]),
    ("replay", ["replay", "--scale", "0"]),
    ("replay", ["replay", "--scale", "0", "--workers", "2"]),
    ("replay", ["audit", "replay", "--scale", "-1"]),
])
def test_scale_the_generator_cannot_honour_exits_two(capsys, command, argv):
    """Regression: each of these printed a 6-file trace or replay."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro {command}: error: ")
    assert "scale" in captured.err


def test_replay(capsys):
    out = run(capsys, "replay", "--scale", "0.005")
    assert "Macro replay" in out and "Dropbox" in out


def test_replay_seed_reaches_the_replay_rng(capsys):
    """Regression: --seed used to reach generate_trace but not replay_trace,
    so the modification-fraction RNG always ran at seed=0.  Same-seed runs
    must be identical; different-seed runs must differ (same trace seed, so
    any difference can only come from the replay RNG)."""
    first = run(capsys, "replay", "--scale", "0.005", "--seed", "1")
    again = run(capsys, "replay", "--scale", "0.005", "--seed", "1")
    other = run(capsys, "replay", "--scale", "0.005", "--seed", "2")
    assert first == again
    assert first != other


def test_replay_workers_matches_sequential(capsys):
    sequential = run(capsys, "replay", "--scale", "0.005", "--seed", "3")
    parallel = run(capsys, "replay", "--scale", "0.005", "--seed", "3",
                   "--workers", "2")
    assert parallel == sequential


def test_overuse_seed_reaches_the_replay_rng(capsys):
    first = run(capsys, "overuse", "--scale", "0.01", "--seed", "1")
    other = run(capsys, "overuse", "--scale", "0.01", "--seed", "2")
    assert first != other


def test_overuse_workers_matches_sequential(capsys):
    sequential = run(capsys, "overuse", "--scale", "0.01", "--seed", "4")
    parallel = run(capsys, "overuse", "--scale", "0.01", "--seed", "4",
                   "--workers", "2")
    assert parallel == sequential


def test_fleet_audited(capsys):
    out = run(capsys, "audit", "fleet", "--clients", "3", "--writers", "2",
              "--seed", "3")
    assert "client0" in out and "fleet TUE" in out
    assert "members converged: yes" in out
    assert "event domains" not in out


def test_fleet_sharded_matches_single_queue(capsys):
    single = run(capsys, "audit", "fleet", "--clients", "4", "--writers", "2",
                 "--seed", "3")
    sharded = run(capsys, "audit", "fleet", "--clients", "4", "--writers",
                  "2", "--seed", "3", "--domains", "4")
    assert "4 event domains" in sharded
    assert "cross-domain messages" in sharded
    # Everything but the domains footer is byte-identical.
    footer = next(line for line in sharded.splitlines()
                  if "event domains" in line)
    assert sharded.replace(footer + "\n", "") == single


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_bad_access():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table6", "--access", "fax"])


def test_overuse(capsys):
    out = run(capsys, "overuse", "--scale", "0.01")
    assert "overuse" in out.lower()


def test_upgrades_single_service(capsys):
    out = run(capsys, "upgrades", "--services", "Box")
    assert "Box" in out and "ids" in out


def test_audit_experiment(capsys):
    out = run(capsys, "audit", *AUDIT_EQUIVALENTS["exp1"])
    assert "conservation audit passed" in out
    assert "Per-phase breakdown" in out
    assert "exchange" in out


def test_audit_exp8_with_fault_rate(capsys):
    out = run(capsys, "audit", *AUDIT_EQUIVALENTS["exp8"])
    assert "conservation audit passed" in out


def test_audit_parallel_replay(capsys):
    out = run(capsys, "audit", *AUDIT_EQUIVALENTS["replay"])
    assert "conservation audit passed" in out


def test_audit_writes_optional_trace(tmp_path, capsys):
    path = tmp_path / "spans.jsonl"
    out = run(capsys, "audit", *AUDIT_EQUIVALENTS["exp3"], "--trace",
              str(path))
    assert "span trace written" in out
    assert path.exists() and path.stat().st_size > 0


def test_trace_run_exports_jsonl(tmp_path, capsys):
    import json

    path = tmp_path / "spans.jsonl"
    out = run(capsys, "trace-run", *AUDIT_EQUIVALENTS["exp1"], "--out",
              str(path), "--audit")
    assert "conservation audit passed" in out
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert any(entry["type"] == "session" for entry in lines)
    assert any(entry["type"] == "span" and entry["kind"] == "exchange"
               for entry in lines)


def test_trace_run_requires_out(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace-run", "table6"])


def test_audit_rejects_unknown_target():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["audit", "exp99"])


def test_backends_prints_matrix_and_ratio(capsys):
    out = run(capsys, "backends", "--files", "12")
    assert "packshard" in out and "chunk" in out and "object" in out
    for mix in ("paper", "uniform-large", "multimedia"):
        assert mix in out
    assert "fewer REST ops/file than the chunk store" in out


def test_backends_audited_run_passes(capsys):
    out = run(capsys, "audit", "backends", "--files", "12")
    assert "conservation audit passed" in out
    assert "bundle-conservation" in out


def test_audit_exp10_traces_the_bundled_commit(capsys):
    out = run(capsys, "audit", *AUDIT_EQUIVALENTS["exp10"])
    assert "conservation audit passed" in out
    assert "bundle-commit" in out


def test_list_includes_backends(capsys):
    out = run(capsys, "list")
    assert "backends" in out


def test_strategies_prints_frontier_and_dominance(capsys):
    out = run(capsys, "strategies", "--files", "2")
    for name in ("full-file", "fixed-delta", "cdc-delta", "set-reconcile",
                 "adaptive"):
        assert name in out
    for workload in ("fresh", "scatter-edit", "clone"):
        assert workload in out
    assert "adaptive selector TUE <= every static strategy" in out
    assert ": yes" in out


def test_strategies_exits_one_when_adaptive_loses_a_cell(monkeypatch, capsys):
    from dataclasses import replace

    from repro.artifacts import extensions

    measured = extensions.run_strategy_cell
    lost = []

    def adaptive_loses_one_cell(strategy, *args, **kwargs):
        reading = measured(strategy, *args, **kwargs)
        if strategy == "adaptive" and not lost:
            lost.append(reading)
            reading = replace(reading, traffic=10 * reading.traffic)
        return reading

    monkeypatch.setattr(extensions, "run_strategy_cell",
                        adaptive_loses_one_cell)
    assert main(["strategies"]) == 1
    assert "every static strategy on every cell: NO" in \
        capsys.readouterr().out


@pytest.mark.parametrize("argv", [["fleet"], ["audit", "fleet"]],
                         ids=" ".join)
def test_fleet_exits_one_when_a_follower_diverges(monkeypatch, capsys, argv):
    """Regression: a fleet whose members did not converge exited 0."""
    from repro.fleet import FleetMember

    apply_entry = FleetMember._apply_entry

    def client2_never_applies(member, entry):
        if member.name != "client2":
            apply_entry(member, entry)

    monkeypatch.setattr(FleetMember, "_apply_entry", client2_never_applies)
    assert main([*argv, "--clients", "3", "--writers", "1"]) == 1
    assert "members converged: NO" in capsys.readouterr().out


def test_strategies_audited_run_passes(capsys):
    out = run(capsys, "audit", "strategies", "--files", "2")
    assert "conservation audit passed" in out
    assert "strategy-conservation" in out


def test_audit_exp11_traces_the_strategy_ledger(capsys):
    out = run(capsys, "audit", *AUDIT_EQUIVALENTS["exp11"])
    assert "conservation audit passed" in out
    assert "strategy-select" in out
    assert "recon-sketch" in out


def test_list_includes_strategies(capsys):
    out = run(capsys, "list")
    assert "strategies" in out


def test_audit_equivalents_cover_every_former_target():
    assert set(AUDIT_EQUIVALENTS) == {
        "exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7", "exp8",
        "exp10", "exp11", "replay"}


# The other six equivalents are audited by the tests above.
@pytest.mark.parametrize("target", ["exp2", "exp4", "exp5", "exp6", "exp7"])
def test_audit_equivalent_passes(capsys, target):
    out = run(capsys, "audit", *AUDIT_EQUIVALENTS[target])
    assert "conservation audit passed" in out


def test_zero_size_input_exits_two_with_the_message(capsys):
    code = main(["fig6", "--service", "Dropbox", "--max-x", "2",
                 "--total", "0"])
    assert code == 2
    assert "total must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fig3", "--service", "Dropbx"],
    ["fig4", "--service", "Dropbx"],
    ["fig6", "--service", "Dropbx"],
    ["fig7", "--service", "Dropbx"],
    ["probe-dedup", "Dropbx"],
    ["probe-defer", "Dropbx"],
    ["fleet", "--service", "Dropbx"],
    ["upgrades", "--services", "Dropbx"],
], ids=lambda argv: argv[0])
def test_unknown_service_exits_two_naming_the_services(capsys, argv):
    """Regression: each of these crashed with a bare KeyError traceback."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "unknown service 'Dropbx'" in err
    assert "GoogleDrive, OneDrive, Dropbox, Box, UbuntuOne, SugarSync" in err


def test_service_names_stay_case_insensitive(capsys):
    out = run(capsys, "fig4", "--service", "dropbox", "--access", "pc")
    assert "dropbox" in out


@pytest.mark.parametrize("argv", [
    ["fig6", "--max-x", "0"],
    ["fig7", "--max-x", "0"],
    ["fleet", "--clients", "0"],
    ["replay", "--workers", "-3"],
    ["overuse", "--workers", "0"],
    ["backends", "--files", "0"],
    ["backends", "--files", "-2"],
    ["strategies", "--files", "0"],
], ids=lambda argv: " ".join(argv))
def test_degenerate_grid_or_fleet_exits_two(capsys, argv):
    """Regression: these printed a header-only table, an empty fleet's
    TUE "—", a sequential replay or an empty sweep's verdict, and exited
    0 (``strategies`` exited 1 on its "NO")."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro {argv[0]}: error: ")
