"""Acceptance checks from the issues: the real tree lints clean (per-file
AND whole-program), and deliberately injected violations in copies of the
real modules are caught with the right rule ids — including the PR 7
fork-inherited-lock shape, cross-module clock taint into meter
accounting, orphan ``verify_*`` invariants, and out-of-registry span
kinds defined via a constant in another module."""

import shutil
import textwrap
from pathlib import Path

from repro.cli import main
from repro.lint import (ALL_RULES, KNOWN_IDS, PROJECT_RULES, lint_paths,
                        lint_project, lint_source)

REPO = Path(__file__).parent.parent
SRC = REPO / "src"


def test_real_tree_is_clean_under_committed_baseline():
    result = lint_paths([str(SRC)], ALL_RULES,
                        baseline_path=str(REPO / "reprolint-baseline.json"),
                        known_ids=KNOWN_IDS)
    assert result.ok, "\n".join(f.format() for f in result.findings)
    assert result.stale == [], "baseline has stale entries"
    # The committed baseline must stay small and justified.
    assert result.baseline_applied <= 5


def test_real_tree_is_clean_under_whole_program_analysis():
    result = lint_project([str(SRC), str(REPO / "tests")], ALL_RULES,
                          PROJECT_RULES,
                          baseline_path=str(REPO / "reprolint-baseline.json"),
                          known_ids=KNOWN_IDS)
    assert result.ok, "\n".join(f.format() for f in result.findings)
    assert result.stale == []
    assert result.module_count > 80
    assert result.call_edges > 500


def _copy_module(tmp_path, relative):
    target = tmp_path / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(SRC / relative, target)
    return target


def _project_rules(paths):
    result = lint_project([str(p) for p in paths], [], PROJECT_RULES,
                          known_ids=KNOWN_IDS)
    return result.findings


def test_injected_wall_clock_in_clock_py_fails_rep001(tmp_path):
    target = _copy_module(tmp_path, "repro/simnet/clock.py")
    source = target.read_text(encoding="utf-8")
    assert lint_source(source, str(target), ALL_RULES,
                       known_ids=KNOWN_IDS) == []
    source += ("\nimport time\n\n\ndef wall_now():\n"
               "    return time.time()\n")
    target.write_text(source, encoding="utf-8")
    findings = lint_source(source, str(target), ALL_RULES,
                           known_ids=KNOWN_IDS)
    assert "REP001" in {f.rule for f in findings}
    assert main(["lint", str(target)]) == 1


def test_injected_float_cast_in_meter_py_fails_rep010(tmp_path):
    target = _copy_module(tmp_path, "repro/simnet/meter.py")
    source = target.read_text(encoding="utf-8")
    assert lint_source(source, str(target), ALL_RULES,
                       known_ids=KNOWN_IDS) == []
    source += ("\n\ndef leak(total_bytes):\n"
               "    total_bytes = float(total_bytes)\n"
               "    return total_bytes\n")
    target.write_text(source, encoding="utf-8")
    findings = lint_source(source, str(target), ALL_RULES,
                           known_ids=KNOWN_IDS)
    assert "REP010" in {f.rule for f in findings}
    assert main(["lint", str(target)]) == 1


# ---------------------------------------------------------------------------
# Whole-program injection acceptance (issue 9)
# ---------------------------------------------------------------------------


def test_removing_fork_lock_discipline_from_replay_fails_rep030(tmp_path):
    """(a) The PR 7 deadlock shape: the real trace/pool.py — the one
    module in src/ that forks — is clean, the same file with its
    ``with _fork_lock:`` block neutered is not."""
    target = _copy_module(tmp_path, "repro/trace/pool.py")
    assert _project_rules([tmp_path]) == []
    source = target.read_text(encoding="utf-8")
    mutated = source.replace("with _fork_lock:", "if True:")
    assert mutated != source, "pool.py no longer uses _fork_lock"
    target.write_text(mutated, encoding="utf-8")
    findings = _project_rules([tmp_path])
    # The worker spawn is the only fork primitive left, and it lost its
    # discipline.
    assert [f.rule for f in findings] == ["REP030"], \
        "\n".join(f.format() for f in findings)


def test_cross_module_clock_taint_into_meter_fails_rep040(tmp_path):
    """(b) A wall-clock value laundered through repro.reporting into
    meter accounting inside repro.core — invisible to per-file REP001."""
    pkg = tmp_path / "repro"
    (pkg / "reporting").mkdir(parents=True)
    (pkg / "core").mkdir()
    (pkg / "reporting" / "clock.py").write_text(textwrap.dedent("""
        import time

        def now_ms():
            stamp = time.time()
            return int(stamp * 1000)
    """), encoding="utf-8")
    (pkg / "core" / "accounting.py").write_text(textwrap.dedent("""
        from repro.reporting.clock import now_ms

        def charge(meter, payload):
            elapsed = now_ms()
            meter.record(payload, elapsed)
            return elapsed
    """), encoding="utf-8")
    # Per-file analysis cannot see the clock crossing the module boundary
    # (it does flag the raw meter.record() call site — REP011/REP020 —
    # but no determinism rule fires anywhere).
    for relative in ("reporting/clock.py", "core/accounting.py"):
        source = (pkg / relative).read_text(encoding="utf-8")
        per_file = {f.rule for f in
                    lint_source(source, str(pkg / relative), ALL_RULES,
                                known_ids=KNOWN_IDS)}
        assert not per_file & {"REP001", "REP002", "REP004"}
    rules = {f.rule for f in _project_rules([tmp_path])}
    assert "REP040" in rules
    assert "REP041" in rules  # the cross-fence call itself is also flagged


def test_orphan_verify_and_foreign_span_kind_fail_rep050_rep051(tmp_path):
    """(c) An unregistered verify_* invariant, and a span kind defined as
    a *lowercase* constant in another module (which evades REP022's
    uppercase-name heuristic) that resolves outside SPAN_KINDS."""
    pkg = tmp_path / "repro" / "obs"
    pkg.mkdir(parents=True)
    (pkg / "kinds.py").write_text('bogus_kind = "made-up-kind"\n',
                                  encoding="utf-8")
    (pkg / "emit.py").write_text(textwrap.dedent("""
        from repro.obs.kinds import bogus_kind

        def verify_orphan(report):
            return report

        def emit(recorder, source):
            recorder.record_span(bogus_kind, "x", source, 0, 1)
    """), encoding="utf-8")
    # REP022 cannot see either problem.
    source = (pkg / "emit.py").read_text(encoding="utf-8")
    assert lint_source(source, str(pkg / "emit.py"), ALL_RULES,
                       known_ids=KNOWN_IDS) == []
    findings = _project_rules([tmp_path])
    rules = {f.rule for f in findings}
    assert "REP050" in rules
    assert "REP051" in rules
    resolved = next(f for f in findings if f.rule == "REP051")
    assert "made-up-kind" in resolved.message


def test_lint_cli_graph_flag_on_real_tree():
    assert main(["lint", str(SRC), "--graph",
                 "--baseline", str(REPO / "reprolint-baseline.json")]) == 0
