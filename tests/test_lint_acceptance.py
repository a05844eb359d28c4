"""Acceptance checks: the real tree lints clean, and deliberately injected
violations in copies of the real modules are caught with the right rule
ids — a wall clock in the simulator, a float cast in the meter, and the
fork-inherited-lock deadlock shape."""

import shutil
from pathlib import Path

from repro.cli import main
from repro.lint import ALL_RULES, lint_paths, lint_source

REPO = Path(__file__).parent.parent
SRC = REPO / "src"


def test_real_tree_is_clean_with_no_suppression_file():
    result = lint_paths([str(SRC)], ALL_RULES)
    assert result.ok, "\n".join(f.format() for f in result.findings)


def test_real_tree_is_clean_under_whole_program_analysis():
    result = lint_paths([str(SRC), str(REPO / "tests")], ALL_RULES)
    assert result.ok, "\n".join(f.format() for f in result.findings)
    assert result.file_count > 150


def _copy_module(tmp_path, relative):
    target = tmp_path / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(SRC / relative, target)
    return target


def _findings(paths):
    return lint_paths([str(p) for p in paths], ALL_RULES).findings


def test_injected_wall_clock_in_clock_py_fails_rep001(tmp_path):
    target = _copy_module(tmp_path, "repro/simnet/clock.py")
    source = target.read_text(encoding="utf-8")
    assert lint_source(source, str(target), ALL_RULES) == []
    source += ("\nimport time\n\n\ndef wall_now():\n"
               "    return time.time()\n")
    target.write_text(source, encoding="utf-8")
    findings = lint_source(source, str(target), ALL_RULES)
    assert "REP001" in {f.rule for f in findings}
    assert main(["lint", str(target)]) == 1


def test_injected_float_cast_in_meter_py_fails_rep010(tmp_path):
    target = _copy_module(tmp_path, "repro/simnet/meter.py")
    source = target.read_text(encoding="utf-8")
    assert lint_source(source, str(target), ALL_RULES) == []
    source += ("\n\ndef leak(total_bytes):\n"
               "    total_bytes = float(total_bytes)\n"
               "    return total_bytes\n")
    target.write_text(source, encoding="utf-8")
    findings = lint_source(source, str(target), ALL_RULES)
    assert "REP010" in {f.rule for f in findings}
    assert main(["lint", str(target)]) == 1


def test_removing_fork_lock_discipline_from_replay_fails_rep030(tmp_path):
    """(a) The PR 7 deadlock shape: the real trace/pool.py — the one
    module in src/ that forks — is clean, the same file with its
    ``with _fork_lock:`` block neutered is not."""
    target = _copy_module(tmp_path, "repro/trace/pool.py")
    assert _findings([tmp_path]) == []
    source = target.read_text(encoding="utf-8")
    mutated = source.replace("with _fork_lock:", "if True:")
    assert mutated != source, "pool.py no longer uses _fork_lock"
    target.write_text(mutated, encoding="utf-8")
    findings = _findings([tmp_path])
    # The worker spawn is the only fork primitive left, and it lost its
    # discipline.
    assert [f.rule for f in findings] == ["REP030"], \
        "\n".join(f.format() for f in findings)
