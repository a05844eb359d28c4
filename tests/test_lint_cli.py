"""CLI behaviour of ``repro lint``: its text report and exit codes."""

import pytest

from repro.cli import main

FIXTURES = "tests/lint_fixtures"


@pytest.fixture()
def violating_tree(tmp_path):
    package = tmp_path / "src" / "repro" / "simnet"
    package.mkdir(parents=True)
    (package / "clocked.py").write_text(
        "import time\n\n\ndef f():\n    return time.time()\n",
        encoding="utf-8")
    return tmp_path


def test_lint_clean_tree_exits_zero(tmp_path, capsys):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "ok.py").write_text("def f():\n    return 0\n",
                                   encoding="utf-8")
    assert main(["lint", str(tmp_path / "src")]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out and "ok" in out


def test_lint_text_format_reports_findings(violating_tree, capsys):
    assert main(["lint", str(violating_tree / "src")]) == 1
    out = capsys.readouterr().out
    assert "REP001" in out and "clocked.py:5" in out
    assert "FAILED" in out
    assert "hint:" in out


def test_lint_has_no_format_option(violating_tree, capsys):
    # The text report is the one output; the exit code carries the verdict.
    with pytest.raises(SystemExit) as exit_info:
        main(["lint", str(violating_tree / "src"), "--format", "json"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_lint_has_no_baseline_option(violating_tree, capsys):
    # Inline pragmas are the one suppression path.
    with pytest.raises(SystemExit) as exit_info:
        main(["lint", str(violating_tree / "src"),
              "--baseline", str(violating_tree / "b.json")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --baseline" in capsys.readouterr().err


def test_lint_fixture_files_only_when_named_explicitly(capsys):
    # Directory walks skip lint_fixtures/; naming a file lints it.
    assert main(["lint", "tests"]) == 0
    capsys.readouterr()
    assert main(["lint", f"{FIXTURES}/rep001_bad.py"]) == 1
    assert "REP001" in capsys.readouterr().out


def test_lint_listed_in_cli_index(capsys):
    assert main(["list"]) == 0
    assert "lint" in capsys.readouterr().out
