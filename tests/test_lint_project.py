"""lint_project driver tests: the engine edge cases from issue 9
(deleted-file baselines, impersonated modules with unknown pragma ids,
empty/broken files in the project)."""

import json
import textwrap

from repro.cli import main
from repro.lint import (ALL_RULES, KNOWN_IDS, META_RULE, PROJECT_RULES,
                        ProjectContext, lint_paths, lint_project)


def _write_tree(root, tree):
    for relative, source in tree.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")


def _run(tree_root):
    return lint_project([str(tree_root / "src")], ALL_RULES, PROJECT_RULES,
                        known_ids=KNOWN_IDS)


# -- edge cases through ProjectContext --------------------------------------

def test_empty_and_syntax_error_files_flow_through_the_project(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/empty.py": "",
        "src/repro/broken.py": "def half(:\n",
        "src/repro/fine.py": "def ok():\n    return 1\n",
    })
    result = _run(tmp_path)
    # The broken file surfaces as a REP000 finding; the empty file is a
    # module like any other; the project pass still runs.
    assert [f.rule for f in result.findings] == [META_RULE]
    assert "syntax error" in result.findings[0].message
    assert result.module_count == 2  # empty + fine; broken is excluded
    project = ProjectContext(
        [("src/repro/empty.py", ""), ("src/repro/broken.py", "def half(:")],
        KNOWN_IDS)
    assert "repro.empty" in project.modules
    assert project.broken and project.broken[0][0] == "src/repro/broken.py"


def test_unknown_rule_pragma_in_impersonated_module(tmp_path):
    _write_tree(tmp_path, {
        "src/anywhere/fixture.py": """\
            # reprolint: module=repro.simnet.fake
            import time

            def f():
                return time.time()  # reprolint: disable=REP999 bogus id
            """,
    })
    result = _run(tmp_path)
    rules = sorted(f.rule for f in result.findings)
    # The impersonation pragma puts the file in scope (REP001 fires) and
    # the unknown id is a non-suppressible meta error.
    assert rules == [META_RULE, "REP001"]


def test_fail_stale_when_the_baselined_file_was_deleted(tmp_path, capsys):
    _write_tree(tmp_path, {
        "src/repro/present.py": "def ok():\n    return 1\n",
    })
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"entries": [
        {"rule": "REP001", "path": "src/repro/deleted.py",
         "comment": "file was removed in a refactor"},
    ]}), encoding="utf-8")
    result = lint_paths([str(tmp_path / "src")], ALL_RULES,
                        baseline_path=str(baseline), known_ids=KNOWN_IDS)
    assert [entry.path for entry in result.stale] \
        == ["src/repro/deleted.py"]
    assert main(["lint", str(tmp_path / "src"),
                 "--baseline", str(baseline), "--fail-stale"]) == 1
    assert "stale baseline" in capsys.readouterr().out


# -- pragma suppression of project findings ---------------------------------

def test_line_pragma_suppresses_a_project_finding(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/forky.py": """\
            import os

            def spawn():
                pid = os.fork()  # reprolint: disable=REP030 test-only fork
                return pid
            """,
    })
    assert _run(tmp_path).findings == []
    # Without the pragma the same shape is a REP030.
    source = (tmp_path / "src" / "repro" / "forky.py").read_text(
        encoding="utf-8")
    (tmp_path / "src" / "repro" / "forky.py").write_text(
        source.replace("  # reprolint: disable=REP030 test-only fork", ""),
        encoding="utf-8")
    assert [f.rule for f in _run(tmp_path).findings] == ["REP030"]
