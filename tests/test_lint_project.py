"""lint_project driver tests: incremental cache and the engine edge
cases from issue 9 (deleted-file baselines, impersonated modules with
unknown pragma ids, empty/broken files in the project)."""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import (ALL_RULES, KNOWN_IDS, META_RULE, PROJECT_RULES,
                        ProjectContext, lint_paths, lint_project)


def _write_tree(root, tree):
    for relative, source in tree.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")


@pytest.fixture()
def small_tree(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/clean.py": """\
            def double(x):
                return 2 * x
            """,
        "src/repro/simnet/clocked.py": """\
            import time

            def stamp():
                return time.time()
            """,
    })
    return tmp_path


def _run(tree_root, **kwargs):
    return lint_project([str(tree_root / "src")], ALL_RULES, PROJECT_RULES,
                        known_ids=KNOWN_IDS, **kwargs)


# -- cache ------------------------------------------------------------------

def test_warm_cache_reuses_every_file_and_the_project(small_tree):
    cache = small_tree / "cache"
    cold = _run(small_tree, cache_dir=str(cache))
    assert cold.cache_hits == 0
    assert (cache / "reprolint-cache.json").exists()
    warm = _run(small_tree, cache_dir=str(cache))
    # Every file plus the project-level analysis served from cache.
    assert warm.cache_hits == warm.file_count + 1
    assert [f.to_dict() for f in warm.findings] \
        == [f.to_dict() for f in cold.findings]
    assert warm.module_count == cold.module_count
    assert warm.call_edges == cold.call_edges


def test_single_file_change_invalidates_project_but_not_other_files(
        small_tree):
    cache = small_tree / "cache"
    _run(small_tree, cache_dir=str(cache))
    target = small_tree / "src" / "repro" / "clean.py"
    target.write_text(target.read_text(encoding="utf-8")
                      + "\n\ndef triple(x):\n    return 3 * x\n",
                      encoding="utf-8")
    result = _run(small_tree, cache_dir=str(cache))
    # The untouched file is warm; the edited file and the project graph
    # both re-analyze.
    assert result.cache_hits == result.file_count - 1


def test_rule_set_change_invalidates_the_whole_cache(small_tree):
    cache = small_tree / "cache"
    _run(small_tree, cache_dir=str(cache))
    result = lint_project([str(small_tree / "src")], ALL_RULES[:3],
                          PROJECT_RULES, cache_dir=str(cache),
                          known_ids=KNOWN_IDS)
    assert result.cache_hits == 0


def test_corrupt_cache_file_is_treated_as_cold(small_tree):
    cache = small_tree / "cache"
    cache.mkdir()
    (cache / "reprolint-cache.json").write_text("{not json",
                                               encoding="utf-8")
    result = _run(small_tree, cache_dir=str(cache))
    assert result.cache_hits == 0
    assert json.loads(
        (cache / "reprolint-cache.json").read_text(encoding="utf-8"))


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
