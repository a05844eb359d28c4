"""Whole-tree ``lint_paths`` edge cases: empty and broken files inside the
tree, impersonated modules with unknown pragma ids, and pragmas on
findings the tree pass reports."""

import re
import textwrap

from repro.lint import ALL_RULES, META_RULE, lint_paths


def _write_tree(root, tree):
    for relative, source in tree.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")


def _run(tree_root):
    return lint_paths([str(tree_root / "src")], ALL_RULES)


# -- edge cases through the one pass -----------------------------------------

def test_empty_and_syntax_error_files_flow_through_the_project(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/empty.py": "",
        "src/repro/broken.py": "def half(:\n",
        "src/repro/orphan.py": """\
            from dataclasses import dataclass

            @dataclass
            class OrphanStats:
                never_written: int = 0
            """,
    })
    result = _run(tmp_path)
    # The broken file surfaces as a REP000 finding; the empty file is a
    # module like any other; the rest of the tree is still linted, the
    # tree-wide checks included.
    assert [(f.rule, f.path.rsplit("/", 1)[-1]) for f in result.findings] \
        == [(META_RULE, "broken.py"), ("REP053", "orphan.py")]
    assert "syntax error" in result.findings[0].message
    assert result.file_count == 3


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


# -- pragma suppression ---------------------------------------------------------

def test_line_pragma_suppresses_a_project_finding(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/forky.py": """\
            import os
            from dataclasses import dataclass

            @dataclass
            class SpawnStats:
                forks: int = 0  # reprolint: disable=REP053 test-only

            def spawn():
                pid = os.fork()  # reprolint: disable=REP030 test-only fork
                return pid
            """,
    })
    assert _run(tmp_path).findings == []
    # Without the pragmas the same shapes are a REP053 and a REP030.
    forky = tmp_path / "src" / "repro" / "forky.py"
    source = forky.read_text(encoding="utf-8")
    forky.write_text(re.sub(r"  # reprolint:.*", "", source),
                     encoding="utf-8")
    assert [f.rule for f in _run(tmp_path).findings] == ["REP053", "REP030"]
