"""Engine-level tests: module derivation, pragmas, meta errors."""

import re
import textwrap
from pathlib import Path

from repro.lint import ALL_RULES, META_RULE, derive_module, lint_source

ANALYSIS = Path(__file__).parent.parent / "src" / "repro" / "trace" \
    / "analysis.py"


def _lint(source, path="src/repro/simnet/fixture.py"):
    return lint_source(textwrap.dedent(source), path, ALL_RULES)


# -- module derivation ------------------------------------------------------

def test_derive_module_anchors_at_repro():
    assert derive_module("src/repro/simnet/meter.py") == "repro.simnet.meter"
    assert derive_module("/abs/src/repro/trace/replay.py") \
        == "repro.trace.replay"


def test_derive_module_handles_init_and_tests():
    assert derive_module("src/repro/obs/__init__.py") == "repro.obs"
    assert derive_module("tests/test_meter.py") == "tests.test_meter"
    assert derive_module("scratch.py") == "scratch"


# -- pragmas: one form, covering its own line -------------------------------

def test_same_line_pragma_suppresses_only_that_line():
    findings = _lint("""\
        import time

        def f():
            a = time.time()  # reprolint: disable=REP001 deliberate
            b = time.time()
            return a, b
        """)
    assert [(f.rule, f.line) for f in findings] == [("REP001", 5)]


def test_file_level_pragma_is_a_lint_error():
    # There is no file-wide form: it is a meta error and suppresses nothing.
    findings = _lint("""\
        # reprolint: disable-file=REP001 whole file
        import time

        def f():
            return time.time()
        """)
    assert [(f.rule, f.line) for f in findings] \
        == [(META_RULE, 1), ("REP001", 5)]
    assert "unknown reprolint pragma" in findings[0].message


def test_wildcard_pragma_is_a_lint_error():
    # ``*`` is no rule id: it is a meta error and suppresses nothing.
    findings = _lint("""\
        import time

        def f():
            return time.time()  # reprolint: disable=* everything
        """)
    assert [(f.rule, f.line) for f in findings] \
        == [(META_RULE, 4), ("REP001", 4)]
    assert "'*'" in findings[0].message


def test_unknown_rule_id_in_pragma_is_a_lint_error():
    findings = _lint("""\
        import time

        def f():
            return time.time()  # reprolint: disable=REP999
        """)
    rules = {f.rule for f in findings}
    assert META_RULE in rules     # the bogus pragma itself
    assert "REP001" in rules      # and it suppressed nothing


def test_malformed_pragma_key_is_a_lint_error():
    findings = _lint("def f():\n    return 1  # reprolint: disable\n")
    assert [f.rule for f in findings] == [META_RULE]
    assert "requires =VALUE" in findings[0].message


def test_empty_pragma_is_a_lint_error():
    # A bare prefix names no directive: it is a meta error, not a no-op.
    findings = _lint("x = 1  # reprolint:\n")
    assert [(f.rule, f.line) for f in findings] == [(META_RULE, 1)]
    assert "empty reprolint pragma" in findings[0].message


def test_pragma_allows_trailing_justification_prose():
    findings = _lint("""\
        import time

        def f():
            return time.time()  # reprolint: disable=REP001 virtual clock unavailable here
        """)
    assert findings == []


def test_meta_rule_cannot_be_suppressed():
    # REP000 is no rule id a pragma can name, so naming it is itself a
    # meta error, and it suppresses nothing.
    findings = _lint(
        "def f(:  # reprolint: disable=REP000\n")
    assert [f.rule for f in findings] == [META_RULE]
    assert "syntax error" in findings[0].message
    findings = _lint("x = 1  # reprolint: disable=REP000,REP001\n")
    assert [f.rule for f in findings] == [META_RULE]
    assert "'REP000'" in findings[0].message


def test_module_pragma_overrides_path_derivation():
    source = "import time\n\ndef f():\n    return time.time()\n"
    assert _lint(source, path="anywhere.py") == []  # out of scope
    findings = _lint("# reprolint: module=repro.simnet.fake\n" + source,
                     path="anywhere.py")
    assert [f.rule for f in findings] == ["REP001"]


def test_syntax_error_becomes_meta_finding():
    findings = _lint("def f(:\n")
    assert len(findings) == 1
    assert findings[0].rule == META_RULE
    assert "syntax error" in findings[0].message


# -- a pragma never spreads over a multi-line statement ---------------------

def test_pragma_on_first_line_of_multiline_call_leaves_continuation():
    findings = _lint("""\
        import time

        def f(transform):
            value = transform(  # reprolint: disable=REP001 deliberate
                time.time(),
            )
            return value
        """)
    assert [(f.rule, f.line) for f in findings] == [("REP001", 5)]


def test_pragma_on_closing_line_leaves_continuation():
    findings = _lint("""\
        import time

        def f(transform):
            value = transform(
                time.time(),
            )  # reprolint: disable=REP001 deliberate
            return value
        """)
    assert [(f.rule, f.line) for f in findings] == [("REP001", 5)]


def test_pragma_on_multiline_call_leaves_later_statement():
    findings = _lint("""\
        import time

        def f(transform):
            value = transform(  # reprolint: disable=REP001 deliberate
                time.time(),
            )
            later = time.time()
            return value, later
        """)
    assert [(f.rule, f.line) for f in findings] \
        == [("REP001", 5), ("REP001", 7)]


def test_pragma_on_def_line_does_not_blanket_the_body():
    findings = _lint("""\
        import time

        def f():  # reprolint: disable=REP001 only the header
            return time.time()
        """)
    assert [(f.rule, f.line) for f in findings] == [("REP001", 4)]


def test_real_stats_pragmas_do_not_cover_the_rest_of_their_call():
    # trace/analysis.py's two REP010 pragmas sit inside the 18-line
    # ``TraceStats(...)`` call of ``summary_stats``: a float byte count
    # added to that call must still be reported.
    source = ANALYSIS.read_text(encoding="utf-8")
    assert lint_source(source, str(ANALYSIS), ALL_RULES) == []
    anchor = "        max_size=int(sizes.max()),\n"
    assert anchor in source and "# reprolint: disable=REP010" in source
    mutated = source.replace(
        anchor, anchor + "        total_bytes=float(sizes.sum()),\n")
    added = mutated.splitlines().index(
        "        total_bytes=float(sizes.sum()),") + 1
    findings = lint_source(mutated, str(ANALYSIS), ALL_RULES)
    assert [(f.rule, f.line) for f in findings] == [("REP010", added)]
    # Without the pragmas the two deliberate stats are reported as well.
    stripped = re.sub(r"  # reprolint:.*", "", mutated)
    assert sorted(f.line for f in lint_source(stripped, str(ANALYSIS),
                                              ALL_RULES)) \
        == [added - 3, added - 2, added]
