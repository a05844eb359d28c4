"""Engine-level tests: module derivation, pragmas, meta errors."""

import textwrap

from repro.lint import ALL_RULES, META_RULE, derive_module, lint_source


def _lint(source, path="src/repro/simnet/fixture.py", module=None):
    return lint_source(textwrap.dedent(source), path, ALL_RULES,
                       module=module)


# -- module derivation ------------------------------------------------------

def test_derive_module_anchors_at_repro():
    assert derive_module("src/repro/simnet/meter.py") == "repro.simnet.meter"
    assert derive_module("/abs/src/repro/trace/replay.py") \
        == "repro.trace.replay"


def test_derive_module_handles_init_and_tests():
    assert derive_module("src/repro/obs/__init__.py") == "repro.obs"
    assert derive_module("tests/test_meter.py") == "tests.test_meter"
    assert derive_module("scratch.py") == "scratch"


# -- pragmas (satellite: same-line, file-level, unknown-id) -----------------

def test_same_line_pragma_suppresses_only_that_line():
    findings = _lint("""\
        import time

        def f():
            a = time.time()  # reprolint: disable=REP001 deliberate
            b = time.time()
            return a, b
        """)
    assert [(f.rule, f.line) for f in findings] == [("REP001", 5)]


def test_file_level_pragma_suppresses_whole_file():
    findings = _lint("""\
        # reprolint: disable-file=REP001
        import time

        def f():
            return time.time(), time.time()
        """)
    assert findings == []


def test_file_level_star_pragma_suppresses_everything_but_meta():
    findings = _lint("""\
        # reprolint: disable-file=*
        import time, random

        def f():
            return time.time(), random.random()
        """)
    assert findings == []


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


def test_pragma_allows_trailing_justification_prose():
    findings = _lint("""\
        import time

        def f():
            return time.time()  # reprolint: disable=REP001 virtual clock unavailable here
        """)
    assert findings == []


def test_meta_rule_cannot_be_suppressed():
    findings = _lint(
        "# reprolint: disable-file=*\n"
        "x = 1  # reprolint: disable=REP999\n")
    assert [f.rule for f in findings] == [META_RULE]


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


# -- multi-line statement pragma anchoring (issue 9 satellite) --------------

def test_pragma_on_first_line_of_multiline_call_suppresses_continuation():
    findings = _lint("""\
        import time

        def f(transform):
            value = transform(  # reprolint: disable=REP001 deliberate
                time.time(),
            )
            return value
        """)
    assert findings == []


def test_pragma_anchors_to_the_innermost_statement_only():
    findings = _lint("""\
        import time

        def f(transform):
            value = transform(  # reprolint: disable=REP001 deliberate
                time.time(),
            )
            later = time.time()
            return value, later
        """)
    assert [(f.rule, f.line) for f in findings] == [("REP001", 7)]


def test_pragma_on_continuation_line_also_covers_the_statement():
    findings = _lint("""\
        import time

        def f(transform):
            value = transform(
                time.time(),
            )  # reprolint: disable=REP001 deliberate
            return value
        """)
    assert findings == []


def test_pragma_on_def_line_does_not_blanket_the_body():
    findings = _lint("""\
        import time

        def f():  # reprolint: disable=REP001 only the header
            return time.time()
        """)
    assert [(f.rule, f.line) for f in findings] == [("REP001", 4)]
