"""Fixture-driven tests for every reprolint rule.

Each rule has a ``repNNN_bad.py`` fixture whose violating lines carry an
``# expect: REPNNN`` marker, and a ``repNNN_good.py`` fixture that must
produce zero findings.  The test asserts *exact* (line, rule) sets, so a
rule that drifts (fires on the wrong line, or stops firing) fails loudly.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, RULES_BY_ID, lint_source
from repro.lint.rules.conservation import (_DISPLAY_MODULES,
                                           METER_MUTATION_MODULES)
from repro.lint.rules.determinism import (ACCOUNTING_MODULES,
                                          DETERMINISTIC_PACKAGES)

FIXTURES = Path(__file__).parent / "lint_fixtures"
_EXPECT_RE = re.compile(r"#\s*expect:\s*(REP\d+)")

# Every rule, per-file and tree-wide alike: lint_source lints a fixture as
# a one-file tree, so REP053 sees it the way it sees ``src/``.
RULE_IDS = sorted(rule.id for rule in ALL_RULES)


def test_registry_covers_file_and_project_rules():
    assert len(RULES_BY_ID) == len(ALL_RULES)  # ids are unique
    assert set(RULES_BY_ID) == set(RULE_IDS)


def _expected_markers(source):
    expected = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        for match in _EXPECT_RE.finditer(line):
            expected.add((lineno, match.group(1)))
    return expected


def _fixture(name):
    path = FIXTURES / name
    return path, path.read_text(encoding="utf-8")


def test_every_rule_has_fixture_pair():
    for rule_id in RULE_IDS:
        stem = rule_id.lower()
        assert (FIXTURES / f"{stem}_bad.py").is_file(), rule_id
        assert (FIXTURES / f"{stem}_good.py").is_file(), rule_id


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_fires_exactly_where_expected(rule_id):
    path, source = _fixture(f"{rule_id.lower()}_bad.py")
    expected = _expected_markers(source)
    assert expected, f"{path.name} has no # expect: markers"
    assert all(marker[1] == rule_id for marker in expected), \
        f"{path.name} expects findings from a different rule"
    findings = lint_source(source, str(path), ALL_RULES)
    assert {(f.line, f.rule) for f in findings} == expected


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_good_fixture_is_clean(rule_id):
    path, source = _fixture(f"{rule_id.lower()}_good.py")
    findings = lint_source(source, str(path), ALL_RULES)
    assert findings == []


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_findings_carry_location_and_hint(rule_id):
    path, source = _fixture(f"{rule_id.lower()}_bad.py")
    for finding in lint_source(source, str(path), ALL_RULES):
        assert finding.path.endswith(f"{rule_id.lower()}_bad.py")
        assert finding.line >= 1 and finding.col >= 0
        assert finding.message
        assert finding.hint  # every rule ships a fix hint
        assert f"{finding.path}:{finding.line}" in finding.format()


def test_fixture_modules_impersonate_scoped_packages():
    # The module= pragma is what puts fixtures in scope for scoped rules.
    path, source = _fixture("rep001_bad.py")
    unscoped = lint_source(source.replace(
        "# reprolint: module=repro.simnet.fixture", "# plain comment"),
        str(path), ALL_RULES)
    assert unscoped == []  # out of scope -> silent


# -- rule scopes name real modules ---------------------------------------------

SRC = Path(__file__).parent.parent / "src"
_DOTTED_REPRO = re.compile(r"repro(\.[A-Za-z_]\w*)*")


def _scope_names():
    """Every string literal in the rule modules that reads as a dotted
    ``repro`` module name: the scope tuples and inline scopes such as
    REP020's ``repro.simnet.meter`` alike."""
    names = {}
    for path in sorted((SRC / "repro" / "lint" / "rules").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and _DOTTED_REPRO.fullmatch(node.value):
                names.setdefault(node.value, f"{path.name}:{node.lineno}")
    return names


def test_rule_scopes_name_modules_that_exist():
    # A renamed or deleted module silently drops out of a scoped rule;
    # fail here instead.
    names = _scope_names()
    for scope in (DETERMINISTIC_PACKAGES, ACCOUNTING_MODULES,
                  METER_MUTATION_MODULES, _DISPLAY_MODULES):
        assert set(scope) <= set(names)
    missing = sorted(
        f"{name} ({where})" for name, where in names.items()
        if not (SRC.joinpath(*name.split(".")).with_suffix(".py").is_file()
                or (SRC.joinpath(*name.split(".")) / "__init__.py").is_file()))
    assert missing == []
