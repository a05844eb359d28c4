"""The reachability census counts every ``python -m repro`` line CI runs.

``tests/census.py`` cannot read CI itself: it keeps CI's lines as
``CI_LINES``.  A line added to the workflow and not to that list would run
code the census then reports as reached only by tests.
"""

import re

from . import census

WORKFLOW = census.ROOT / ".github" / "workflows" / "ci.yml"


def ci_repro_lines():
    """The arguments of every ``python -m repro`` line in the workflow,
    with any output redirect (``> r1.txt``) stripped."""
    found = []
    for line in WORKFLOW.read_text().splitlines():
        match = re.search(r"python -m repro\s+(.*)$", line)
        if match:
            found.append(match.group(1).split(">")[0].strip())
    return found


def test_every_ci_repro_line_is_in_the_census():
    lines = ci_repro_lines()
    assert "lint src tests" in lines and len(lines) > 10
    missing = [line for line in lines if line not in census.CI_LINES]
    assert not missing, (
        f"CI runs {missing} but tests/census.py's CI_LINES does not list "
        f"them: add each there")
