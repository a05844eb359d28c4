# reprolint: module=repro.obs.fixture
"""Bad: an invariant the audit claims but never runs."""


def verify_orphan(report):  # expect: REP050
    return report.total >= 0
