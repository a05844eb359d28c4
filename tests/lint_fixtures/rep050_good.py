# reprolint: module=repro.obs.fixture
"""Good: every ``verify_*`` invariant has a caller."""


def verify_books(report):
    return report.total >= 0


def audit(report):
    return verify_books(report)
