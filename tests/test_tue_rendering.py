"""Zero-size TUE convention across report types, plus its rendering.

PR 3 fixed the simulator cells to report inf (traffic with a zero-byte
update) / nan (no traffic at all) instead of masking the zero with a
``max(x, 1)`` denominator.  This locks the replay and tradeoff reports —
and the table renderer — to the same convention.
"""

import math

from repro.core import Reading
from repro.reporting import fmt_tue
from repro.trace.replay import ReplayReport


def test_replay_report_tue_inf_when_traffic_without_update():
    report = ReplayReport(service="p", access="sync",
                          traffic_bytes=1024, data_update_bytes=0)
    assert math.isinf(report.tue)


def test_replay_report_tue_nan_only_for_zero_over_zero():
    report = ReplayReport(service="p", access="sync",
                          traffic_bytes=0, data_update_bytes=0)
    assert math.isnan(report.tue)


def test_replay_report_tue_plain_ratio():
    report = ReplayReport(service="p", access="sync",
                          traffic_bytes=300, data_update_bytes=100)
    assert report.tue == 3.0


def test_cost_report_matches_convention():
    make = lambda traffic, update: Reading(
        traffic=traffic, payload=0, update_bytes=update, sync_transactions=0)
    assert math.isinf(make(10, 0).tue)
    assert math.isnan(make(0, 0).tue)
    assert make(10, 5).tue == 2.0
    # The old max(update, 1) guard silently reported tue == traffic here.
    assert make(10, 0).tue != 10


def test_fmt_tue_rendering():
    assert fmt_tue(float("nan")) == "—"
    assert fmt_tue(float("inf")) == "inf"
    assert fmt_tue(3.14159) == "3.14"
    assert fmt_tue(3.14159, precision=1) == "3.1"
    assert fmt_tue(0.0) == "0.00"
