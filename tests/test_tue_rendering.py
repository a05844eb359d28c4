"""Zero-size TUE convention across report types, plus its rendering.

Every ``tue`` reports inf for traffic with a zero-byte update and nan for
no traffic at all, instead of raising or masking the zero with a
``max(x, 1)`` denominator: :func:`repro.core.tue` states the rule once
and every report type's ``tue`` calls it.  The table renderer shows both.
"""

import math

import pytest

from repro.client import SyncSession
from repro.core import Reading, TrafficReport
from repro.fleet import FleetReport, MemberReport
from repro.reporting import fmt_tue
from repro.simnet import Direction
from repro.trace.replay import ReplayReport


def _traffic_report(traffic, update):
    return TrafficReport(up_payload=traffic, up_overhead=0, down_payload=0,
                         down_overhead=0, data_update_size=update)


def _member(traffic, update):
    return MemberReport(name="m0", traffic=_traffic_report(traffic, update),
                        notifications=0, fanout_fetches=0, suppressed=0,
                        conflicts=0)


def _session_tue(traffic, update):
    session = SyncSession("Box")
    if traffic:
        session.meter.record(0.0, Direction.UP, payload=traffic, overhead=0)
    return session.tue(update)


TUE_OF = {
    "Reading": lambda t, u: Reading(traffic=t, payload=0, update_bytes=u,
                                    sync_transactions=0).tue,
    "TrafficReport": lambda t, u: _traffic_report(t, u).tue,
    "SyncSession": _session_tue,
    "ReplayReport": lambda t, u: ReplayReport(
        service="p", access="sync", traffic_bytes=t,
        data_update_bytes=u).tue,
    "MemberReport": lambda t, u: _member(t, u).tue,
    "FleetReport": lambda t, u: FleetReport(
        service="p", clients=1, members=(_member(t, u),), commit_epochs=0,
        fanout_pushed_bytes=0, conflicts=0).tue,
}


@pytest.mark.parametrize("kind", sorted(TUE_OF))
@pytest.mark.parametrize("traffic, update, expected", [
    (0, 0, math.nan), (300, 0, math.inf), (300, 100, 3.0)])
def test_every_tue_follows_the_zero_update_rule(kind, traffic, update,
                                                expected):
    value = TUE_OF[kind](traffic, update)
    if math.isnan(expected):
        assert math.isnan(value)
    else:
        assert value == expected


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
