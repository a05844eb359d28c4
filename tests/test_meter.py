"""Unit tests for the traffic meter (the simulated Wireshark)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet import Direction, MeterSnapshot, TrafficMeter, TrafficTotals


def test_empty_meter_is_zero():
    meter = TrafficMeter()
    assert meter.total_bytes == 0
    assert meter.payload_bytes == 0
    assert meter.overhead_bytes == 0


def test_record_accumulates_by_direction():
    meter = TrafficMeter()
    meter.record(0.0, Direction.UP, payload=100, overhead=20)
    meter.record(1.0, Direction.DOWN, payload=50, overhead=5)
    assert meter.up.payload == 100
    assert meter.up.overhead == 20
    assert meter.down.payload == 50
    assert meter.down.overhead == 5
    assert meter.total_bytes == 175


def test_negative_bytes_rejected():
    meter = TrafficMeter()
    with pytest.raises(ValueError):
        meter.record(0.0, Direction.UP, payload=-1)
    with pytest.raises(ValueError):
        meter.record(0.0, Direction.UP, payload=0, overhead=-1)


def test_snapshot_diff_isolates_interval():
    meter = TrafficMeter()
    meter.record(0.0, Direction.UP, payload=10, overhead=1)
    snap = meter.snapshot()
    meter.record(1.0, Direction.UP, payload=7, overhead=2)
    meter.record(1.0, Direction.DOWN, payload=3, overhead=4)
    delta = meter.since(snap)
    assert delta.up_payload == 7
    assert delta.up_overhead == 2
    assert delta.down_total == 7
    assert delta.total == 16
    assert delta.record_count == 2


def test_records_since_returns_new_records_only():
    meter = TrafficMeter()
    meter.record(0.0, Direction.UP, 1, 0, kind="old")
    snap = meter.snapshot()
    meter.record(1.0, Direction.UP, 2, 0, kind="new")
    kinds = [r.kind for r in meter.records_since(snap)]
    assert kinds == ["new"]


def test_records_since_is_an_immutable_copy():
    """Regression: records_since used to return a live list slice, so
    records metered *after* the snapshot leaked into a previously captured
    view (and callers could mutate the meter's ledger through it)."""
    meter = TrafficMeter()
    meter.record(0.0, Direction.UP, 1, 0, kind="old")
    snap = meter.snapshot()
    meter.record(1.0, Direction.UP, 2, 0, kind="new")
    view = meter.records_since(snap)
    meter.record(2.0, Direction.UP, 3, 0, kind="late")
    assert [r.kind for r in view] == ["new"]          # no leak
    assert [r.kind for r in view] == ["new"]          # re-iterable
    assert isinstance(view, tuple)


def test_bytes_by_kind_groups_totals():
    meter = TrafficMeter()
    meter.record(0.0, Direction.UP, 10, 2, kind="upload")
    meter.record(0.0, Direction.DOWN, 0, 5, kind="upload")
    meter.record(0.0, Direction.DOWN, 0, 7, kind="notify")
    groups = meter.bytes_by_kind()
    assert groups == {"upload": 17, "notify": 7}


def test_totals_by_kind_decomposes_payload_overhead_wasted():
    meter = TrafficMeter()
    meter.record(0.0, Direction.UP, 10, 2, kind="upload")
    meter.record(0.0, Direction.DOWN, 0, 5, kind="upload", wasted=3)
    meter.record(0.0, Direction.DOWN, 0, 7, kind="notify")
    meter.record(1.0, Direction.UP, 0, 40, kind="restart", wasted=40)
    kinds = meter.totals_by_kind()
    assert set(kinds) == {"upload", "notify", "restart"}
    assert kinds["upload"].payload == 10
    assert kinds["upload"].overhead == 7
    assert kinds["upload"].wasted == 3
    assert kinds["restart"].wasted == kinds["restart"].total == 40
    # totals by kind must match bytes_by_kind and the meter-wide counters
    assert {k: t.total for k, t in kinds.items()} == meter.bytes_by_kind()
    assert sum(t.payload for t in kinds.values()) == meter.payload_bytes
    assert sum(t.overhead for t in kinds.values()) == meter.overhead_bytes


def test_totals_by_kind_wasted_sums_to_wasted_bytes():
    meter = TrafficMeter()
    meter.record(0.0, Direction.UP, 100, 20, kind="upload", wasted=30)
    meter.record(1.0, Direction.DOWN, 0, 50, kind="rejected", wasted=50)
    meter.record(2.0, Direction.UP, 5, 5, kind="poll")
    kinds = meter.totals_by_kind()
    assert sum(t.wasted for t in kinds.values()) == meter.wasted_bytes == 80
    for totals in kinds.values():
        assert totals.wasted <= totals.total


def test_reset_clears_everything():
    meter = TrafficMeter()
    meter.record(0.0, Direction.UP, 10, 2)
    meter.reset()
    assert meter.total_bytes == 0
    assert meter.records == []


def test_record_total_property():
    meter = TrafficMeter()
    record = meter.record(0.0, Direction.UP, payload=3, overhead=4)
    assert record.total == 7


def test_wasted_bytes_are_a_decomposition():
    """Wasted bytes label a subset of payload+overhead, never add to it."""
    meter = TrafficMeter()
    meter.record(0.0, Direction.UP, payload=100, overhead=20, wasted=30)
    meter.record(1.0, Direction.DOWN, payload=0, overhead=50, wasted=50)
    assert meter.total_bytes == 170          # wasted does not inflate totals
    assert meter.wasted_bytes == 80
    assert meter.useful_bytes == 90
    assert meter.up.wasted == 30
    assert meter.down.useful == 0


def test_wasted_cannot_exceed_record_total():
    meter = TrafficMeter()
    with pytest.raises(ValueError):
        meter.record(0.0, Direction.UP, payload=10, overhead=5, wasted=16)
    with pytest.raises(ValueError):
        meter.record(0.0, Direction.UP, payload=10, wasted=-1)


def test_snapshot_diff_carries_wasted():
    meter = TrafficMeter()
    meter.record(0.0, Direction.UP, payload=10, overhead=2, wasted=4)
    snap = meter.snapshot()
    meter.record(1.0, Direction.UP, payload=7, overhead=3, wasted=10)
    meter.record(1.0, Direction.DOWN, payload=0, overhead=6, wasted=6)
    delta = meter.since(snap)
    assert delta.up_wasted == 10
    assert delta.down_wasted == 6
    assert delta.wasted == 16
    assert delta.useful == delta.total - delta.wasted


def test_reset_clears_wasted():
    meter = TrafficMeter()
    meter.record(0.0, Direction.UP, payload=10, overhead=2, wasted=4)
    meter.reset()
    assert meter.wasted_bytes == 0


def test_unknown_direction_rejected_before_anything_is_metered():
    meter = TrafficMeter()
    with pytest.raises(ValueError):
        meter.record(0.0, "up", payload=1)
    assert meter.records == [] and meter.total_bytes == 0


def test_reset_zeroes_the_totals_in_place():
    """``up`` / ``down`` are plain attributes a caller may hold on to; a
    reset must be visible through a held reference, not rebind it."""
    meter = TrafficMeter()
    up, down = meter.up, meter.down
    meter.record(0.0, Direction.UP, 10, 2, wasted=1)
    meter.record(0.0, Direction.DOWN, 3, 4, wasted=2)
    meter.reset()
    assert meter.up is up and meter.down is down
    assert up == down == TrafficTotals()


def test_snapshot_stays_a_replaceable_frozen_dataclass():
    """The recorder rebuilds snapshots with ``MeterSnapshot(**dict)`` and
    ``dataclasses.replace``; both, and immutability, must survive the
    positional construction inside the meter.  A record is a ``NamedTuple``
    row: ``_replace`` copies it and assigning a field raises
    ``AttributeError``, the base of ``FrozenInstanceError``."""
    meter = TrafficMeter()
    record = meter.record(0.0, Direction.UP, 10, 2, kind="k", wasted=1)
    snap = meter.snapshot()
    assert MeterSnapshot(**dataclasses.asdict(snap)) == snap
    assert dataclasses.replace(snap, up_wasted=0).up_wasted == 0
    assert record._replace(kind="other").total == 12
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap.up_payload = 0
    with pytest.raises(AttributeError):
        record.payload = 0


@pytest.mark.parametrize("field", ["payload", "overhead", "wasted"])
def test_a_non_integral_byte_count_is_refused_before_metering(field):
    """Regression: ``record(0.0, UP, 10.7)`` metered 10 bytes."""
    meter = TrafficMeter()
    counts = dict(payload=20, overhead=5, wasted=1)
    counts[field] = 10.7
    with pytest.raises(TypeError):
        meter.record(0.0, Direction.UP, **counts)
    assert meter.records == [] and meter.total_bytes == 0
    assert meter.wasted_bytes == 0


def test_numpy_integer_counts_meter_as_python_ints():
    meter = TrafficMeter()
    record = meter.record(0.0, Direction.DOWN, np.int64(10), np.uint16(2),
                          wasted=np.int32(1))
    assert record == (0.0, Direction.DOWN, 10, 2, "", 1)
    assert all(type(count) is int
               for count in (record.payload, record.overhead, record.wasted,
                             meter.down.payload, meter.down.overhead,
                             meter.down.wasted))


# -- the ledger against its own record list ---------------------------------

_FIELDS = ("payload", "overhead", "wasted")


def _sums(records):
    """Per-direction (payload, overhead, wasted) recomputed from records."""
    out = {Direction.UP: [0, 0, 0], Direction.DOWN: [0, 0, 0]}
    for record in records:
        for slot, name in enumerate(_FIELDS):
            out[record.direction][slot] += getattr(record, name)
    return out


def _snapshot_sums(snap):
    """The same shape read off a :class:`MeterSnapshot`."""
    return {Direction.UP: [snap.up_payload, snap.up_overhead, snap.up_wasted],
            Direction.DOWN: [snap.down_payload, snap.down_overhead,
                             snap.down_wasted]}


@st.composite
def _wire_events(draw):
    """One valid ``record()`` call, or ``None`` for "take a snapshot"."""
    if draw(st.integers(0, 4)) == 0:
        return None
    payload = draw(st.integers(0, 1 << 40))
    overhead = draw(st.integers(0, 1 << 20))
    return (draw(st.sampled_from(list(Direction))), payload, overhead,
            draw(st.sampled_from(["", "upload", "ack", "rejected"])),
            draw(st.integers(0, payload + overhead)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_wire_events(), max_size=40))
def test_totals_snapshots_and_deltas_equal_sums_over_records(events):
    meter = TrafficMeter()
    snapshots = []
    for time, event in enumerate(events):
        if event is None:
            snapshots.append((meter.snapshot(), len(meter.records)))
            continue
        direction, payload, overhead, kind, wasted = event
        meter.record(float(time), direction, payload, overhead, kind=kind,
                     wasted=wasted)

    expected = _sums(meter.records)
    for direction, totals in ((Direction.UP, meter.up),
                              (Direction.DOWN, meter.down)):
        assert [getattr(totals, name) for name in _FIELDS] \
            == expected[direction]
    assert meter.total_bytes == sum(r.total for r in meter.records)
    assert meter.wasted_bytes == sum(r.wasted for r in meter.records)
    assert meter.useful_bytes == meter.total_bytes - meter.wasted_bytes

    for snap, count in snapshots:
        assert snap.record_count == count
        assert _snapshot_sums(snap) == _sums(meter.records[:count])
        delta = meter.since(snap)
        later = meter.records_since(snap)
        assert later == tuple(meter.records[count:])
        assert delta.record_count == len(later)
        assert _snapshot_sums(delta) == _sums(later)

    kinds = meter.totals_by_kind()
    assert sum(t.payload for t in kinds.values()) == meter.payload_bytes
    assert sum(t.overhead for t in kinds.values()) == meter.overhead_bytes
    assert sum(t.wasted for t in kinds.values()) == meter.wasted_bytes

    with pytest.raises(ValueError):
        meter.record(0.0, Direction.DOWN, payload=-1)
    with pytest.raises(ValueError):
        meter.record(0.0, Direction.UP, payload=1, overhead=1, wasted=3)
    assert _sums(meter.records) == expected          # rejected: not metered

    meter.reset()
    assert meter.up == meter.down == TrafficTotals()
    assert meter.records == [] and meter.snapshot() == MeterSnapshot()
