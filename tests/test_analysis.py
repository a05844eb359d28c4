"""Tests for the capture-analysis helpers (simnet.analysis) and the §4.1
creation-batch rule of the trace analysis (trace.analysis)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simnet import (
    Direction,
    TrafficMeter,
    kind_breakdown,
    peak_throughput,
    sync_event_sizes,
    throughput_series,
)
from repro.trace import Trace, TraceRecord
from repro.trace.analysis import (
    BDS_BATCH_WINDOW,
    SMALL_FILE_THRESHOLD,
    creation_batch_flags,
)

from .reference_replay import reference_creation_batch_flags


def meter_with(records):
    meter = TrafficMeter()
    for time, direction, payload, overhead, kind in records:
        meter.record(time, direction, payload, overhead, kind)
    return meter


def test_kind_breakdown_groups_and_sorts():
    meter = meter_with([
        (0.0, Direction.UP, 100, 10, "upload"),
        (1.0, Direction.UP, 200, 20, "upload"),
        (1.0, Direction.DOWN, 0, 50, "notify"),
    ])
    rows = kind_breakdown(meter)
    assert [row.kind for row in rows] == ["upload", "notify"]
    assert rows[0].total == 330
    assert rows[0].events == 2
    assert rows[1].overhead_fraction == 1.0


def test_throughput_series_buckets_with_zeros():
    meter = meter_with([
        (0.2, Direction.UP, 1000, 0, "x"),
        (3.7, Direction.UP, 500, 0, "x"),
    ])
    series = throughput_series(meter, bucket=1.0)
    assert series == [(0.0, 1000), (1.0, 0), (2.0, 0), (3.0, 500)]


def test_throughput_series_direction_filter():
    meter = meter_with([
        (0.0, Direction.UP, 100, 0, "x"),
        (0.0, Direction.DOWN, 900, 0, "x"),
    ])
    up = throughput_series(meter, direction=Direction.UP)
    assert up == [(0.0, 100)]


def test_throughput_series_validation():
    with pytest.raises(ValueError):
        throughput_series(TrafficMeter(), bucket=0)
    assert throughput_series(TrafficMeter()) == []


def test_sync_event_sizes_splits_on_gaps():
    meter = meter_with([
        (0.0, Direction.UP, 100, 0, "a"),
        (0.1, Direction.DOWN, 50, 0, "a"),
        (5.0, Direction.UP, 300, 0, "b"),
    ])
    assert sync_event_sizes(meter, gap=1.0) == [150, 300]


def test_peak_throughput():
    meter = meter_with([
        (0.0, Direction.UP, 1_000, 0, "x"),
        (1.0, Direction.UP, 9_000, 0, "x"),
    ])
    assert peak_throughput(meter, bucket=1.0) == 9_000.0
    assert peak_throughput(TrafficMeter()) == 0.0


def test_analysis_on_real_session():
    """The probes the paper runs on captures work on simulated sessions."""
    from repro.client import AccessMethod, SyncSession
    from repro.content import random_content
    session = SyncSession("Dropbox", AccessMethod.PC)
    session.create_file("f.bin", random_content(256 * 1024, seed=1))
    session.run_until_idle()
    kinds = {row.kind for row in kind_breakdown(session.meter)}
    assert "handshake" in kinds
    assert "upload" in kinds or "bundle-commit" in kinds
    events = sync_event_sizes(session.meter)
    assert sum(events) == session.total_traffic


# ---------------------------------------------------------------------------
# §4.1: the lexsort batch rule against the per-group loop it replaced
# ---------------------------------------------------------------------------

def created(user, service, size, at):
    return TraceRecord(user=user, service=service, path=f"{user}/{at}",
                      size=size, compressed_size=size, created_at=at,
                      modified_at=at, modify_count=0,
                      segments=np.zeros(0, dtype=np.int64))


SMALL = SMALL_FILE_THRESHOLD - 1
moments = st.one_of(
    st.integers(0, 12).map(float),                     # ties
    st.integers(0, 6).map(lambda k: 100.0 + k * BDS_BATCH_WINDOW),
    st.floats(0.0, 1e9))
batch_records = st.lists(st.builds(
    created, st.sampled_from(["a", "b"]), st.sampled_from(["S", "T"]),
    st.sampled_from([0, SMALL, SMALL_FILE_THRESHOLD,
                     SMALL_FILE_THRESHOLD + 1]), moments), max_size=30)


@given(records=batch_records,
       window=st.sampled_from([BDS_BATCH_WINDOW, 0.0, 0.5]))
@example(records=[], window=BDS_BATCH_WINDOW)
@example(records=[created("a", "S", SMALL, 3.0)] * 3
         + [created("b", "S", SMALL, 3.0)], window=BDS_BATCH_WINDOW)
@example(records=[created("a", "S", SMALL, 100.0 + BDS_BATCH_WINDOW),
                  created("a", "S", SMALL, 100.0),
                  created("a", "S", SMALL, 100.0 + 3 * BDS_BATCH_WINDOW)],
         window=BDS_BATCH_WINDOW)
@example(records=[created("a", "S", size, 0.0)
                  for size in (SMALL, SMALL_FILE_THRESHOLD,
                               SMALL_FILE_THRESHOLD + 1, SMALL)],
         window=BDS_BATCH_WINDOW)
@example(records=[created("a", "S", SMALL, 0.0), created("a", "T", SMALL, 1.0),
                  created("b", "S", SMALL, 2.0), created("a", "T", SMALL, 9.0),
                  created("a", "S", SMALL, 4.0)], window=BDS_BATCH_WINDOW)
@settings(max_examples=200, deadline=None)
def test_creation_batch_flags_equal_the_loop(records, window):
    flags = creation_batch_flags(Trace.from_records(records), window=window)
    assert flags.dtype == bool
    assert flags.tolist() == reference_creation_batch_flags(records,
                                                            window=window)
