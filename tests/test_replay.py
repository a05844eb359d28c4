"""Tests for the macro trace replay, including validation against the
micro (packet-level) engine on a small trace."""

import random

import numpy as np
import pytest

from repro.client import SERVICES, AccessMethod, SyncSession, service_profile
from repro.content import Content, random_content
from repro.trace import (Trace, TraceRecord, generate_trace, replay_all,
                         replay_trace)
from repro.trace.schema import UNIT_SIZE
from repro.units import KB, MB


@pytest.fixture(scope="module")
def trace():
    return generate_trace(scale=0.02, seed=9)


def test_replay_totals_positive_and_consistent(trace):
    report = replay_trace(trace, service_profile("Dropbox", AccessMethod.PC))
    assert report.file_count == len(trace)
    assert report.traffic_bytes > 0
    assert report.overhead_bytes < report.traffic_bytes
    assert report.upload_events >= report.file_count


def test_replay_is_deterministic(trace):
    a = replay_trace(trace, service_profile("Box", AccessMethod.PC), seed=3)
    b = replay_trace(trace, service_profile("Box", AccessMethod.PC), seed=3)
    assert a.traffic_bytes == b.traffic_bytes


def test_every_profile_prices_the_same_modifications(trace):
    """The modification draws belong to the trace, not the service: every
    profile sees the same altered bytes, user by user, so a comparison of
    services is paired."""
    reports = [replay_trace(trace, service_profile(service, access), seed=4)
               for service in SERVICES for access in AccessMethod]
    assert len(reports) == 18
    assert len({report.data_update_bytes for report in reports}) == 1
    updates = reports[0].per_user_modification_update
    assert updates and sum(updates.values()) > 0
    assert all(report.per_user_modification_update == updates
               for report in reports)


def test_mechanism_attribution_matches_design_choices(trace):
    reports = {r.service: r for r in replay_all(trace)}
    # Services without a mechanism save nothing through it.
    for service in ("GoogleDrive", "OneDrive", "Box"):
        report = reports[service]
        assert report.saved_by_compression == 0
        assert report.saved_by_dedup == 0
        assert report.saved_by_bds == 0
        assert report.saved_by_ids == 0
    assert reports["Dropbox"].saved_by_compression > 0
    assert reports["Dropbox"].saved_by_dedup > 0
    assert reports["Dropbox"].saved_by_bds > 0
    assert reports["Dropbox"].saved_by_ids > 0
    assert reports["SugarSync"].saved_by_ids > 0
    assert reports["SugarSync"].saved_by_compression == 0
    assert reports["UbuntuOne"].saved_by_dedup > 0
    assert reports["UbuntuOne"].saved_by_ids == 0


def test_ids_services_win_the_trace(trace):
    """Modifications dominate trace traffic (84 % of files are modified),
    so the incremental-sync services must come out cheapest."""
    ordering = [r.service for r in replay_all(trace)]
    assert set(ordering[:2]) == {"Dropbox", "SugarSync"}


def test_replay_agrees_with_micro_engine_on_small_trace():
    """Cross-validation: build a tiny trace, replay it analytically, and
    run the identical workload through the packet-level engine; totals
    must agree within 40 % and orderings must match."""
    # b.bin DEFLATEs to about half: a random head and a zero filler.
    head = int(128 * KB * 0.49)
    head_seed = random.Random(f"mix:2:{128 * KB}").randrange(1 << 30)
    files = [
        ("a.bin", random_content(64 * KB, seed=1)),
        ("b.bin", Content(random_content(head, seed=head_seed).data
                          + bytes(128 * KB - head))),
        ("c.bin", random_content(16 * KB, seed=3)),
    ]

    from repro.compress import HIGH_COMPRESSION
    records = []
    for index, (path, content) in enumerate(files):
        units = max(1, -(-content.size // UNIT_SIZE))
        records.append(TraceRecord(
            user="u", service="X", path=path, size=content.size,
            compressed_size=HIGH_COMPRESSION.wire_size(content),
            created_at=index * 100.0, modified_at=index * 100.0,
            modify_count=0,
            segments=np.arange(index * 100, index * 100 + units,
                               dtype=np.int64),
            content_id=index,
        ))
    tiny = Trace.from_records(records)

    for service in ("GoogleDrive", "Box"):
        profile = service_profile(service, AccessMethod.PC)
        estimate = replay_trace(tiny, profile)

        session = SyncSession(profile)
        for index, (path, content) in enumerate(files):
            session.create_file(path, content)
            session.run_until_idle()
        measured = session.total_traffic

        assert estimate.traffic_bytes == pytest.approx(measured, rel=0.4), \
            service


def test_empty_trace():
    report = replay_trace(Trace(), service_profile("Box", AccessMethod.PC))
    assert report.traffic_bytes == 0
    assert report.file_count == 0


def _zero_size_record(user, index, segment_base=None):
    base = index * 10 if segment_base is None else segment_base
    return TraceRecord(
        user=user, service="X", path=f"{user}/empty{index}.txt",
        size=0, compressed_size=0, created_at=float(index * 1000),
        modified_at=float(index * 1000), modify_count=0,
        segments=np.arange(base, base + 1, dtype=np.int64),
        content_id=index,
    )


@pytest.mark.parametrize("service", ["Dropbox", "UbuntuOne"])
def test_zero_size_files_under_both_dedup_granularities(service):
    """Zero-byte files take the explicit empty-units branch (total_len ==
    0, formerly a silent `or 1` guard): no division by zero, no wire
    bytes, and — crucially — no phantom dedup savings (Dropbox is
    block-granularity, UbuntuOne full-file, so both code paths run).
    Records 0 and 1 share content identity, so the duplicate-hit path runs
    too — a duplicate of nothing must still save nothing."""
    trace = Trace.from_records([_zero_size_record("u", 0, segment_base=0),
                           _zero_size_record("u", 1, segment_base=0),
                           _zero_size_record("v", 2)])
    profile = service_profile(service, AccessMethod.PC)
    assert profile.dedup.enabled
    report = replay_trace(trace, profile)
    assert report.file_count == 3
    assert report.saved_by_dedup == 0
    assert report.saved_by_compression == 0
    # Traffic is pure per-sync overhead; every upload still happened.
    assert report.traffic_bytes == report.overhead_bytes > 0
    assert report.upload_events == 3


def _small_record(user, index, created_at, size=4 * KB):
    return TraceRecord(
        user=user, service="X", path=f"{user}/f{index}.txt",
        size=size, compressed_size=size // 2, created_at=created_at,
        modified_at=created_at, modify_count=0,
        segments=np.arange(index, index + 1, dtype=np.int64),
        content_id=index)


def test_single_record_trace_is_never_batchable():
    """With one record there is no creation neighbour, so the BDS batch
    rule must flag nothing and the file pays the full fixed overhead."""
    from repro.trace.analysis import creation_batch_flags
    from repro.trace.replay import _fixed_overhead
    record = _small_record("solo", 0, 100.0)
    assert creation_batch_flags(Trace.from_records([record])).tolist() \
        == [False]
    assert creation_batch_flags(Trace()).tolist() == []

    profile = service_profile("Dropbox", AccessMethod.PC)  # BDS: FULL
    report = replay_trace(Trace.from_records([record]), profile)
    assert report.saved_by_bds == 0
    assert report.overhead_bytes == _fixed_overhead(profile)


def test_duplicate_creation_times_batch_with_each_other():
    """Two small files of one user created at the very same instant are
    each other's neighbour (distance 0).  A third far away is not, nor is
    another user's file at that instant, nor a large file of the same
    user — and flags come back in record order, not time order.  The
    analysis statistic and the replay's BDS saving read the same flags."""
    from repro.trace.analysis import (
        BDS_BATCH_WINDOW,
        SMALL_FILE_THRESHOLD,
        batchable_small_fraction,
        creation_batch_flags,
    )
    from repro.trace.replay import _fixed_overhead
    far = 100.0 + 10 * BDS_BATCH_WINDOW
    records = [_small_record("a", 0, far), _small_record("a", 1, 100.0),
               _small_record("b", 2, 100.0), _small_record("a", 3, 100.0),
               _small_record("a", 4, 100.0, size=SMALL_FILE_THRESHOLD)]
    assert creation_batch_flags(Trace.from_records(records)).tolist() \
        == [False, True, False, True, False]
    edge = [_small_record("a", 0, 100.0 + BDS_BATCH_WINDOW),
            _small_record("a", 1, 100.0)]
    assert creation_batch_flags(Trace.from_records(edge)).tolist() \
        == [True, True]

    trace = Trace.from_records(records)
    assert batchable_small_fraction(trace) == 2 / 4
    profile = service_profile("Dropbox", AccessMethod.PC)  # BDS: FULL
    fixed = _fixed_overhead(profile)
    report = replay_trace(trace, profile)
    assert report.saved_by_bds == 2 * (fixed - profile.bds.per_file_bytes) > 0
    assert report.overhead_bytes == 3 * fixed + 2 * profile.bds.per_file_bytes


@pytest.mark.parametrize("seed", [0, 1])
def test_level_saving_fractions_match_the_compress_module(seed):
    """The estimator's per-level saving fractions are fitted to
    ``repro.compress`` on Experiment 4's text corpus: each level's saving
    relative to HIGH's, ``(1 - r_level) / (1 - r_HIGH)``.  A change to the
    compression policy must fail here rather than drift every replay."""
    from repro.compress import (
        HIGH_COMPRESSION,
        LOW_COMPRESSION,
        MODERATE_COMPRESSION,
        CompressionLevel,
    )
    from repro.content import text_content
    from repro.trace.replay import _LEVEL_SAVING_FRACTION
    content = text_content(1 * MB, seed=seed)
    high_saving = 1 - HIGH_COMPRESSION.ratio(content)
    for policy in (LOW_COMPRESSION, MODERATE_COMPRESSION, HIGH_COMPRESSION):
        measured = (1 - policy.ratio(content)) / high_saving
        assert measured == pytest.approx(
            _LEVEL_SAVING_FRACTION[policy.level], abs=0.01), policy.level
    assert _LEVEL_SAVING_FRACTION[CompressionLevel.NONE] == 0.0
