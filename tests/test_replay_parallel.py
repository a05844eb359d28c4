"""Parallel sharded replay: byte-identity with the sequential estimator,
exact merge semantics, the two-phase CROSS_USER dedup protocol, and the
streaming shard generator."""

import json
import multiprocessing
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.client import AccessMethod, SERVICES, service_profile
from repro.cloud.dedup import DedupConfig, DedupGranularity, DedupScope
from repro.trace import (
    ReplayPool,
    ReplayReport,
    Trace,
    TraceRecord,
    generate_trace,
    iter_trace_shards,
    replay_trace,
)
from repro.trace.pool import _shard_by_user
from repro.trace.schema import UNIT_SIZE
from repro.units import KB


@pytest.fixture(scope="module")
def trace():
    return generate_trace(scale=0.02, seed=9)


def replay_trace_parallel(trace, profile, workers=None, seed=0):
    """One pool per call: fork, replay one profile, close.  Every parity
    assertion below runs through ReplayPool itself."""
    with ReplayPool(trace, workers=workers) as pool:
        return pool.replay(profile, seed=seed)


def canonical(report):
    """Byte-exact serialisation including per-user dict insertion order."""
    return json.dumps(asdict(report))


# ---------------------------------------------------------------------------
# byte-identity property: every profile × both scopes × worker counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_parallel_matches_sequential_byte_for_byte(trace, service, workers):
    profile = service_profile(service, AccessMethod.PC)
    sequential = replay_trace(trace, profile, seed=7)
    parallel = replay_trace_parallel(trace, profile, workers=workers, seed=7)
    assert canonical(parallel) == canonical(sequential)
    assert repr(parallel) == repr(sequential)


def test_parallel_respects_seed(trace):
    profile = service_profile("Dropbox", AccessMethod.PC)
    a = replay_trace_parallel(trace, profile, workers=4, seed=1)
    b = replay_trace_parallel(trace, profile, workers=4, seed=2)
    assert a.traffic_bytes != b.traffic_bytes


def test_parallel_empty_trace():
    profile = service_profile("Box", AccessMethod.PC)
    report = replay_trace_parallel(Trace(), profile, workers=4)
    assert report.file_count == 0
    assert report.traffic_bytes == 0


@pytest.mark.parametrize("users", [0, 2])
def test_pool_refuses_a_block_size_the_trace_cannot_express(users):
    """The pool raises the sequential path's error: in-process for an
    empty trace, from every worker (wrapped) for a trace with records."""
    profile = replace(service_profile("Dropbox", AccessMethod.PC),
                      dedup=DedupConfig.block(100 * KB))
    trace = Trace.from_records([
        _record(f"u{k}", k, [k + 1], UNIT_SIZE, float(k))
        for k in range(users)])
    message = "Dropbox/pc: dedup block size 102400 is not a multiple"
    with pytest.raises((ValueError, RuntimeError), match=message) as error:
        replay_trace_parallel(trace, profile, workers=2)
    assert error.type is (RuntimeError if users else ValueError)


def test_parallel_rejects_bad_worker_count(trace):
    profile = service_profile("Box", AccessMethod.PC)
    with pytest.raises(ValueError):
        replay_trace_parallel(trace, profile, workers=0)


def test_more_workers_than_users():
    """A tiny trace with a single user still replays at high worker counts."""
    trace = generate_trace(scale=0.001, seed=3)
    profile = service_profile("UbuntuOne", AccessMethod.PC)
    sequential = replay_trace(trace, profile, seed=0)
    parallel = replay_trace_parallel(trace, profile, workers=8, seed=0)
    assert canonical(parallel) == canonical(sequential)


# ---------------------------------------------------------------------------
# adversarial CROSS_USER two-phase protocol
# ---------------------------------------------------------------------------

def _record(user, index, segments, size, created_at):
    return TraceRecord(
        user=user, service="X", path=f"{user}/f{index:04d}.bin",
        size=size, compressed_size=size,
        created_at=created_at, modified_at=created_at, modify_count=0,
        segments=np.asarray(segments, dtype=np.int64), content_id=index,
    )


def _cross_user_duplicate_trace():
    """Duplicates interleaved so first occurrences alternate across users:

    every user shares content A and B with every other user, ordered so a
    per-user shard always sees some units first that another shard saw
    earlier — the worst case for first-occurrence resolution.
    """
    size = 3 * UNIT_SIZE + 5 * KB     # 3 full units + a short tail block
    a = [1, 2, 3, 4]
    b = [9, 2, 3, 4]                  # shares a suffix of A's units
    records = []
    index = 0
    for round_number in range(6):
        for user in ("u0", "u1", "u2", "u3"):
            content = a if (round_number + int(user[1])) % 2 == 0 else b
            records.append(_record(user, index, content, size,
                                   created_at=float(index)))
            index += 1
    return Trace.from_records(records)


@pytest.mark.parametrize("granularity", [DedupGranularity.FULL_FILE,
                                         DedupGranularity.BLOCK])
@pytest.mark.parametrize("workers", [2, 3, 4, 8])
def test_two_phase_cross_user_dedup_is_exact(granularity, workers):
    trace = _cross_user_duplicate_trace()
    base = service_profile("UbuntuOne", AccessMethod.PC)
    profile = replace(base, dedup=DedupConfig(
        granularity=granularity, scope=DedupScope.CROSS_USER,
        block_size=2 * UNIT_SIZE))
    sequential = replay_trace(trace, profile, seed=0)
    parallel = replay_trace_parallel(trace, profile, workers=workers, seed=0)
    assert canonical(parallel) == canonical(sequential)
    # Sanity: the trace genuinely exercises cross-user dedup.
    assert sequential.saved_by_dedup > 0


def test_same_user_scope_sees_no_cross_user_savings():
    """Control for the previous test: with SAME_USER scope each user pays
    for its own first copy, so dedup savings shrink — and parity holds."""
    trace = _cross_user_duplicate_trace()
    base = service_profile("UbuntuOne", AccessMethod.PC)
    cross = replace(base, dedup=DedupConfig(
        granularity=DedupGranularity.FULL_FILE, scope=DedupScope.CROSS_USER))
    same = replace(base, dedup=DedupConfig(
        granularity=DedupGranularity.FULL_FILE, scope=DedupScope.SAME_USER))
    cross_report = replay_trace(trace, cross, seed=0)
    same_report = replay_trace(trace, same, seed=0)
    assert cross_report.saved_by_dedup > same_report.saved_by_dedup
    for profile, sequential in ((cross, cross_report), (same, same_report)):
        parallel = replay_trace_parallel(trace, profile, workers=4, seed=0)
        assert canonical(parallel) == canonical(sequential)


# ---------------------------------------------------------------------------
# ReplayReport.merge
# ---------------------------------------------------------------------------

def test_merge_adds_counters_and_dicts():
    a = ReplayReport(service="X", access="pc", file_count=2,
                     traffic_bytes=100, data_update_bytes=50,
                     per_user_traffic={"u0": 60, "u1": 40},
                     per_user_modification_traffic={"u0": 10})
    b = ReplayReport(service="X", access="pc", file_count=3,
                     traffic_bytes=30, data_update_bytes=20,
                     per_user_traffic={"u1": 20, "u2": 10},
                     per_user_modification_traffic={"u2": 5})
    merged = ReplayReport.merge([a, b])
    assert merged.file_count == 5
    assert merged.traffic_bytes == 130
    assert merged.data_update_bytes == 70
    assert merged.per_user_traffic == {"u0": 60, "u1": 60, "u2": 10}
    assert merged.per_user_modification_traffic == {"u0": 10, "u2": 5}


def test_merge_rejects_empty_and_mixed_profiles():
    with pytest.raises(ValueError):
        ReplayReport.merge([])
    with pytest.raises(ValueError):
        ReplayReport.merge([ReplayReport(service="X", access="pc"),
                            ReplayReport(service="Y", access="pc")])


def test_merge_of_user_shards_equals_whole(trace):
    """For a user-disjoint partition without cross-shard dedup coupling,
    merging shard reports reproduces the whole-trace report exactly."""
    profile = service_profile("GoogleDrive", AccessMethod.PC)  # no dedup
    shards = _shard_by_user(trace, 4)
    assert len(shards) == 4
    from repro.trace.replay import _replay_records
    parts = [_replay_records(*shard, profile, seed=7) for shard in shards]
    merged = ReplayReport.merge(parts)
    whole = replay_trace(trace, profile, seed=7)
    assert merged.traffic_bytes == whole.traffic_bytes
    assert merged.data_update_bytes == whole.data_update_bytes
    assert merged.per_user_traffic == whole.per_user_traffic


def test_shard_by_user_is_a_partition(trace):
    shards = _shard_by_user(trace, 5)
    users_per_shard = [set(record.user for record in part)
                       for part, _ in shards]
    for i, left in enumerate(users_per_shard):
        for right in users_per_shard[i + 1:]:
            assert not (left & right)
    total = sum(len(part) for part, _ in shards)
    assert total == len(trace)
    indices = sorted(index for _, ids in shards for index in ids.tolist())
    assert indices == list(range(len(trace)))
    # Each shard is gathered once: its rows are the trace's at its indices.
    rows = list(trace)
    for part, ids in shards:
        assert [record.path for record in part] \
            == [rows[index].path for index in ids.tolist()]
        assert all(np.array_equal(record.segments, rows[index].segments)
                   for record, index in zip(part, ids.tolist()))


# ---------------------------------------------------------------------------
# streaming shard generation
# ---------------------------------------------------------------------------

def _record_key(record):
    return record.path


def _records_equal(a, b):
    return (a.user == b.user and a.service == b.service
            and a.size == b.size and a.compressed_size == b.compressed_size
            and a.created_at == b.created_at and a.modified_at == b.modified_at
            and a.modify_count == b.modify_count
            and a.content_id == b.content_id
            and np.array_equal(a.segments, b.segments))


@pytest.mark.parametrize("shard_users", [1, 3, 8])
def test_iter_trace_shards_matches_generate_trace(shard_users):
    whole = generate_trace(scale=0.015, seed=21)
    shards = list(iter_trace_shards(scale=0.015, seed=21,
                                    shard_users=shard_users))
    merged = [record for shard in shards for record in shard]
    assert len(merged) == len(whole)
    for a, b in zip(sorted(whole, key=_record_key),
                    sorted(merged, key=_record_key)):
        assert _records_equal(a, b), a.path


def test_iter_trace_shards_user_groups_are_disjoint():
    shards = list(iter_trace_shards(scale=0.015, seed=21, shard_users=4))
    seen = set()
    for shard in shards:
        users = set(record.user for record in shard)
        assert len(users) <= 4
        assert not (users & seen)
        seen |= users
        services = set(record.service for record in shard)
        assert len(services) == 1  # groups never straddle services


def test_iter_trace_shards_rejects_bad_group_size():
    with pytest.raises(ValueError):
        next(iter_trace_shards(scale=0.01, seed=1, shard_users=0))


def test_sharded_generation_feeds_parallel_replay():
    """End-to-end at-scale workflow: generate shard-by-shard, replay the
    concatenation in parallel, match the monolithic sequential result."""
    whole = generate_trace(scale=0.015, seed=33)
    assembled = Trace.concat(list(iter_trace_shards(
        scale=0.015, seed=33, shard_users=6)))
    profile = service_profile("UbuntuOne", AccessMethod.PC)
    a = replay_trace(whole, profile, seed=0)
    b = replay_trace_parallel(assembled, profile, workers=4, seed=0)
    # Parallel parity holds on the shard-assembled ordering too.
    assert canonical(b) == canonical(replay_trace(assembled, profile, seed=0))
    # Full-file dedup totals are order-invariant (every duplicate is an
    # exact copy, so *which* occurrence ships doesn't change the sum) even
    # though per-record modification draws are index-keyed.
    assert b.file_count == a.file_count
    assert b.saved_by_dedup == a.saved_by_dedup


# ---------------------------------------------------------------------------
# persistent ReplayPool: reuse, reentrancy, streaming construction
# ---------------------------------------------------------------------------

def test_replay_pool_is_reused_across_profiles(trace):
    """One fork, many profiles — the replay_all shape.  Every profile's
    result through the shared pool must match its own sequential run."""
    from repro.trace import ReplayPool
    with ReplayPool(trace, workers=4) as pool:
        assert pool.record_count == len(trace)
        for service in SERVICES:
            profile = service_profile(service, AccessMethod.PC)
            assert canonical(pool.replay(profile, seed=7)) \
                == canonical(replay_trace(trace, profile, seed=7))


def test_replay_all_pool_reuse_matches_sequential(trace):
    from repro.trace import replay_all
    parallel = replay_all(trace, seed=7, workers=4)
    sequential = replay_all(trace, seed=7, workers=1)
    assert [canonical(r) for r in parallel] \
        == [canonical(r) for r in sequential]


def test_replay_all_accepts_external_pool(trace):
    from repro.trace import ReplayPool, replay_all
    with ReplayPool(trace, workers=2) as pool:
        via_pool = replay_all(seed=7, pool=pool)
        # The caller keeps ownership: the pool must still be usable.
        profile = service_profile("Dropbox", AccessMethod.PC)
        assert canonical(pool.replay(profile, seed=7)) \
            == canonical(replay_trace(trace, profile, seed=7))
    assert [canonical(r) for r in via_pool] \
        == [canonical(r) for r in replay_all(trace, seed=7, workers=1)]


def test_closed_pool_refuses_to_replay(trace):
    from repro.trace import ReplayPool
    pool = ReplayPool(trace, workers=2)
    pool.close()
    pool.close()      # idempotent
    with pytest.raises(RuntimeError):
        pool.replay(service_profile("Dropbox", AccessMethod.PC))


def test_two_pools_coexist_without_clobbering(trace):
    """Regression for the _FORK_STATE module global: two live pools used
    to share (and clobber) one fork-state slot.  Interleaved replays
    through two pools must both stay byte-identical to sequential."""
    from repro.trace import ReplayPool
    cross = service_profile("UbuntuOne", AccessMethod.PC)
    plain = service_profile("Dropbox", AccessMethod.PC)
    with ReplayPool(trace, workers=2) as a, ReplayPool(trace, workers=4) as b:
        for _ in range(2):
            assert canonical(a.replay(cross, seed=3)) \
                == canonical(replay_trace(trace, cross, seed=3))
            assert canonical(b.replay(plain, seed=3)) \
                == canonical(replay_trace(trace, plain, seed=3))
            assert canonical(b.replay(cross, seed=3)) \
                == canonical(replay_trace(trace, cross, seed=3))


def test_parallel_replay_is_reentrant_across_threads(trace):
    """Concurrent replay_trace_parallel calls from different threads (each
    forking its own one-shot pool) must not interfere — the second
    _FORK_STATE regression shape."""
    from concurrent.futures import ThreadPoolExecutor
    profiles = [service_profile("UbuntuOne", AccessMethod.PC),
                service_profile("Dropbox", AccessMethod.PC)]
    expected = {p.name: canonical(replay_trace(trace, p, seed=5))
                for p in profiles}
    jobs = profiles * 3
    with ThreadPoolExecutor(max_workers=4) as executor:
        results = list(executor.map(
            lambda p: (p.name,
                       canonical(replay_trace_parallel(trace, p, workers=2,
                                                       seed=5))),
            jobs))
    assert len(results) == len(jobs)
    for name, result in results:
        assert result == expected[name]


def test_from_records_streams_byte_identical(trace):
    """ReplayPool.from_records over a record stream equals replay of the
    materialised trace: the parent never needs the full record list."""
    from repro.trace import ReplayPool
    for workers in (1, 3):
        with ReplayPool.from_records(iter(trace),
                                     workers=workers) as pool:
            assert pool.record_count == len(trace)
            for service in ("UbuntuOne", "GoogleDrive"):
                profile = service_profile(service, AccessMethod.PC)
                assert canonical(pool.replay(profile, seed=7)) \
                    == canonical(replay_trace(trace, profile, seed=7))


@pytest.mark.parametrize("workers", [1, 2])
def test_from_records_refuses_a_malformed_record_by_its_stream_index(workers):
    """The feed batches are columnar traces, so they pass the trace's
    check: a malformed record is named by its index in the stream, not in
    its batch, and the pool is closed."""
    records = [_record(f"u{k % 2}", k, [k + 1], UNIT_SIZE, float(k))
               for k in range(6)]
    records[3] = replace(records[3], modify_count=-1)
    before = set(multiprocessing.active_children())
    with pytest.raises(ValueError, match=r"^trace record 3 \('u1/f0003.bin'"
                       r"\): modify_count must be non-negative"):
        ReplayPool.from_records(iter(records), workers=workers)
    assert set(multiprocessing.active_children()) <= before


def test_from_records_generator_stream_parity():
    """End-to-end streaming: iter_trace_records feeds the pool directly
    and matches the materialised generate_trace replay byte for byte."""
    from repro.trace import ReplayPool, iter_trace_records
    whole = generate_trace(scale=0.01, seed=11)
    profile = service_profile("UbuntuOne", AccessMethod.PC)
    with ReplayPool.from_records(iter_trace_records(scale=0.01, seed=11),
                                 workers=4) as pool:
        assert canonical(pool.replay(profile, seed=2)) \
            == canonical(replay_trace(whole, profile, seed=2))


def test_from_shards_matches_assembled_order():
    """A shard stream (iter_trace_shards) flattened into from_records: the
    replay's sequential reference is the concatenated shard ordering."""
    assembled = Trace.concat(list(iter_trace_shards(
        scale=0.01, seed=11, shard_users=3)))
    profile = service_profile("UbuntuOne", AccessMethod.PC)
    flattened = (record
                 for shard in iter_trace_shards(scale=0.01, seed=11,
                                                shard_users=3)
                 for record in shard)
    with ReplayPool.from_records(flattened, workers=4) as pool:
        assert canonical(pool.replay(profile, seed=2)) \
            == canonical(replay_trace(assembled, profile, seed=2))


# ---------------------------------------------------------------------------
# integer-exact dedup accounting (the >2**53 regression)
# ---------------------------------------------------------------------------

def test_dedup_accounting_is_integer_exact_above_2_53():
    """Partial block dedup on a file whose wire exceeds 2**53: the ledger
    must hold the exact integer quotient, not a float-rounded one.

    The retired expression ``int(wire * shipped / total_len)`` computed
    the quotient as a float, which above 2**53 cannot represent every
    integer — this pins the exact value and proves the float form would
    have differed (i.e. the test actually guards the regression).
    """
    from repro.trace.replay import _LEVEL_SAVING_FRACTION, _wire_payload
    size = (1 << 54) + 12_345     # wire > 2**53 by construction
    base = service_profile("UbuntuOne", AccessMethod.PC)
    profile = replace(base, dedup=DedupConfig(
        granularity=DedupGranularity.BLOCK, scope=DedupScope.CROSS_USER,
        block_size=UNIT_SIZE))
    # u0 ships blocks {1,2,3}; u1's first aligned block duplicates u0's,
    # so u1 ships 2 of its 3 equal-length blocks.
    trace = Trace.from_records([
        _record("u0", 0, [1, 2, 3], size, created_at=0.0),
        _record("u1", 1, [1, 4, 5], size, created_at=1.0),
    ])
    wire = _wire_payload(
        size, size, _LEVEL_SAVING_FRACTION[profile.upload_compression.level],
        profile.overhead.per_byte_factor)
    assert wire > 2 ** 53
    shipped, total_len = 2 * UNIT_SIZE, 3 * UNIT_SIZE
    expected_saved = wire - wire * shipped // total_len
    # The float quotient is already wrong at this magnitude — the exact
    # check below would not have held under the old expression.
    assert int(wire * shipped / total_len) != wire * shipped // total_len
    sequential = replay_trace(trace, profile, seed=0)
    assert sequential.saved_by_dedup == expected_saved
    # Phase 2 settles u1's lost block with the same integer expression.
    for workers in (1, 2):
        parallel = replay_trace_parallel(trace, profile, workers=workers,
                                         seed=0)
        assert canonical(parallel) == canonical(sequential)


def test_zero_size_records_under_cross_user_dedup_parallel():
    """Size-0 records have no dedup units (total_len == 0): the explicit
    empty-units branch ships the wire unchanged, emits no candidates, and
    the parallel protocol agrees at every worker count."""
    base = service_profile("UbuntuOne", AccessMethod.PC)
    for granularity in (DedupGranularity.FULL_FILE, DedupGranularity.BLOCK):
        profile = replace(base, dedup=DedupConfig(
            granularity=granularity, scope=DedupScope.CROSS_USER,
            block_size=UNIT_SIZE))
        trace = Trace.from_records([
            _record("u0", 0, [], 0, created_at=0.0),
            _record("u1", 1, [], 0, created_at=1.0),   # identical empty key
            _record("u0", 2, [7, 8], 2 * UNIT_SIZE, created_at=2.0),
            _record("u1", 3, [7, 8], 2 * UNIT_SIZE, created_at=3.0),
        ])
        sequential = replay_trace(trace, profile, seed=0)
        # Zero-size records save nothing; the real duplicate still does.
        assert sequential.saved_by_dedup > 0
        assert sequential.traffic_bytes > 0
        for workers in (2, 4):
            parallel = replay_trace_parallel(trace, profile,
                                             workers=workers, seed=0)
            assert canonical(parallel) == canonical(sequential)


# ---------------------------------------------------------------------------
# shard assignment determinism
# ---------------------------------------------------------------------------

def test_shard_by_user_ties_by_first_appearance():
    """Equal-count users must be placed in first-appearance order (the
    documented tie-break), so shard contents are a pure function of the
    trace and the shard count."""
    records = []
    index = 0
    for user in ("alice", "bob", "carol"):
        for _ in range(2):
            records.append(_record(user, index, [index], UNIT_SIZE,
                                   created_at=float(index)))
            index += 1
    shards = _shard_by_user(Trace.from_records(records), 2)
    # Greedy heaviest-first with a stable sort: alice -> shard 0,
    # bob -> shard 1, carol ties at load 2/2 -> lowest index, shard 0.
    assert [sorted({r.user for r in part}) for part, _ in shards] \
        == [["alice", "carol"], ["bob"]]


# ---------------------------------------------------------------------------
# phase-2 short-circuit and the winner table on the settle message
# ---------------------------------------------------------------------------

def _single_shard_unit_trace():
    """Plenty of dedup, zero contention: every duplicate is within one
    user, so no unit has candidates in more than one shard and phase 2
    must short-circuit entirely."""
    records = []
    index = 0
    for user in ("u0", "u1", "u2"):
        base_id = 100 * (int(user[1]) + 1)
        for _ in range(4):
            records.append(_record(user, index, [base_id, base_id + 1],
                                   2 * UNIT_SIZE, created_at=float(index)))
            index += 1
    return Trace.from_records(records)


def test_phase2_short_circuit_parity_across_cross_user_profiles():
    from repro.client import all_profiles
    trace = _single_shard_unit_trace()
    cross_profiles = [
        profile
        for access in (AccessMethod.PC, AccessMethod.MOBILE)
        for profile in all_profiles(access)
        if profile.dedup.enabled
        and profile.dedup.scope is DedupScope.CROSS_USER]
    assert cross_profiles, "registry lost its CROSS_USER profiles"
    for profile in cross_profiles:
        sequential = replay_trace(trace, profile, seed=0)
        assert sequential.saved_by_dedup > 0   # dedup genuinely fired
        for workers in (2, 3, 8):
            parallel = replay_trace_parallel(trace, profile,
                                             workers=workers, seed=0)
            assert canonical(parallel) == canonical(sequential), \
                (profile.name, workers)


def test_contested_winners_skips_single_shard_units():
    from repro.trace.pool import _contested_winners
    from repro.trace.replay import _unit_digest
    from array import array
    d = [_unit_digest(bytes([n]) * 4) for n in range(4)]

    def summary(pairs):
        return (b"".join(digest for digest, _ in pairs),
                array("q", [idx for _, idx in pairs]).tobytes())

    # Disjoint digests across shards: nothing contested, nobody settles.
    winners, losers = _contested_winners(
        [summary([(d[0], 0)]), summary([(d[1], 5)]), None])
    assert winners == {} and losers == []
    # d[2] contested across shards 0 and 2: smallest index wins, only the
    # losing shard is listed.
    winners, losers = _contested_winners(
        [summary([(d[2], 3), (d[0], 0)]), None, summary([(d[2], 9)])])
    assert winners == {d[2]: 3}
    assert losers == [2]


def test_winner_table_round_trips_on_the_settle_message():
    """The contested-winner table rides ``("settle", digests, indices)``
    through the worker pipe (which pickles): empty, one entry, and the
    full-trace 4-worker size."""
    import pickle
    from repro.trace.pool import _pack_winner_table, _unpack_winner_table
    from repro.trace.replay import _unit_digest
    for entries in (0, 1, 30_219):
        winners = {_unit_digest(n.to_bytes(8, "little")): n * 17
                   for n in range(entries)}
        message = pickle.loads(pickle.dumps(
            ("settle", *_pack_winner_table(winners))))
        assert message[0] == "settle"
        assert _unpack_winner_table(*message[1:]) == winners


def test_settle_credits_conserve_bytes_under_audit():
    """replay_audited proves the two-phase settlement conserves bytes:
    traffic lost == dedup saving gained, user by user."""
    from repro.trace import ReplayPool
    trace = _cross_user_duplicate_trace()
    base = service_profile("UbuntuOne", AccessMethod.PC)
    profile = replace(base, dedup=DedupConfig(
        granularity=DedupGranularity.BLOCK, scope=DedupScope.CROSS_USER,
        block_size=2 * UNIT_SIZE))
    with ReplayPool(trace, workers=4) as pool:
        report = pool.replay_audited(profile, seed=0)
    assert canonical(report) == canonical(replay_trace(trace, profile,
                                                       seed=0))


# ---------------------------------------------------------------------------
# module boundary: the estimator imports no process machinery
# ---------------------------------------------------------------------------

def test_estimator_module_imports_no_process_machinery():
    """repro/trace/replay.py is the paper's estimator alone: no
    multiprocessing, no threading, and never the pool (the pool imports
    the estimator — one direction)."""
    import ast
    import repro.trace.replay as estimator
    with open(estimator.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    parts = {part for name in names for part in name.split(".")}
    assert "hashlib" in parts           # the walk does see imports
    assert not parts & {"multiprocessing", "threading", "pool"}


# ---------------------------------------------------------------------------
# a dead worker is a structured error and a closed pool
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker processes need the fork start method")


def _assert_pool_died_naming_shard_one(pool, children, error):
    message = str(error.value)
    assert "shard 1" in message and f"pid {children[1].pid}" in message
    assert "signal 9" in message
    assert pool.worker_count == 0
    assert not set(children) & set(multiprocessing.active_children())
    assert not any(child.is_alive() for child in children)
    with pytest.raises(RuntimeError, match="replay pool is closed"):
        pool.replay(service_profile("Dropbox", AccessMethod.PC))


@needs_fork
def test_worker_killed_between_calls_is_a_structured_error(trace):
    import os
    import signal
    profile = service_profile("UbuntuOne", AccessMethod.PC)
    pool = ReplayPool(trace, workers=2)
    children = list(pool._processes)
    assert canonical(pool.replay(profile, seed=7)) \
        == canonical(replay_trace(trace, profile, seed=7))
    os.kill(children[1].pid, signal.SIGKILL)
    children[1].join(timeout=10)
    with pytest.raises(RuntimeError) as error:
        pool.replay(profile, seed=7)
    _assert_pool_died_naming_shard_one(pool, children, error)


@needs_fork
def test_worker_killed_mid_replay_is_a_structured_error():
    """Shard 1 is one record with millions of modifications — seconds of
    draws — so the kill lands while the parent is blocked on its reply."""
    import os
    import signal
    import threading
    records = [_record("small", 0, [1], UNIT_SIZE, created_at=0.0),
               replace(_record("large", 1, [2], UNIT_SIZE, created_at=1.0),
                       modify_count=5_000_000)]
    pool = ReplayPool(Trace.from_records(records), workers=2)
    children = list(pool._processes)
    assert len(children) == 2
    killer = threading.Timer(0.2, os.kill,
                             (children[1].pid, signal.SIGKILL))
    killer.start()
    try:
        with pytest.raises(RuntimeError) as error:
            pool.replay(service_profile("Dropbox", AccessMethod.PC))
    finally:
        killer.join(timeout=10)
    _assert_pool_died_naming_shard_one(pool, children, error)
