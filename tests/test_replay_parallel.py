"""Parallel replay over profiles: byte-identity with the sequential
estimator at any worker count, results in input order, a dead worker as
a structured error, and the streaming shard generator."""

import itertools
import json
import multiprocessing
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.client import AccessMethod, SERVICES, service_profile
from repro.cloud.dedup import DedupConfig, DedupGranularity, DedupScope
from repro.trace import (
    ReplayPool,
    Trace,
    TraceRecord,
    generate_trace,
    iter_trace_shards,
    replay_trace,
)
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
# byte-identity property: every service × worker counts
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
    empty trace, from the worker (wrapped) for a trace with records."""
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
    """A tiny trace with few users still replays at high worker counts."""
    trace = generate_trace(scale=0.001, seed=3)
    profile = service_profile("UbuntuOne", AccessMethod.PC)
    sequential = replay_trace(trace, profile, seed=0)
    parallel = replay_trace_parallel(trace, profile, workers=8, seed=0)
    assert canonical(parallel) == canonical(sequential)


# ---------------------------------------------------------------------------
# adversarial CROSS_USER traces
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

    every user shares content A and B with every other user, ordered so
    each user ships some units first and dedups others another user
    shipped earlier — first occurrence is a trace-wide fact.
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


@pytest.mark.parametrize("kwargs", [{"shard_users": 0}, {"scale": -1}],
                         ids=["group-size", "scale"])
def test_iter_trace_shards_checks_its_arguments_at_the_call(kwargs):
    """A bad argument raises when the stream is built, not at its first
    ``next()``."""
    with pytest.raises(ValueError):
        iter_trace_shards(**{"scale": 0.01, "seed": 1, **kwargs})


def test_sharded_generation_feeds_parallel_replay():
    """End-to-end at-scale workflow: generate shard-by-shard, replay the
    concatenation in parallel, match the monolithic sequential result."""
    whole = generate_trace(scale=0.015, seed=33)
    assembled = Trace.from_records(itertools.chain(*iter_trace_shards(
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
# persistent ReplayPool: reuse, input order, reentrancy
# ---------------------------------------------------------------------------

def test_replay_pool_is_reused_across_profiles(trace):
    """One fork, many profiles — the replay_all shape.  Every profile's
    result through the shared pool must match its own sequential run, one
    call at a time and all 18 stock profiles at once: ``replay_many``
    answers in input order, whichever worker finishes first."""
    with ReplayPool(trace, workers=4) as pool:
        for service in SERVICES:
            profile = service_profile(service, AccessMethod.PC)
            assert canonical(pool.replay(profile, seed=7)) \
                == canonical(replay_trace(trace, profile, seed=7))
        stock = [service_profile(service, access)
                 for access in AccessMethod for service in SERVICES]
        for order in (stock, stock[::-1]):
            assert [canonical(report)
                    for report in pool.replay_many(order, seed=7)] \
                == [canonical(replay_trace(trace, profile, seed=7))
                    for profile in order]


def test_replay_all_pool_reuse_matches_sequential(trace):
    """replay_all at every worker count is the sorted sequential replay of
    all 18 stock profiles, byte for byte."""
    from repro.trace import replay_all
    for access in AccessMethod:
        sequential = sorted(
            (replay_trace(trace, service_profile(service, access), seed=7)
             for service in SERVICES),
            key=lambda report: report.traffic_bytes)
        for workers in (1, 2, 4, 8):
            parallel = replay_all(trace, access=access, seed=7,
                                  workers=workers)
            assert [canonical(r) for r in parallel] \
                == [canonical(r) for r in sequential]
            assert [repr(r) for r in parallel] \
                == [repr(r) for r in sequential]


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
    for workers in (1, 2):
        parallel = replay_trace_parallel(trace, profile, workers=workers,
                                         seed=0)
        assert canonical(parallel) == canonical(sequential)


def test_zero_size_records_under_cross_user_dedup_parallel():
    """Size-0 records have no dedup units (total_len == 0): the explicit
    empty-units branch ships the wire unchanged, and the pool agrees at
    every worker count."""
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
# every CROSS_USER profile on duplicates that stay within a user
# ---------------------------------------------------------------------------

def _within_user_duplicate_trace():
    """Plenty of dedup, none of it across users: every duplicate is one
    user's own earlier file."""
    records = []
    index = 0
    for user in ("u0", "u1", "u2"):
        base_id = 100 * (int(user[1]) + 1)
        for _ in range(4):
            records.append(_record(user, index, [base_id, base_id + 1],
                                   2 * UNIT_SIZE, created_at=float(index)))
            index += 1
    return Trace.from_records(records)


def test_within_user_duplicates_parity_across_cross_user_profiles():
    from repro.client import all_profiles
    trace = _within_user_duplicate_trace()
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


def _assert_pool_died_naming(position, pool, children, error):
    message = str(error.value)
    assert f"worker {position} (pid {children[position].pid})" in message
    assert "signal 9" in message
    assert pool.worker_count == 0
    assert not set(children) & set(multiprocessing.active_children())
    assert not any(child.is_alive() for child in children)
    with pytest.raises(RuntimeError, match="replay pool is closed"):
        pool.replay(service_profile("Dropbox", AccessMethod.PC))


def _slow_trace():
    """One record with millions of modifications — seconds of draws per
    profile — so a kill lands while the parent is blocked on a reply."""
    return Trace.from_records([
        _record("small", 0, [1], UNIT_SIZE, created_at=0.0),
        replace(_record("large", 1, [2], UNIT_SIZE, created_at=1.0),
                modify_count=5_000_000)])


def _kill_later(process):
    import os
    import signal
    import threading
    killer = threading.Timer(0.2, os.kill, (process.pid, signal.SIGKILL))
    killer.start()
    return killer


@needs_fork
def test_worker_killed_between_calls_is_a_structured_error(trace):
    """Worker 1 dies while idle: the next call, whose one job goes to
    worker 0, still finds it."""
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
    _assert_pool_died_naming(1, pool, children, error)


@needs_fork
def test_worker_killed_mid_replay_is_a_structured_error():
    """The worker running the call's one profile is killed mid-replay."""
    pool = ReplayPool(_slow_trace(), workers=2)
    children = list(pool._processes)
    assert len(children) == 2
    killer = _kill_later(children[0])
    try:
        with pytest.raises(RuntimeError) as error:
            pool.replay(service_profile("Dropbox", AccessMethod.PC))
    finally:
        killer.join(timeout=10)
    _assert_pool_died_naming(0, pool, children, error)


@needs_fork
def test_worker_killed_with_two_profiles_in_flight_is_a_structured_error():
    """Both workers busy, one profile each (Dropbox's IDS draws are the
    slow ones), when worker 1 is killed: the call raises naming it, and
    the survivor is reaped with the pool."""
    pool = ReplayPool(_slow_trace(), workers=2)
    children = list(pool._processes)
    killer = _kill_later(children[1])
    try:
        with pytest.raises(RuntimeError) as error:
            pool.replay_many([service_profile("Dropbox", AccessMethod.PC)]
                             * 2)
    finally:
        killer.join(timeout=10)
    _assert_pool_died_naming(1, pool, children, error)
