"""Differential battery: the columnar replay kernel against the
record-at-a-time oracle in ``reference_replay.py``.

Equality is on the serialised report — every counter, and the per-user
dicts' key order — with ``_BLOCK`` patched so block edges fall inside a
user's run of records.  The kernel's ``int64`` rule
(prove headroom per block or raise, Python ints across blocks) and its
O(block) memory are held here too.
"""

import json
import tracemalloc
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.trace.analysis as analysis_module
import repro.trace.replay as replay_module
from repro.client import SERVICES, AccessMethod, service_profile
from repro.cloud.dedup import DedupConfig, DedupGranularity, DedupScope
from repro.trace import Trace, TraceRecord, generate_trace, replay_trace
from repro.trace.schema import UNIT_SIZE
from repro.units import GB, KB, MB

from . import reference_replay as oracle_module
from .reference_replay import reference_replay_records

STOCK = [service_profile(service, access)
         for service in SERVICES for access in AccessMethod]
#: Full-file dedup, and blocks of 1, 2, 32 and 128 segments per unit.
DEDUP_VARIANTS = [DedupConfig(granularity, scope, block_size)
                  for scope in DedupScope
                  for granularity, block_size in (
                      (DedupGranularity.FULL_FILE, 4 * MB),
                      (DedupGranularity.BLOCK, UNIT_SIZE),
                      (DedupGranularity.BLOCK, 2 * UNIT_SIZE),
                      (DedupGranularity.BLOCK, 4 * MB),
                      (DedupGranularity.BLOCK, 16 * MB))]
BLOCKS = [1, 2, 7, 1024]

DROPBOX = service_profile("Dropbox", AccessMethod.PC)         # IDS, dedup, BDS
UBUNTUONE = service_profile("UbuntuOne", AccessMethod.PC)     # cross-user
GOOGLEDRIVE = service_profile("GoogleDrive", AccessMethod.PC)  # neither


def canonical(report) -> str:
    """Byte-exact serialisation, per-user dict insertion order included."""
    return json.dumps(asdict(report))


def make_record(user, size, count, created_at=0.0, segments=(),
                compressed=None):
    return TraceRecord(
        user=user, service="X", path=f"{user}/{size}-{count}-{created_at}",
        size=size, compressed_size=size if compressed is None else compressed,
        created_at=created_at, modified_at=created_at, modify_count=count,
        segments=np.asarray(segments, dtype=np.int64))


def kernel(records, profile, seed):
    return replay_trace(Trace.from_records(records), profile, seed)


def assert_kernel_equals_oracle(records, profile, seed):
    trace = Trace.from_records(records)
    rows = list(trace)      # the oracle reads the trace's rows
    assert canonical(replay_trace(trace, profile, seed)) \
        == canonical(reference_replay_records(rows, profile, seed))


# ---------------------------------------------------------------------------
# random traces
# ---------------------------------------------------------------------------

profiles = st.one_of(
    st.sampled_from(STOCK),
    st.builds(lambda profile, dedup: replace(profile, dedup=dedup),
              st.sampled_from(STOCK), st.sampled_from(DEDUP_VARIANTS)),
    st.builds(lambda profile, block: replace(profile, delta_block=block),
              st.sampled_from(STOCK), st.sampled_from([1, 10240, 131072])))

sizes = st.one_of(
    st.sampled_from([0, 1, UNIT_SIZE - 1, UNIT_SIZE + 1]),
    st.builds(lambda blocks, nudge: max(blocks * 4 * MB + nudge, 0),
              st.integers(0, 512), st.sampled_from([-1, 0, 1])),
    st.integers(0, 2 * GB))


@st.composite
def traces(draw):
    """Records of fresh content, exact duplicates and shared-prefix near
    duplicates, spread over three users."""
    records, next_segment = [], 1
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["fresh", "exact", "near"])) \
            if records else "fresh"
        if kind == "exact":
            source = draw(st.sampled_from(records))
            size, compressed = source.size, source.compressed_size
            segments = source.segments
        else:
            size = draw(sizes)
            compressed = size * draw(st.sampled_from([0, 3, 7, 10, 12])) // 10
            units = -(-size // UNIT_SIZE)
            kept = []
            if kind == "near":
                source = draw(st.sampled_from(records))
                kept = source.segments[:draw(st.integers(
                    0, min(units, len(source.segments))))]
            fresh = units - len(kept)
            segments = np.concatenate(
                [kept, np.arange(next_segment, next_segment + fresh)])
            next_segment += fresh
        records.append(make_record(
            draw(st.sampled_from(["u0", "u1", "u2"])), size,
            draw(st.integers(0, 40)), float(draw(st.integers(0, 20))),
            segments, compressed))
    return records


NO_MODIFICATION = [
    make_record("u0", 5 * MB, 0, 0.0, [1, 2]),
    make_record("u1", 5 * MB, 0, 1.0, [1, 2]),        # exact duplicate
    make_record("u0", 64, 0, 2.0, [3]),
]
EVERY_RECORD_MODIFIED = [
    make_record("u0", 0, 1, 0.0, []),
    make_record("u1", 1, 40, 0.0, [1]),
    make_record("u0", UNIT_SIZE + 1, 3, 1.0, [2, 3]),
    make_record("u1", 4 * MB - 1, 7, 2.0, list(range(4, 36)), compressed=MB),
]
#: Creation order u0, u1; first-modified order u1, u0.
MODIFIED_OUT_OF_ORDER = [
    make_record("u0", 3 * MB, 0, 0.0, [1]),
    make_record("u1", 2 * MB, 2, 1.0, [2]),
    make_record("u0", 1 * MB, 1, 2.0, [3]),
    make_record("u1", 1 * MB, 1, 3.0, [4]),
]


def with_dedup(profile, granularity, block_size=4 * MB, cross_user=False):
    scope = DedupScope.CROSS_USER if cross_user else DedupScope.SAME_USER
    return replace(profile, dedup=DedupConfig(granularity, scope, block_size))


#: Units that recur inside one record, at one and at two segments a unit.
REPEATS_A_UNIT_INSIDE_ITSELF = [
    make_record("u0", 4 * UNIT_SIZE, 0, 0.0, [1, 2, 1, 2]),
    make_record("u0", 3 * UNIT_SIZE, 0, 1.0, [1, 1, 1]),
]
#: More segments than the size covers: zero-length units, fresh or not.
ZERO_LENGTH_UNITS = [
    make_record("u0", UNIT_SIZE + 1, 0, 0.0, range(1, 9)),
    make_record("u1", 0, 0, 0.0, [7, 8, 9]),
    make_record("u1", 5, 1, 1.0, [9, 1, 10]),
]
TOP = 2 ** 63 - 1
#: Ids at both ends of int64, duplicated across users.
EXTREME_IDS = [
    make_record("u0", 3 * UNIT_SIZE, 0, 0.0, [TOP, TOP - 1, -TOP - 1]),
    make_record("u1", 2 * UNIT_SIZE, 0, 1.0, [TOP, -TOP - 1]),
    make_record("u2", UNIT_SIZE, 0, 2.0, [TOP - 1]),
]
#: Ids are values: the trace casts int32 ids to int64 when it is built, so
#: int32 [5, 0, 6, 7] dedups with int64 [5, 0, 6, 7], and at two segments a
#: unit its [5, 0] is no longer int64 [5], whose bytes it had.
INT32_NEXT_TO_INT64 = [
    replace(make_record("u0", 4 * UNIT_SIZE, 0, 0.0),
            segments=np.array([5, 0, 6, 7], dtype=np.int32)),
    make_record("u1", 4 * UNIT_SIZE, 0, 0.0, [5, 0, 6, 7]),
    make_record("u2", UNIT_SIZE, 0, 1.0, [5]),
]


#: Same first id, last id, count and id sum as [1, 2, 3, 4], but no run.
SHUFFLED_RUN = [
    make_record("u0", 4 * UNIT_SIZE, 0, 0.0, [1, 2, 3, 4]),
    make_record("u0", 4 * UNIT_SIZE, 0, 1.0, [1, 3, 2, 4]),
    make_record("u1", 4 * UNIT_SIZE, 0, 2.0, [1, 3, 2, 4]),
    make_record("u1", 4 * UNIT_SIZE, 0, 3.0, [1, 2, 3, 4]),
]
#: [TOP, -TOP - 1] steps by +1 in int64: a run that wraps, next to the
#: runs that end at the top and start at the bottom.
WRAPPING_RUN = [
    make_record("u0", 2 * UNIT_SIZE, 0, 0.0, [TOP, -TOP - 1]),
    make_record("u1", 2 * UNIT_SIZE, 0, 1.0, [TOP - 1, TOP]),
    make_record("u0", 2 * UNIT_SIZE, 0, 2.0, [-TOP - 1, -TOP]),
    make_record("u1", 2 * UNIT_SIZE, 0, 3.0, [TOP, -TOP - 1]),
    make_record("u0", 3 * UNIT_SIZE, 0, 4.0, [TOP - 1, TOP, -TOP - 1]),
]
#: A run and two non-runs that share its first id and count.
RUN_AND_NOT = [
    make_record("u0", 3 * UNIT_SIZE, 0, 0.0, [5, 6, 7]),
    make_record("u1", 3 * UNIT_SIZE, 0, 1.0, [5, 9, 7]),
    make_record("u0", 3 * UNIT_SIZE, 0, 2.0, [5, 7, 6]),
    make_record("u1", 3 * UNIT_SIZE, 0, 3.0, [5, 6, 7]),
]
#: Full-file, two-segment and 4 MB units, under both scopes.
RUN_KEY_DEDUPS = [(granularity, block_size, cross_user)
                  for granularity, block_size in (
                      (DedupGranularity.FULL_FILE, 4 * MB),
                      (DedupGranularity.BLOCK, 2 * UNIT_SIZE),
                      (DedupGranularity.BLOCK, 4 * MB))
                  for cross_user in (False, True)]


def run_key_examples(test):
    """Every run-key record list under every :data:`RUN_KEY_DEDUPS`."""
    for records in (SHUFFLED_RUN, WRAPPING_RUN, RUN_AND_NOT):
        for dedup in RUN_KEY_DEDUPS:
            test = example(records=records, seed=8,
                           profile=with_dedup(DROPBOX, *dedup))(test)
    return test


@pytest.mark.parametrize("block", BLOCKS)
@given(records=traces(), profile=profiles,
       seed=st.integers(-2 ** 31, 2 ** 40))
@example(records=[], profile=DROPBOX, seed=0)
@example(records=NO_MODIFICATION, profile=UBUNTUONE, seed=1)
@example(records=EVERY_RECORD_MODIFIED, profile=DROPBOX, seed=2)
@example(records=MODIFIED_OUT_OF_ORDER, profile=GOOGLEDRIVE, seed=3)
@example(records=MODIFIED_OUT_OF_ORDER, profile=DROPBOX, seed=3)
@example(records=REPEATS_A_UNIT_INSIDE_ITSELF, seed=4, profile=with_dedup(
    DROPBOX, DedupGranularity.BLOCK, UNIT_SIZE))
@example(records=REPEATS_A_UNIT_INSIDE_ITSELF, seed=4, profile=with_dedup(
    UBUNTUONE, DedupGranularity.BLOCK, 2 * UNIT_SIZE, cross_user=True))
@example(records=ZERO_LENGTH_UNITS, seed=5, profile=with_dedup(
    UBUNTUONE, DedupGranularity.BLOCK, UNIT_SIZE, cross_user=True))
@example(records=ZERO_LENGTH_UNITS, seed=5, profile=with_dedup(
    DROPBOX, DedupGranularity.BLOCK, 2 * UNIT_SIZE))
@example(records=EXTREME_IDS, seed=6, profile=with_dedup(
    UBUNTUONE, DedupGranularity.BLOCK, UNIT_SIZE, cross_user=True))
@example(records=EXTREME_IDS, seed=6, profile=with_dedup(
    UBUNTUONE, DedupGranularity.FULL_FILE, cross_user=True))
@example(records=INT32_NEXT_TO_INT64, seed=7, profile=with_dedup(
    UBUNTUONE, DedupGranularity.BLOCK, UNIT_SIZE, cross_user=True))
@example(records=INT32_NEXT_TO_INT64, seed=7, profile=with_dedup(
    UBUNTUONE, DedupGranularity.BLOCK, 2 * UNIT_SIZE, cross_user=True))
@run_key_examples
@settings(max_examples=75, deadline=None)
def test_kernel_equals_scalar_oracle(block, records, profile, seed):
    with mock.patch.object(replay_module, "_BLOCK", block):
        assert_kernel_equals_oracle(records, profile, seed)


@pytest.mark.parametrize("dedup", RUN_KEY_DEDUPS)
def test_a_digest_equal_to_a_run_key_stays_apart(dedup):
    """A blake2b half-pair never equals a real (first id, count), so the
    collision is forged: [5, 9, 7] digests to the int64s (5, 3), the run
    key of [5, 6, 7].  The oracle digests both units and tells them apart;
    the kernel must too, by the kind column alone."""
    real = analysis_module._unit_digest
    forged_blob = np.array([5, 9, 7], np.int64).tobytes()

    def forged(key):
        blob = key[0] if isinstance(key, tuple) else key
        if bytes(blob) == forged_blob:
            return np.array([5, 3], np.int64).tobytes()
        return real(key)

    with mock.patch.object(analysis_module, "_unit_digest", forged), \
            mock.patch.object(oracle_module, "_unit_digest", forged):
        assert_kernel_equals_oracle(RUN_AND_NOT, with_dedup(DROPBOX, *dedup),
                                    8)


def test_int32_ids_dedup_by_value():
    profile = with_dedup(UBUNTUONE, DedupGranularity.BLOCK, 2 * UNIT_SIZE,
                         cross_user=True)
    report = kernel(INT32_NEXT_TO_INT64, profile, 7)
    as_int64 = [make_record("u0", 4 * UNIT_SIZE, 0, 0.0, [5, 0, 6, 7]),
                *INT32_NEXT_TO_INT64[1:]]
    assert canonical(report) == canonical(kernel(as_int64, profile, 7))
    # u1 ships none of its units, u2 ships its [5] in full.
    alone = [kernel([record], profile, 7).per_user_traffic
             for record in INT32_NEXT_TO_INT64]
    assert alone[1]["u1"] - report.per_user_traffic["u1"] \
        == report.saved_by_dedup > 0
    assert report.per_user_traffic["u2"] == alone[2]["u2"]


def test_out_of_order_example_orders_the_dicts_differently():
    """The example above earns its place only if the two orders differ."""
    report = kernel(MODIFIED_OUT_OF_ORDER, DROPBOX, 3)
    assert list(report.per_user_traffic) == ["u0", "u1"]
    assert list(report.per_user_modification_traffic) == ["u1", "u0"]
    assert list(report.per_user_modification_update) == ["u1", "u0"]


@pytest.fixture(scope="module")
def generated_records():
    return list(generate_trace(scale=0.01, seed=5))


@pytest.mark.parametrize("profile", STOCK, ids=lambda profile: profile.name)
def test_every_stock_profile_on_a_generated_trace(profile, generated_records):
    with mock.patch.object(replay_module, "_BLOCK", 7):
        assert_kernel_equals_oracle(generated_records, profile, 5)


@pytest.mark.parametrize("records", [[], [make_record("u0", MB, 2, 0.0, [1])]],
                         ids=["empty", "one-record"])
def test_block_size_the_trace_cannot_express_is_refused_up_front(records):
    """A block dedup size DedupConfig accepts but the trace's segments
    cannot align is refused before any record is priced, naming the
    profile and the size, whatever the trace holds."""
    profile = replace(DROPBOX, dedup=DedupConfig.block(100 * KB))
    with pytest.raises(ValueError, match=r"^Dropbox/pc: dedup block size "
                       r"102400 is not a multiple of the 131072-byte"):
        replay_trace(Trace.from_records(records), profile)


# ---------------------------------------------------------------------------
# int64: headroom per block, Python ints across blocks
# ---------------------------------------------------------------------------

def test_block_without_int64_headroom_raises_naming_the_record():
    """Bisect for the largest size one modified record's block admits: the
    kernel is exact right up to that edge and refuses one byte past it,
    naming the record by its position — never a silent wrap."""
    def records(size):
        return [make_record("u0", size, 3, 0.0, [1])]

    accepted, refused = 1, 1 << 63
    while refused - accepted > 1:
        middle = (accepted + refused) // 2
        try:
            kernel(records(middle), DROPBOX, 0)
            accepted = middle
        except OverflowError:
            refused = middle
    assert accepted > 1 << 58
    report = kernel(records(accepted), DROPBOX, 0)
    assert report.traffic_bytes > 1 << 59
    assert canonical(report) \
        == canonical(reference_replay_records(records(accepted), DROPBOX, 0))
    with pytest.raises(OverflowError, match="^record 0:"):
        kernel(records(refused), DROPBOX, 0)


def test_overflow_names_the_record_that_needs_the_headroom():
    records = [make_record("u0", MB, 2),
               make_record("u1", 1 << 61, 0),
               make_record("u0", MB, 40)]
    with pytest.raises(OverflowError, match="^record 1:"):
        kernel(records, GOOGLEDRIVE, 0)
    # In a later block the record is still named by its trace position.
    with mock.patch.object(replay_module, "_BLOCK", 2):
        with pytest.raises(OverflowError, match="^record 3:"):
            kernel([make_record("u0", MB, 2)] * 3 + records[1:2],
                   GOOGLEDRIVE, 0)


def test_totals_that_span_blocks_are_python_ints():
    """Every one-record block fits ``int64``; the trace-wide counters and
    the per-user totals do not, and must not wrap."""
    records = [make_record("u0", 1 << 60, 0, float(k), [k + 1])
               for k in range(16)]
    with pytest.raises(OverflowError):      # one 16-record block: refused
        kernel(records, GOOGLEDRIVE, 0)
    with mock.patch.object(replay_module, "_BLOCK", 1):
        report = kernel(records, GOOGLEDRIVE, 0)
    assert report.data_update_bytes == 16 << 60 > 1 << 63
    assert report.per_user_traffic["u0"] == report.traffic_bytes > 1 << 63
    assert canonical(report) \
        == canonical(reference_replay_records(records, GOOGLEDRIVE, 0))


# ---------------------------------------------------------------------------
# memory: O(block) + O(users) + the dedup keys, whatever the trace length
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def memory_trace():
    return generate_trace(scale=0.05, seed=42)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def not_runs(trace, dedup):
    """The trace's units at ``dedup``'s granularity whose ids are not one
    run of consecutive ids, counted record by record."""
    per_unit = len(trace.segments) + 1 \
        if dedup.granularity is DedupGranularity.FULL_FILE \
        else dedup.block_size // UNIT_SIZE
    count = 0
    for record in trace:
        ids = record.segments.tolist()
        for first in range(0, len(ids), per_unit):
            unit = ids[first:first + per_unit]
            count += any(b - a != 1 for a, b in zip(unit, unit[1:]))
    return count


@pytest.mark.parametrize("profile", [DROPBOX, UBUNTUONE],
                         ids=lambda profile: profile.name)
def test_kernel_digests_only_the_units_that_are_not_runs(profile,
                                                         memory_trace):
    """One blake2b (one ``_unit_digest`` call) per unit that is not a
    run, and none for the rest."""
    with mock.patch.object(analysis_module, "_unit_digest",
                           wraps=analysis_module._unit_digest) as digest:
        replay_trace(memory_trace, profile, 0)
    expected = not_runs(memory_trace, profile.dedup)
    assert 0 < digest.call_count == expected


@pytest.mark.parametrize("profile", [DROPBOX, UBUNTUONE, GOOGLEDRIVE],
                         ids=lambda profile: profile.name)
def test_kernel_memory_stays_within_the_oracles(profile, memory_trace):
    """The kernel replays the trace's columns, the loop its record list,
    built before the measurement as the columns were: both peaks are
    replay working sets.  The kernel may add one block's columns to what
    the loop held, not a column per record (an unblocked kernel adds
    2.8–4.5 MB here)."""
    rows = list(memory_trace)
    # One warm-up call before each measured one: numpy's small-buffer
    # cache then holds what the call leaves in it whichever profile ran
    # before, so a peak measures the call, not the test order.
    peaks = []
    for run in (lambda: replay_trace(memory_trace, profile, 0),
                lambda: reference_replay_records(rows, profile, 0)):
        run()
        peaks.append(_traced_peak(run))
    kernel_peak, oracle_peak = peaks
    assert kernel_peak <= 1.3 * oracle_peak
    assert kernel_peak - oracle_peak <= 1024 * replay_module._BLOCK
