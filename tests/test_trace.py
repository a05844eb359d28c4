"""Tests for the trace substrate: schema, generator calibration, I/O."""

import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import (
    GeneratorConfig,
    SERVICE_FILES,
    SERVICE_USERS,
    Trace,
    TraceRecord,
    UNIT_SIZE,
    batchable_small_fraction,
    compressible_fraction,
    compression_ratio,
    compression_traffic_saving,
    dedup_ratio,
    dedup_ratio_curve,
    duplicate_file_ratio,
    generate_trace,
    iter_trace_shards,
    load_trace,
    modified_fraction,
    read_csv,
    save_trace,
    size_cdf,
    small_file_fraction,
    summary_stats,
    write_csv,
)
from repro.trace.schema import MalformedRecord
from repro.units import GB, KB, MB

from .reference_analysis import block_keys, effectively_compressible, full_file_key

SCALE = 0.06


@pytest.fixture(scope="module")
def trace():
    return generate_trace(scale=SCALE, seed=11)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def make_record(size=300 * KB, segments=None, **kwargs):
    segments = segments if segments is not None else np.arange(3, dtype=np.int64)
    defaults = dict(user="u", service="s", path="p", size=size,
                    compressed_size=size // 2, created_at=0.0, modified_at=1.0,
                    modify_count=1, segments=segments, content_id=1)
    defaults.update(kwargs)
    return TraceRecord(**defaults)


def test_record_validation():
    with pytest.raises(ValueError, match="sizes must be non-negative"):
        Trace.from_records([make_record(size=-1)])
    with pytest.raises(ValueError, match="modification cannot precede"):
        Trace.from_records([make_record(modified_at=-5.0)])


#: Rows the trace accepted, wrote to CSV, read back and then crashed the
#: replay on (a negative count), priced (a NaN creation time) or took as a
#: dedup identity (float or uint64 segment ids).
MALFORMED = {
    "negative-count": (dict(modify_count=-1),
                       "modify_count must be non-negative"),
    "nan-created": (dict(created_at=float("nan")), "times must be finite"),
    "inf-modified": (dict(modified_at=float("inf")), "times must be finite"),
    "float-ids": (dict(segments=np.array([1.5])),
                  "segment ids of dtype float64 do not cast safely"),
    "uint64-ids": (dict(segments=np.array([1], dtype=np.uint64)),
                   "segment ids of dtype uint64 do not cast safely"),
}


@pytest.mark.parametrize("fields, reason", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_trace_refuses_a_malformed_record_naming_the_first(fields, reason):
    rows = [make_record(path="fine"), make_record(path="bad", **fields),
            make_record(path="worse", size=-1, **fields)]
    with pytest.raises(ValueError,
                       match=rf"^trace record 1 \('bad'\): {reason}"):
        Trace.from_records(rows)


def csv_with(**fields):
    """One valid row's CSV text, with ``fields`` written over it."""
    buffer = io.StringIO()
    write_csv(Trace.from_records([make_record(path="kept"),
                                  make_record(path="bad")]), buffer)
    header, *rows = buffer.getvalue().splitlines()
    names = header.split(",")
    row = dict(zip(names, rows[1].split(",")), **fields)
    rows[1] = ",".join(str(row[name]) for name in names)
    return io.StringIO("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("name", ["negative-count", "nan-created",
                                  "inf-modified"])
def test_read_csv_refuses_a_malformed_row_naming_it(name):
    fields, reason = MALFORMED[name]
    with pytest.raises(ValueError,
                       match=rf"^trace record 1 \('bad'\): {reason}"):
        read_csv(csv_with(**fields))
    assert len(read_csv(csv_with())) == 2


#: CSV rows ``read_csv`` loaded silently (``5:-3`` as no segments) or
#: refused without naming the row (a bare ``ValueError`` or
#: ``AttributeError``).
UNPARSABLE = {
    "negative-run": (dict(segments="5:-3"), r"column 'segments': '5:-3' is "
                     r"not start:length runs of positive length"),
    "empty-run": (dict(segments="0:3;5:0"), "column 'segments': '0:3;5:0'"),
    "run-without-length": (dict(segments="5"), "column 'segments': '5'"),
    "text-size": (dict(size="abc"), "column 'size': invalid literal"),
    "text-time": (dict(created_at="soon"), "column 'created_at': could not "
                  "convert"),
    "id-past-int64": (dict(segments=f"{2 ** 63}:1"), "column 'segments'"),
}


@pytest.mark.parametrize("fields, reason", UNPARSABLE.values(),
                         ids=UNPARSABLE.keys())
def test_read_csv_refuses_a_row_that_does_not_parse(fields, reason):
    with pytest.raises(MalformedRecord,
                       match=rf"^trace record 1 \('bad'\): {reason}"):
        read_csv(csv_with(**fields))


def test_read_csv_refuses_a_row_missing_a_column():
    text = csv_with().getvalue().splitlines()
    text[2] = text[2].rsplit(",", 1)[0]     # no segments
    with pytest.raises(MalformedRecord, match=r"^trace record 1 \('bad'\): "
                       r"column 'segments': missing"):
        read_csv(io.StringIO("\n".join(text)))
    header = text[0].replace("size,", "bytes,", 1)
    with pytest.raises(MalformedRecord, match=r"^trace record 0 \('kept'\): "
                       r"column 'size': missing"):
        read_csv(io.StringIO("\n".join([header, *text[1:]])))


def trace_columns(**fields):
    """Two valid rows as :class:`Trace` columns, ``fields`` written over."""
    columns = dict(user_names=["u"], service_names=["s"], user_code=[0, 0],
                   service_code=[0, 0], path=["kept", "bad"],
                   size=[UNIT_SIZE, UNIT_SIZE], compressed_size=[1, 1],
                   created_at=[0.0, 0.0], modified_at=[0.0, 0.0],
                   modify_count=[0, 0], content_id=[1, 2], offsets=[0, 1, 2],
                   segments=[7, 8])
    return dict(columns, **fields)


#: Columns the trace accepted and replay then mispriced (UbuntuOne/pc
#: read offsets [0, 1, 5] as traffic 260, dedup 0) or crashed on with a
#: bare IndexError.
MISSHAPEN = {
    "offsets-past-segments": (dict(offsets=[0, 1, 5]), "segment offsets "
                              "must lie within the segments column"),
    "decreasing-offsets": (dict(offsets=[0, 2, 1]),
                           "segment offsets must not decrease"),
    "user-code-past-table": (dict(user_code=[0, 1]),
                             "user code outside the user table"),
    "negative-user-code": (dict(user_code=[0, -1]),
                           "user code outside the user table"),
    "service-code-past-table": (dict(service_code=[0, 3]),
                                "service code outside the service table"),
}


@pytest.mark.parametrize("fields, reason", MISSHAPEN.values(),
                         ids=MISSHAPEN.keys())
def test_trace_refuses_columns_a_row_cannot_be_read_from(fields, reason):
    with pytest.raises(MalformedRecord,
                       match=rf"^trace record 1 \('bad'\): {reason}"):
        Trace(**trace_columns(**fields))
    assert len(Trace(**trace_columns())) == 2


def test_trace_refuses_a_first_offset_before_the_segments():
    with pytest.raises(MalformedRecord, match=r"^trace record 0 \('kept'\): "
                       r"segment offsets must lie within the segments"):
        Trace(**trace_columns(offsets=[-1, 1, 2]))


@pytest.mark.parametrize("fields, column, length", [
    (dict(offsets=[0, 1]), "offsets", 2),
    (dict(offsets=[0, 1, 2, 2]), "offsets", 4),
    (dict(path=["kept"]), "path", 1),
    (dict(modify_count=[0, 0, 0]), "modify_count", 3),
    (dict(user_code=[0]), "user_code", 1),
], ids=["offsets-of-n", "offsets-of-n+2", "short-path", "long-count",
        "short-codes"])
def test_trace_refuses_columns_of_disagreeing_lengths(fields, column, length):
    expected = 3 if column == "offsets" else 2
    with pytest.raises(ValueError, match=rf"^trace column '{column}' holds "
                       rf"{length} entries, not {expected}$"):
        Trace(**trace_columns(**fields))


def test_int32_segment_ids_are_kept_by_value():
    ids = np.array([5, 0, 6], dtype=np.int32)
    row = Trace.from_records([make_record(segments=ids)])[0]
    assert row.segments.dtype == np.int64
    assert row.segments.tolist() == [5, 0, 6]


def fields(record):
    """Every field with its type, segments as dtype and values."""
    scalars = (record.user, record.service, record.path, record.size,
               record.compressed_size, record.created_at, record.modified_at,
               record.modify_count, record.content_id)
    return ([(type(value), value) for value in scalars],
            record.segments.dtype.str, record.segments.tolist())


@st.composite
def rows(draw):
    created = draw(st.floats(-1e12, 1e12))
    return make_record(
        user=draw(st.sampled_from(["u0", "u1", "ü/2"])),
        service=draw(st.sampled_from(["A", "B"])), path=draw(st.text()),
        size=draw(st.integers(0, 2 ** 63 - 1)),
        compressed_size=draw(st.integers(0, 2 ** 63 - 1)),
        created_at=created,
        modified_at=created + draw(st.floats(0, 1e12)),
        modify_count=draw(st.integers(0, 2 ** 63 - 1)),
        content_id=draw(st.integers(-2 ** 63, 2 ** 63 - 1)),
        segments=np.array(draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                         max_size=4)), dtype=np.int64))


@given(records=st.lists(rows(), max_size=12), data=st.data())
@settings(max_examples=60, deadline=None)
def test_rows_round_trip_through_the_columns(records, data):
    trace = Trace.from_records(records)
    assert [fields(row) for row in trace] == [fields(row) for row in records]
    picks = data.draw(st.lists(st.integers(0, len(records) - 1))
                      if records else st.just([]))
    assert [fields(trace[pick]) for pick in picks] \
        == [fields(records[pick]) for pick in picks]
    if records:
        assert fields(trace[-1]) == fields(records[-1])


def as_fields(record, segments):
    return (record.user, record.service, record.path, record.size,
            record.compressed_size, record.created_at, record.modified_at,
            record.modify_count, segments, record.content_id)


@given(records=st.lists(rows(), max_size=12), data=st.data())
@settings(max_examples=60, deadline=None)
def test_range_ids_and_taken_rows_read_as_spelled_rows(records, data):
    """A ``range`` of ids, of any step, reads as its values; ``take`` gives
    the picked rows, names coded at first sight as ``from_fields`` codes
    them over those rows."""
    runs = [range(start, start + step * length, step) for start, step, length
            in data.draw(st.lists(st.tuples(
                st.integers(-2 ** 62, 2 ** 62), st.sampled_from([1, 1, 2, -1]),
                st.integers(0, 4)),
                min_size=len(records), max_size=len(records)))]
    trace = Trace.from_fields([as_fields(record, ids)
                               for record, ids in zip(records, runs)],
                              len(records))
    spelled = [dataclasses.replace(record, segments=np.array(ids, np.int64))
               for record, ids in zip(records, runs)]
    assert [fields(row) for row in trace] == [fields(row) for row in spelled]
    picks = data.draw(st.lists(st.integers(0, len(records) - 1))
                      if records else st.just([]))
    taken = trace.take(np.array(picks, np.int64))
    alone = Trace.from_records([spelled[pick] for pick in picks])
    assert [fields(row) for row in taken] == [fields(row) for row in alone]
    assert (taken.user_names, taken.service_names) \
        == (alone.user_names, alone.service_names)


def test_compression_properties():
    record = make_record(size=100, compressed_size=50)
    assert record.compression_ratio == 0.5
    assert effectively_compressible(record)
    assert not effectively_compressible(
        make_record(size=100, compressed_size=95))


def test_block_keys_lengths_sum_to_size():
    record = make_record(size=300 * KB)
    keys = list(block_keys(record, 128 * KB))
    assert sum(length for _, length in keys) == 300 * KB
    assert len(keys) == 3


def test_block_keys_require_unit_multiple():
    record = make_record()
    with pytest.raises(ValueError):
        list(block_keys(record, 100))


def test_block_keys_differ_per_block():
    record = make_record(size=3 * UNIT_SIZE)
    assert len(set(block_keys(record, UNIT_SIZE))) == 3


def test_duplicates_share_md5():
    shared = np.arange(5, dtype=np.int64)
    a = make_record(size=5 * UNIT_SIZE, segments=shared)
    b = make_record(size=5 * UNIT_SIZE, segments=shared, user="other")
    assert full_file_key(a) == full_file_key(b)


def test_prefix_sharing_visible_at_block_level():
    base = np.arange(8, dtype=np.int64)
    near = np.concatenate([base[:4], np.arange(100, 104, dtype=np.int64)])
    a = make_record(size=8 * UNIT_SIZE, segments=base)
    b = make_record(size=8 * UNIT_SIZE, segments=near)
    a_keys = list(block_keys(a, 2 * UNIT_SIZE))
    b_keys = list(block_keys(b, 2 * UNIT_SIZE))
    assert a_keys[0] == b_keys[0] and a_keys[1] == b_keys[1]
    assert a_keys[2] != b_keys[2]
    assert full_file_key(a) != full_file_key(b)


# ---------------------------------------------------------------------------
# generator calibration (the paper's published statistics)
# ---------------------------------------------------------------------------

def test_counts_scale_with_table2(trace):
    files = np.bincount(trace.service_code)
    assert set(trace.service_names) == set(SERVICE_FILES)
    for service, count in zip(trace.service_names, files.tolist()):
        expected = SERVICE_FILES[service] * SCALE
        assert count == pytest.approx(expected, rel=0.15)
    users = trace.users()
    for service, count in users.items():
        assert count <= SERVICE_USERS[service]


def test_size_distribution_matches_figure2(trace):
    stats = summary_stats(trace)
    assert stats.median_size == pytest.approx(7.5 * KB, rel=0.5)
    assert stats.mean_size == pytest.approx(962 * KB, rel=0.35)
    assert stats.max_size <= 2 * GB
    assert stats.mean_compressed < stats.mean_size
    assert stats.median_compressed < stats.median_size


def test_small_file_fraction_77pct(trace):
    assert small_file_fraction(trace) == pytest.approx(0.77, abs=0.05)
    assert small_file_fraction(trace, compressed=True) == pytest.approx(0.81, abs=0.05)


def test_modified_fraction_84pct(trace):
    assert modified_fraction(trace) == pytest.approx(0.84, abs=0.03)


def test_compressible_fraction_52pct(trace):
    assert compressible_fraction(trace) == pytest.approx(0.52, abs=0.05)


def test_compression_ratio_131(trace):
    assert compression_ratio(trace) == pytest.approx(1.31, abs=0.12)
    saving = compression_traffic_saving(trace)
    assert saving == pytest.approx(0.24, abs=0.06)


def test_duplicate_ratio_188pct(trace):
    assert duplicate_file_ratio(trace) == pytest.approx(0.188, abs=0.06)


def test_batchable_small_fraction_66pct(trace):
    assert batchable_small_fraction(trace) == pytest.approx(0.66, abs=0.08)


def test_dedup_curve_shape_matches_figure5(trace):
    curve = dedup_ratio_curve(trace)
    ratios = [ratio for _, ratio in curve]
    full_file = ratios[-1]
    blocks = ratios[:-1]
    # Block-level beats full-file, but only trivially (the paper's point).
    assert all(ratio >= full_file for ratio in blocks)
    assert max(blocks) - full_file < 0.15
    # Finer blocks dedup (weakly) better.
    assert blocks == sorted(blocks, reverse=True)
    assert full_file == pytest.approx(1.23, abs=0.08)


def test_modified_at_clamped_to_collection_window(trace):
    """Regression: modified_at was drawn as created_at + Exp(14 days)
    without clamping, so ~6 % of files were "modified" after the Jul 2013 –
    Mar 2014 window closed (§3.1).  Checked over a full-scale-distribution
    sample: the clamp binds, respects the window, and never reorders
    modification before creation."""
    from repro.trace import TRACE_SPAN
    clamped = 0
    for record in trace:
        assert record.modified_at >= record.created_at, record.path
        assert record.modified_at <= max(record.created_at, TRACE_SPAN), \
            record.path
        if record.modify_count and record.modified_at == TRACE_SPAN:
            clamped += 1
    # The exponential tail guarantees the clamp actually fires at this
    # sample size (~13k files, P[clamp] ≈ 6 %).
    assert clamped > 0


def test_generated_trace_holds_at_most_300_bytes_a_record():
    """Columns, not an object per record: 512 B a record were held here
    when each record was a dataclass instance."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        trace = generate_trace(scale=0.05, seed=42)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (held - base) / len(trace) <= 300


def peak_bytes_a_record(run) -> float:
    """Traced peak of ``run()`` over the records it returns a count of.
    A small generation goes first: the first in a process imports numpy's
    random module inside the window."""
    generate_trace(scale=0.001, seed=1)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        records = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - base) / records


def test_generating_a_trace_peaks_at_most_400_bytes_a_record():
    """The duplicate pool is int64 columns whose ids come back as runs: an
    id array per original peaked at 519 B a record here."""
    assert peak_bytes_a_record(
        lambda: len(generate_trace(scale=0.05, seed=42))) <= 400


def test_streaming_shards_peaks_at_most_380_bytes_a_record():
    """A service is built once as columns and split by a stable argsort:
    its rows bucketed as tuples per user group peaked at 419 B a record
    here."""
    def consume():
        records = 0
        for shard in iter_trace_shards(scale=0.05, seed=42):
            records += len(shard)
        return records
    assert peak_bytes_a_record(consume) <= 380


def test_generation_is_deterministic():
    a = generate_trace(scale=0.01, seed=3)
    b = generate_trace(scale=0.01, seed=3)
    assert len(a) == len(b)
    assert [full_file_key(r) for r in list(a)[:50]] \
        == [full_file_key(r) for r in list(b)[:50]]


@pytest.mark.parametrize("scale", [0, -1, -0.0, float("nan"), float("inf")])
def test_generator_refuses_a_scale_it_cannot_honour(scale):
    """Regression: scale 0 and -1 both clamped every service to one user
    and one file and returned a 6-record trace."""
    with pytest.raises(ValueError, match="scale"):
        generate_trace(scale=scale)


@pytest.mark.parametrize("plan, culprit", [
    ({"Dropbox": (0, 5)}, "Dropbox"),         # was a bare numpy IndexError
    ({"Box": (2, 3), "OneDrive": (2, -1)}, "OneDrive"),   # was 0 records
    ({"SugarSync": (-3, 0)}, "SugarSync"),
])
def test_generator_refuses_a_service_plan_it_cannot_honour(plan, culprit):
    config = GeneratorConfig(services=plan)
    with pytest.raises(ValueError, match=culprit):
        config.service_plan()
    with pytest.raises(ValueError, match=culprit):
        generate_trace(config=config)
    with pytest.raises(ValueError, match=culprit):
        next(iter_trace_shards(config=config))


def test_generator_honours_a_service_with_no_files():
    trace = generate_trace(config=GeneratorConfig(
        services={"Box": (2, 0), "Dropbox": (1, 4)}))
    assert [record.service for record in trace] == ["Dropbox"] * 4


def test_cdf_is_monotone(trace):
    curve = size_cdf(trace)
    values = [p for _, p in curve]
    assert values == sorted(values)
    assert values[-1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_csv_roundtrip_preserves_analyses(tmp_path):
    trace = generate_trace(scale=0.01, seed=5)
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert len(loaded) == len(trace)
    assert duplicate_file_ratio(loaded) == pytest.approx(
        duplicate_file_ratio(trace))
    assert dedup_ratio(loaded, 512 * KB) == pytest.approx(
        dedup_ratio(trace, 512 * KB))
    assert compression_ratio(loaded) == pytest.approx(compression_ratio(trace))


def test_zip_roundtrip(tmp_path):
    trace = generate_trace(scale=0.005, seed=6)
    path = tmp_path / "trace.zip"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert len(loaded) == len(trace)
    assert summary_stats(loaded).mean_size == pytest.approx(
        summary_stats(trace).mean_size)
