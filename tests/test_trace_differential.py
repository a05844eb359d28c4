"""Differential battery: the flattened generator against its record-at-a-time
oracle (``tests/reference_generator.py``).

The golden pins three plans byte for byte; this holds the generator to the
pre-flattening code over any plan — 1–6 services (names may differ only by
case, so two services can share user names), 1–40 users, 0–400 files, any
seed — field by field and segment by segment, on both the record stream and
the shard stream.  The bounded draw's half-word buffer is what makes this
worth running: it is carried across services, bursts and the three draw
sites, and one misplaced half-word moves every later record.
"""

import tracemalloc

from hypothesis import example, given, settings, strategies as st

from repro.trace import GeneratorConfig, iter_trace_records, iter_trace_shards

from .reference_generator import reference_records, reference_shards

PLANS = st.dictionaries(
    st.text(alphabet="abAB", min_size=1, max_size=3),
    st.tuples(st.integers(min_value=1, max_value=40),
              st.integers(min_value=0, max_value=400)),
    min_size=1, max_size=6)
SEEDS = st.integers(min_value=0, max_value=2 ** 64 - 1)


def fields(record):
    """Every field with its type, segments as dtype and values."""
    scalars = (record.user, record.service, record.path, record.size,
               record.compressed_size, record.created_at, record.modified_at,
               record.modify_count, record.content_id)
    return ([(type(value), value) for value in scalars],
            record.segments.dtype.str, record.segments.tolist())


@given(plan=PLANS, seed=SEEDS)
@example(plan={"Dropbox": (3, 400), "Box": (1, 0), "box": (2, 1)}, seed=42)
@example(plan={"a": (1, 1)}, seed=0)
@settings(max_examples=40, deadline=None)
def test_record_stream_equals_the_oracle(plan, seed):
    config = GeneratorConfig(seed=seed, services=plan)
    ours = [fields(record) for record in iter_trace_records(config=config)]
    assert ours == [fields(record)
                    for record in reference_records(plan, seed)]
    assert len(ours) == sum(files for _, files in plan.values())


@given(plan=PLANS, seed=SEEDS,
       shard_users=st.integers(min_value=1, max_value=10))
@example(plan={"Dropbox": (12, 300), "dropbox": (5, 40)}, seed=7,
         shard_users=4)
@settings(max_examples=30, deadline=None)
def test_shard_stream_equals_the_oracle(plan, seed, shard_users):
    config = GeneratorConfig(seed=seed, services=plan)
    ours = [[fields(record) for record in shard]
            for shard in iter_trace_shards(shard_users=shard_users,
                                           config=config)]
    assert ours == [[fields(record) for record in shard]
                    for shard in reference_shards(plan, seed, shard_users)]


def _streaming_peak(records) -> int:
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        count = sum(1 for _ in records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count
    return peak - base


def test_streaming_peak_is_no_higher_than_the_oracle():
    """Streaming holds the duplicate-sampling pool plus one record, and
    four pool columns hold less than a frozen dataclass per original."""
    plan = GeneratorConfig(scale=0.02, seed=42).service_plan()
    ours = _streaming_peak(iter_trace_records(scale=0.02, seed=42))
    oracle = _streaming_peak(reference_records(plan, 42))
    assert ours <= oracle

