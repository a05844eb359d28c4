"""Differential battery: the trace statistics read from the one
first-occurrence dedup pass (``repro.trace.analysis.dedup_columns``)
against the record-at-a-time loops in ``reference_analysis.py``.

Equality is exact — every dedup ratio, the duplicate-byte share, each
dedup-scope ablation row, the compressible fraction and the per-service
user counts — on generated traces at every block granularity and scope.
A crafted trace pins the one place the two key rules part: a block's
identity is its segment ids, not ``(ids, length)``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts.ablations import DEDUP_CONFIGS, _uploaded_bytes
from repro.client import AccessMethod, service_profile
from repro.cloud import DedupConfig
from repro.trace import (
    BLOCK_GRANULARITIES,
    UNIT_SIZE,
    Trace,
    TraceRecord,
    compressible_fraction,
    dedup_columns,
    dedup_ratio,
    dedup_ratio_curve,
    duplicate_file_ratio,
    generate_trace,
    replay_trace,
    summary_stats,
)
from repro.units import KB, MB

from .reference_analysis import (
    reference_compressible_fraction,
    reference_deduplicated,
    reference_uploaded_bytes,
    reference_users,
)

#: Each ablation row's (block size, scope) as the loop spelled it.
ORACLE_CONFIGS = {
    "none": (None, None),
    "full-file / same-user": (None, "user"),
    "full-file / cross-user": (None, "global"),
    "4 MB blocks / same-user": (4 * MB, "user"),
    "4 MB blocks / cross-user": (4 * MB, "global"),
    "512 KB blocks / cross-user": (512 * KB, "global"),
}
GRANULARITIES = (*BLOCK_GRANULARITIES, None)


@pytest.fixture(scope="module", params=[(0.05, 42), (0.03, 7), (0.02, 5)],
                ids=lambda pair: f"scale{pair[0]}-seed{pair[1]}")
def trace(request):
    scale, seed = request.param
    return generate_trace(scale=scale, seed=seed)


def config(block_size, cross_user):
    return DedupConfig.full_file(cross_user) if block_size is None \
        else DedupConfig.block(block_size, cross_user)


def test_figure5_and_the_duplicate_share_equal_the_loop(trace):
    expected = []
    for block_size in GRANULARITIES:
        before, after = reference_deduplicated(trace, block_size)
        assert before == trace.total_bytes()
        expected.append((block_size, before / after if after else 1.0))
    assert dedup_ratio_curve(trace) == expected
    assert [(block_size, dedup_ratio(trace, block_size))
            for block_size in GRANULARITIES] == expected
    total, originals = reference_deduplicated(trace, None)
    assert duplicate_file_ratio(trace) == (total - originals) / total


@pytest.mark.parametrize("block_size", GRANULARITIES,
                         ids=lambda size: f"{size // KB}K" if size
                         else "full-file")
@pytest.mark.parametrize("scope", ["user", "global"])
def test_every_granularity_and_scope_ships_what_the_loop_ships(
        trace, block_size, scope):
    shipped, covered = dedup_columns(trace, config(block_size,
                                                   scope == "global"))
    assert sum(shipped.tolist()) \
        == reference_uploaded_bytes(trace, block_size, scope)
    assert np.all(shipped <= covered)
    if block_size is None:
        assert np.array_equal(covered, trace.size)


def test_the_ablation_rows_equal_the_loop(trace):
    assert [name for name, _ in DEDUP_CONFIGS] == list(ORACLE_CONFIGS)
    for name, dedup in DEDUP_CONFIGS:
        assert _uploaded_bytes(trace, dedup) \
            == reference_uploaded_bytes(trace, *ORACLE_CONFIGS[name]), name


def test_compressibility_and_users_equal_the_loop(trace):
    assert compressible_fraction(trace) \
        == reference_compressible_fraction(trace)
    users = trace.users()
    assert list(users.items()) == list(reference_users(trace).items())
    assert summary_stats(trace).user_count == sum(users.values())


def record(user, size, segments):
    return TraceRecord(user=user, service="X", path=f"{user}/{size}",
                       size=size, compressed_size=size, created_at=0.0,
                       modified_at=0.0, modify_count=0,
                       segments=np.asarray(segments, np.int64))


def test_a_block_is_its_segment_ids_in_figure5_and_the_replay():
    """A 50 KB ``[7]`` file and the first 128 KB block of a 256 KB
    ``[7, 8]`` file are one unit: the second file ships only its ``[8]``
    block, in Figure 5 and in the replay alike.  The loop's
    ``(ids, length)`` key told them apart."""
    trace = Trace.from_records([record("u0", 50 * KB, [7]),
                                record("u1", 256 * KB, [7, 8])])
    shipped, covered = dedup_columns(trace, config(UNIT_SIZE, True))
    assert shipped.tolist() == [50 * KB, 128 * KB]
    assert covered.tolist() == [50 * KB, 256 * KB]
    assert dedup_ratio(trace, UNIT_SIZE) == 306 / 178
    assert reference_deduplicated(trace, UNIT_SIZE) == (306 * KB, 306 * KB)
    profile = replace(service_profile("UbuntuOne", AccessMethod.PC),
                      dedup=config(UNIT_SIZE, True))
    alone = replay_trace(Trace.from_records([trace[1]]), profile)
    report = replay_trace(trace, profile)
    assert report.saved_by_dedup > 0
    assert alone.per_user_traffic["u1"] - report.per_user_traffic["u1"] \
        == report.saved_by_dedup


def test_an_empty_trace():
    empty = Trace.from_records([])
    for block_size in GRANULARITIES:
        for cross_user in (False, True):
            shipped, covered = dedup_columns(empty,
                                             config(block_size, cross_user))
            assert shipped.tolist() == covered.tolist() == []
        assert dedup_ratio(empty, block_size) == 1.0
    assert duplicate_file_ratio(empty) == 0.0
    assert compressible_fraction(empty) == 0.0
    assert empty.users() == {}
    assert [_uploaded_bytes(empty, dedup) for _, dedup in DEDUP_CONFIGS] \
        == [0] * len(DEDUP_CONFIGS)


def test_a_block_size_the_segments_cannot_align_is_refused():
    trace = generate_trace(scale=0.002, seed=1)
    with pytest.raises(ValueError, match="102400 is not a multiple"):
        dedup_ratio(trace, 100 * KB)
    with pytest.raises(ValueError, match="102400 is not a multiple"):
        dedup_ratio(Trace.from_records([]), 100 * KB)
