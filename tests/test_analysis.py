"""The §4.1 creation-batch rule of the trace analysis (trace.analysis)."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.trace import Trace, TraceRecord
from repro.trace.analysis import (
    BDS_BATCH_WINDOW,
    SMALL_FILE_THRESHOLD,
    creation_batch_flags,
)

from .reference_replay import reference_creation_batch_flags


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
