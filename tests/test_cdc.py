"""Tests for content-defined chunking (the §5.2 footnote counterfactual)."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chunking import cdc as cdc_module
from repro.chunking import cdc_chunks, cdc_spans, chunk_data, shared_bytes
from repro.chunking.cdc import DEFAULT_AVG, DEFAULT_MAX, DEFAULT_MIN
from repro.content import random_content

from .reference_cdc import _GEAR, reference_cdc_spans


def test_spans_partition_exactly():
    data = random_content(300_000, seed=1).data
    spans = cdc_spans(data)
    assert spans[0][0] == 0
    total = 0
    for offset, length in spans:
        assert offset == total
        total += length
    assert total == len(data)


def test_span_length_bounds():
    data = random_content(500_000, seed=2).data
    for offset, length in cdc_spans(data)[:-1]:   # final chunk may be short
        assert DEFAULT_MIN <= length <= DEFAULT_MAX


def test_mean_chunk_near_average():
    data = random_content(1_000_000, seed=3).data
    spans = cdc_spans(data)
    mean = len(data) / len(spans)
    assert DEFAULT_AVG / 2 < mean < DEFAULT_AVG * 2


def test_empty_data():
    assert cdc_spans(b"") == [(0, 0)]


def test_parameter_validation():
    with pytest.raises(ValueError):
        cdc_spans(b"x", min_size=0)
    with pytest.raises(ValueError):
        cdc_spans(b"x", min_size=100, avg_size=50, max_size=200)


def test_min_size_below_hash_window_is_rejected():
    """The windowed hash equals the rolled one only while its ``b``-byte
    window fits inside the current chunk, i.e. for ``min_size >= b``."""
    for low, avg in ((12, 8192), (16, 1 << 17), (1, 4)):
        with pytest.raises(ValueError, match="min_size >= log2"):
            cdc_spans(b"x" * 100, min_size=low, avg_size=avg, max_size=avg)
    assert cdc_spans(b"x" * 100, min_size=13, avg_size=8192,
                     max_size=8192) == [(0, 100)]


def test_deterministic():
    data = random_content(100_000, seed=4).data
    assert cdc_spans(data) == cdc_spans(data)


def test_insert_resilience_beats_fixed():
    """The whole point: a front insert destroys fixed-block alignment but
    leaves content-defined boundaries nearly intact."""
    old = random_content(400_000, seed=5).data
    new = b"PREFIX" + old
    fixed = lambda d: chunk_data(d, 8192)
    cdc = lambda d: cdc_chunks(d)
    assert shared_bytes(old, new, fixed) == 0
    assert shared_bytes(old, new, cdc) > 0.9 * len(old)


def test_identical_data_fully_shared():
    data = random_content(200_000, seed=6).data
    assert shared_bytes(data, data, cdc_chunks) == len(data)


def test_chunks_reassemble():
    data = random_content(150_000, seed=7).data
    chunks = cdc_chunks(data)
    assert b"".join(chunk.data for chunk in chunks) == data


@given(st.binary(min_size=1, max_size=60_000),
       st.integers(min_value=0, max_value=59_999),
       st.binary(min_size=1, max_size=200))
@settings(max_examples=25, deadline=None)
def test_insert_property(data, offset, patch):
    """For any insert, CDC shares at least as many bytes as fixed blocks."""
    offset = offset % (len(data) + 1)
    new = data[:offset] + patch + data[offset:]
    fixed = lambda d: chunk_data(d, 4096)
    cdc = lambda d: cdc_chunks(d, min_size=512, avg_size=2048, max_size=8192)
    assert shared_bytes(data, new, cdc) >= 0
    spans_ok = cdc_spans(new, min_size=512, avg_size=2048, max_size=8192)
    assert sum(length for _, length in spans_ok) == len(new)


# -- the numpy kernel against the per-byte oracle ---------------------------

#: (min_size, avg_size, max_size): library defaults, the Hypothesis
#: property's sizes, min_size == b (13 and 6), min == avg == max, the
#: 1-bit hash, and b = 17 (uint32 lane).
_GRID = [(DEFAULT_MIN, DEFAULT_AVG, DEFAULT_MAX), (512, 2048, 8192),
         (13, 8192, 9000), (6, 64, 300), (64, 64, 64), (1, 1, 1), (1, 3, 7),
         (17, 1 << 17, 1 << 18)]
#: Block sizes the kernel is run at: the shipped one, one so small that
#: every chunk spans several blocks, and one that is not a power of two.
_BLOCKS = [cdc_module._BLOCK, 64, 1000]


def _content(kind, size, seed):
    if kind == "zeros":
        return bytes(size)
    if kind == "random":
        return random_content(size, seed=seed).data
    period = random_content(seed % 8 + 1, seed=seed).data
    return (period * (size // len(period) + 1))[:size]


@given(params=st.sampled_from(_GRID), block=st.sampled_from(_BLOCKS),
       kind=st.sampled_from(["random", "zeros", "period"]),
       seed=st.integers(0, 2 ** 32),
       anchor=st.sampled_from(["empty", "min", "max", "block", "blocks",
                               "free"]),
       delta=st.integers(-70, 70), free=st.integers(0, 20_000))
@example(params=_GRID[0], block=cdc_module._BLOCK, kind="random", seed=42,
         anchor="block", delta=12, free=0)
@example(params=_GRID[0], block=cdc_module._BLOCK, kind="random", seed=9,
         anchor="blocks", delta=-13, free=0)
@example(params=_GRID[0], block=1000, kind="random", seed=3,
         anchor="max", delta=1, free=0)
@example(params=_GRID[0], block=64, kind="zeros", seed=0,
         anchor="max", delta=-1, free=0)
@example(params=_GRID[2], block=64, kind="random", seed=5,
         anchor="free", delta=0, free=20_000)
@example(params=_GRID[3], block=64, kind="period", seed=7,
         anchor="blocks", delta=5, free=0)
@example(params=_GRID[3], block=1000, kind="random", seed=11,
         anchor="min", delta=-1, free=0)
@example(params=_GRID[4], block=64, kind="random", seed=1,
         anchor="block", delta=1, free=0)
@example(params=_GRID[5], block=64, kind="period", seed=2,
         anchor="free", delta=0, free=999)
@example(params=_GRID[6], block=1000, kind="random", seed=8,
         anchor="free", delta=0, free=4097)
@example(params=_GRID[7], block=cdc_module._BLOCK, kind="random", seed=6,
         anchor="blocks", delta=17, free=0)
@example(params=_GRID[1], block=1000, kind="zeros", seed=0,
         anchor="empty", delta=1, free=0)
@example(params=_GRID[1], block=1000, kind="random", seed=0,
         anchor="empty", delta=0, free=0)
@settings(max_examples=60, deadline=None)
def test_kernel_equals_per_byte_oracle(params, block, kind, seed, anchor,
                                       delta, free):
    """``cdc_spans`` is the per-byte loop, span for span: sizes 0 and 1,
    min/max ± 1, block edges ± the hash window, degenerate content."""
    base = {"empty": 0, "min": params[0], "max": params[2], "block": block,
            "blocks": 3 * block, "free": free}[anchor]
    data = _content(kind, max(base + delta, 0), seed)
    with mock.patch.object(cdc_module, "_BLOCK", block):
        assert cdc_spans(data, *params) == reference_cdc_spans(data, *params)


def test_kernel_cuts_on_the_hash_in_the_uint32_lane():
    """b = 17 on 1 MB: hash cuts are rare, so pin that some happen (a span
    shorter than max_size that is not the tail) and match the oracle."""
    data = random_content(1_000_000, seed=17).data
    params = (17, 1 << 17, 1 << 19)
    spans = cdc_spans(data, *params)
    assert any(length < params[2] for _, length in spans[:-1])
    assert spans == reference_cdc_spans(data, *params)


@pytest.mark.parametrize("bits", [1, 13, 16, 17, 32, 33, 64, 70])
def test_window_hashes_equal_the_rolled_hash_in_every_lane(bits):
    """Hash cuts at b > 17 are too rare to reach through ``cdc_spans``, so
    the uint32/uint64 lanes are pinned one level down: every position's
    masked hash is that of a 64-bit hash rolled from the first byte."""
    data = random_content(3000, seed=bits).data
    hashes = cdc_module._window_hashes(
        np.frombuffer(data, dtype=np.uint8), bits)
    mask = (1 << min(bits, 64)) - 1
    fp = 0
    for position, byte in enumerate(data):
        fp = ((fp << 1) + _GEAR[byte]) & ((1 << 64) - 1)
        assert int(hashes[position]) == fp & mask, position


def test_working_memory_is_bounded_by_the_block_not_the_file():
    """Deterministic (no timing): on 16 MiB = 128 blocks the traced peak
    stays within a few block-sized arrays plus the spans handed back, so
    one O(file) temporary — even a byte per position — fails this."""
    data = random_content(16 * 1024 * 1024, seed=0).data
    tracemalloc.start()
    try:
        spans = cdc_spans(data)
        returned, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spans) > 256
    assert peak < 32 * cdc_module._BLOCK + returned
