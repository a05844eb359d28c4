"""Unit and property tests for the rsync delta engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.content import random_content, text_content
from repro.delta import (
    CopyOp,
    LiteralOp,
    apply_delta,
    compute_delta,
    compute_signature,
    diff_stats,
    weak_checksum,
)


# ---------------------------------------------------------------------------
# weak checksum (``RollingChecksum`` is pinned in test_reference_delta.py)
# ---------------------------------------------------------------------------

def test_weak_checksum_vectorised_matches_scalar():
    # Cross the numpy threshold (64 bytes) both ways.
    for size in (1, 63, 64, 65, 1000):
        data = random_content(size, seed=size).data
        a = sum(data) & 0xFFFF
        b = sum((len(data) - i) * byte for i, byte in enumerate(data)) & 0xFFFF
        assert weak_checksum(data) == ((b << 16) | a)


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

def test_signature_block_count():
    data = random_content(2500, seed=2).data
    signature = compute_signature(data, block_size=1000)
    assert [b.length for b in signature.blocks] == [1000, 1000, 500]
    assert signature.file_length == 2500


def test_signature_wire_size_scales_with_blocks():
    data = random_content(10_000, seed=3).data
    fine = compute_signature(data, block_size=100)
    coarse = compute_signature(data, block_size=5000)
    assert fine.wire_size > coarse.wire_size


def test_signature_invalid_block_size():
    with pytest.raises(ValueError):
        compute_signature(b"abc", block_size=0)


# ---------------------------------------------------------------------------
# delta round trips
# ---------------------------------------------------------------------------

def roundtrip(old: bytes, new: bytes, block_size: int = 512) -> None:
    signature = compute_signature(old, block_size)
    delta = compute_delta(signature, new)
    assert apply_delta(old, delta) == new
    return delta


def test_identical_files_ship_no_literals():
    data = random_content(8192, seed=4).data
    delta = roundtrip(data, data)
    assert delta.literal_bytes == 0


def test_one_byte_edit_ships_one_block():
    old = random_content(50_000, seed=5)
    new = old.modify_byte(25_000)
    delta = roundtrip(old.data, new.data, block_size=1000)
    assert delta.literal_bytes == 1000
    assert delta.wire_size < 1200


def test_append_ships_only_tail():
    old = random_content(10_000, seed=6)
    new = old.append(random_content(300, seed=7))
    delta = roundtrip(old.data, new.data, block_size=1000)
    # Tail = appended 300 bytes + displaced final short block (10_000 % 1000 == 0
    # means the old final block is full-size, so only the new tail is literal).
    assert delta.literal_bytes == 300


def test_prepend_resyncs_on_block_boundaries():
    old = random_content(10_000, seed=8)
    new_head = random_content(100, seed=9)
    new = new_head.append(old)
    delta = roundtrip(old.data, new.data, block_size=1000)
    # Blocks are head-aligned, so a 100-byte prepend misaligns everything...
    # but rsync's rolling match re-finds every old block at offset +100.
    assert delta.literal_bytes == pytest.approx(100, abs=1000)


def test_total_rewrite_ships_everything():
    old = random_content(5000, seed=10).data
    new = random_content(5000, seed=11).data
    delta = roundtrip(old, new, block_size=500)
    assert delta.literal_bytes == 5000


def test_empty_old_file():
    new = random_content(1234, seed=12).data
    delta = roundtrip(b"", new)
    assert delta.literal_bytes == 1234


def test_empty_new_file():
    old = random_content(1234, seed=13).data
    delta = roundtrip(old, b"")
    assert delta.literal_bytes == 0
    assert delta.ops == []


def test_signature_size_zero_explicit_branch():
    """An empty basis takes the explicit zero-length branch: no blocks,
    the requested block size preserved (never floored), header-only wire."""
    for block_size in (1, 512, 10 * 1024):
        signature = compute_signature(b"", block_size)
        assert signature.blocks == []
        assert signature.file_length == 0
        assert signature.block_size == block_size
        assert signature.wire_size == 16  # header only
    delta = compute_delta(compute_signature(b"", 512), b"")
    assert delta.ops == []
    assert delta.wire_size == 8  # stream header only
    assert apply_delta(b"", delta) == b""


def test_signature_size_one():
    """A one-byte basis is one short block, matchable like any other."""
    signature = compute_signature(b"x", 512)
    assert [(b.index, b.length) for b in signature.blocks] == [(0, 1)]
    assert signature.file_length == 1
    delta = compute_delta(signature, b"x")
    assert apply_delta(b"x", delta) == b"x"
    assert delta.literal_bytes <= 1
    # Size 1 -> 0 and 0 -> 1 round-trip through the same explicit branches.
    assert apply_delta(b"x", compute_delta(signature, b"")) == b""
    empty_sig = compute_signature(b"", 512)
    assert apply_delta(b"", compute_delta(empty_sig, b"y")) == b"y"


def test_cdc_delta_sizes_zero_and_one():
    """The CDC codec's zero-length branches mirror the rsync ones."""
    from repro.delta import apply_cdc_delta, cdc_chunk_list, compute_cdc_delta

    assert cdc_chunk_list(b"") == []
    empty = compute_cdc_delta(b"", b"")
    assert empty.ops == []
    assert apply_cdc_delta(b"", empty) == b""
    one_up = compute_cdc_delta(b"", b"z")
    assert apply_cdc_delta(b"", one_up) == b"z"
    one_down = compute_cdc_delta(b"z", b"")
    assert one_down.ops == []
    assert apply_cdc_delta(b"z", one_down) == b""
    same = compute_cdc_delta(b"z", b"z")
    assert apply_cdc_delta(b"z", same) == b"z"
    assert same.literal_bytes <= 1


def test_apply_delta_wrong_basis_rejected():
    old = random_content(1000, seed=14).data
    delta = compute_delta(compute_signature(old, 100), old)
    with pytest.raises(ValueError):
        apply_delta(old[:500], delta)


def test_apply_delta_missing_block_rejected():
    from repro.delta import Delta
    bad = Delta(block_size=100, basis_length=100, ops=[CopyOp(block_index=5)])
    with pytest.raises(ValueError):
        apply_delta(b"x" * 100, bad)


def test_adjacent_copies_coalesce():
    data = random_content(10_000, seed=15).data
    signature = compute_signature(data, 1000)
    delta = compute_delta(signature, data)
    assert len(delta.ops) == 1
    assert isinstance(delta.ops[0], CopyOp)
    assert delta.ops[0].count == 10


def test_wire_size_accounting():
    old = random_content(4000, seed=16)
    new = old.modify_byte(100)
    stats = diff_stats(old.data, new.data, block_size=500)
    assert stats.delta_wire_bytes >= stats.literal_bytes
    assert stats.delta_wire_bytes < stats.new_size
    assert stats.signature_wire_bytes > 0


@given(st.binary(max_size=4000), st.binary(max_size=4000),
       st.sampled_from([64, 128, 700, 1024]))
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(old, new, block_size):
    """apply(old, delta(sig(old), new)) == new for arbitrary inputs."""
    signature = compute_signature(old, block_size)
    delta = compute_delta(signature, new)
    assert apply_delta(old, delta) == new


@given(st.binary(min_size=1, max_size=2000),
       st.integers(min_value=0, max_value=1999),
       st.sampled_from([128, 512]))
@settings(max_examples=40, deadline=None)
def test_single_edit_literal_bounded_property(old, offset, block_size):
    """A one-byte edit never ships more than two blocks of literals."""
    offset = offset % len(old)
    new = bytearray(old)
    new[offset] = (new[offset] + 1) % 256
    signature = compute_signature(old, block_size)
    delta = compute_delta(signature, bytes(new))
    assert apply_delta(old, delta) == bytes(new)
    assert delta.literal_bytes <= 2 * block_size
