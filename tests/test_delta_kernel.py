"""Differential battery: ``compute_delta``'s scan-on-miss kernel against the
byte-at-a-time oracle in ``reference_delta.py``.

Equality is on the emitted ``ops`` list, not merely the round trip: the
kernel must find the *same first* match the rolling scan reaches, at every
block size, around every window edge, and under weak-checksum collisions.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.delta import (
    BlockSignature,
    CopyOp,
    FileSignature,
    LiteralOp,
    apply_delta,
    compute_delta,
    compute_signature,
    strong_hash,
    weak_checksum,
)
from repro.delta.delta import _MIN_SPAN
from repro.delta.rolling import window_digests

from .reference_delta import reference_compute_delta

BLOCK_SIZES = (1, 2, 63, 64, 700, 10240)


def span_of(block_size: int) -> int:
    return max(block_size, _MIN_SPAN)


def noise(rng: random.Random, length: int, alphabet: int = 256) -> bytes:
    if alphabet == 256:
        return rng.randbytes(length)
    return bytes(rng.choices(range(alphabet), k=length))


def assert_same_ops(signature: FileSignature, target: bytes):
    delta = compute_delta(signature, target)
    assert delta.ops == reference_compute_delta(signature, target).ops
    return delta


# ---------------------------------------------------------------------------
# the kernel alone
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("block_size", BLOCK_SIZES + (65536, 70_000))
def test_window_digests_equal_weak_checksum(block_size):
    rng = random.Random(block_size)
    data = noise(rng, 2 * block_size + 40) + b"\xff" * (block_size + 3)
    last = len(data) - block_size
    for start, stop in ((0, 1), (0, last + 1), (7, min(7 + block_size, last + 1)),
                        (last, last + 1), (last - 2, last + 1)):
        digests = window_digests(data, start, stop, block_size).tolist()
        step = max((stop - start) // 50, 1)
        assert len(digests) == stop - start
        for k in list(range(start, stop, step)) + [stop - 1]:
            assert digests[k - start] == weak_checksum(data[k:k + block_size])


# ---------------------------------------------------------------------------
# random targets and edit scripts
# ---------------------------------------------------------------------------

edit = st.tuples(
    st.sampled_from(["insert", "delete", "overwrite", "move", "duplicate"]),
    st.integers(0, 10**6),          # where, as a fraction of the target
    st.integers(0, 10**6),          # second position (move / duplicate source)
    st.sampled_from([1, 2, 37, -1, 0, 1, 3]),   # length: literal or B + n
    st.booleans())                  # length is relative to the block size


def apply_edits(rng, basis, edits, block_size, alphabet):
    target = bytearray(basis)
    for kind, where, source, length, relative in edits:
        length = max(block_size + length if relative else length, 1)
        at = where * len(target) // 10**6
        src = source * len(target) // 10**6
        if kind == "insert":
            target[at:at] = noise(rng, length, alphabet)
        elif kind == "delete":
            del target[at:at + length]
        elif kind == "overwrite":
            target[at:at + length] = noise(rng, min(length, len(target) - at),
                                           alphabet)
        else:
            # Block-aligned source so whole basis blocks reappear elsewhere.
            src -= src % block_size
            piece = bytes(target[src:src + 2 * block_size])
            if kind == "move":
                del target[src:src + len(piece)]
                at = min(at, len(target))
            target[at:at] = piece
    return bytes(target)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@given(seed=st.integers(0, 2**32), blocks=st.integers(0, 6),
       ragged=st.integers(0, 10**6), low_entropy=st.booleans(),
       edits=st.lists(edit, max_size=4), unrelated=st.booleans())
@settings(max_examples=50, deadline=None)
def test_ops_equal_reference(block_size, seed, blocks, ragged, low_entropy,
                             edits, unrelated):
    rng = random.Random(seed)
    # Two-letter data makes weak collisions, duplicate blocks and several
    # survivors per window routine; tiny blocks get more of them.
    alphabet = 2 if low_entropy else 256
    basis_len = blocks * block_size + ragged * block_size // 10**6
    if block_size <= 2:
        basis_len *= 40
    basis = noise(rng, basis_len, alphabet)
    if unrelated:
        target = noise(rng, basis_len + ragged % 97, alphabet)
    else:
        target = apply_edits(rng, basis, edits, block_size, alphabet)
    signature = compute_signature(basis, block_size)
    delta = assert_same_ops(signature, target)
    assert apply_delta(basis, delta) == target


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_degenerate_shapes(block_size):
    rng = random.Random(block_size)
    basis = noise(rng, 3 * block_size + block_size // 2)   # short final block
    signature = compute_signature(basis, block_size)
    tail = basis[3 * block_size:]
    for target in (b"", basis, basis[:block_size - 1], tail, b"x" + tail,
                   basis + tail, noise(rng, 5) + basis):
        assert_same_ops(signature, target)
    empty = compute_signature(b"", block_size)
    for target in (b"", b"y", basis):
        assert_same_ops(empty, target)


# ---------------------------------------------------------------------------
# window edges
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("lead_block", [False, True])
@pytest.mark.parametrize("suffix", [0, 1, 5])
def test_match_at_every_offset_around_the_span_edge(block_size, lead_block,
                                                    suffix):
    """A lone matching block ``gap`` bytes past a missed probe, for every
    gap around one and two spans — in particular ``span - 1`` (the last
    start one scan covers) and ``span`` (the next scan's aligned probe) —
    with the block also flush against end-of-file (``suffix == 0``: the
    last full-window start)."""
    rng = random.Random(block_size * 7 + suffix)
    span = span_of(block_size)
    blocks = [bytes([i]) * block_size if block_size <= 2
              else noise(rng, block_size) for i in (1, 2)]
    signature = compute_signature(b"".join(blocks), block_size)
    gaps = sorted({1, 2, block_size, span - 2, span - 1, span, span + 1,
                   2 * span - 1, 2 * span, 2 * span + 1})
    for gap in gaps:
        junk = b"\x00" * gap if block_size <= 2 else noise(rng, gap)
        trail = junk[:suffix]
        target = (blocks[0] if lead_block else b"") + junk + blocks[1] + trail
        expected = ([CopyOp(0)] if lead_block else []) \
            + [LiteralOp(junk), CopyOp(1)] \
            + ([LiteralOp(trail)] if trail else [])
        assert assert_same_ops(signature, target).ops == expected, gap


def test_first_of_several_survivors_wins():
    """A run of zeros offers a strong match at every start; the scan must
    take the earliest, as the rolling scan does."""
    for block_size in (2, 64, 700):
        signature = compute_signature(b"\x00" * (2 * block_size), block_size)
        target = b"\x01" * 5 + b"\x00" * (3 * block_size + 1) + b"\x01"
        delta = assert_same_ops(signature, target)
        assert delta.ops[:2] == [LiteralOp(b"\x01" * 5), CopyOp(0)]
        assert delta.literal_bytes == 5 + 1 + 1


# ---------------------------------------------------------------------------
# weak hit, strong miss
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("block_size", [1, 2, 63, 64, 700])
@pytest.mark.parametrize("forged_at", [0, 1, 9])
def test_forged_weak_hit_does_not_skip_the_window(block_size, forged_at):
    """The signature claims a block whose weak key equals the window's at
    ``forged_at`` but whose strong hash does not; a real block starts one
    byte later.  The scan must go on to that next byte."""
    rng = random.Random(block_size + forged_at)
    target = bytearray(noise(rng, forged_at + 3 * block_size + 11, 100))
    real_at = forged_at + 1
    target[real_at] = 200           # no earlier window can equal the real block
    target = bytes(target)
    real = target[real_at:real_at + block_size]
    forged = target[forged_at:forged_at + block_size]
    signature = FileSignature(
        block_size=block_size, file_length=2 * block_size,
        blocks=[
            BlockSignature(0, weak_checksum(forged), b"\x00" * 16, block_size),
            BlockSignature(1, weak_checksum(real), strong_hash(real), block_size),
        ])
    delta = assert_same_ops(signature, target)
    assert delta.ops[:2] == [LiteralOp(target[:real_at]), CopyOp(1)]


# ---------------------------------------------------------------------------
# memory: O(block_size), whatever the file length
# ---------------------------------------------------------------------------

def _transient_bytes(megabytes: int) -> int:
    """Peak traced memory inside one all-miss ``compute_delta``, net of the
    ops it returns."""
    rng = random.Random(megabytes)
    signature = compute_signature(rng.randbytes(megabytes << 20), 10240)
    target = rng.randbytes(megabytes << 20)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        delta = compute_delta(signature, target)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert delta.literal_bytes == len(target)
    return peak - after


def test_scan_memory_is_independent_of_file_length():
    small, large = _transient_bytes(4), _transient_bytes(8)
    assert small <= 2 << 20
    assert large <= 2 << 20
    assert abs(large - small) <= 64 << 10
