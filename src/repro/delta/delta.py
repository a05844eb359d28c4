"""Delta computation and application — the sender side of rsync.

Given the signature of the basis file (the version the cloud already holds)
and the new file content, the sender walks the new file with a rolling
checksum.  On a two-level match it emits a block-copy token; otherwise it
rolls forward one byte, accumulating a literal run.  Applying the resulting
delta to the basis reconstructs the new file exactly (property-tested in
tests/test_delta.py).

Wire-size accounting mirrors the rsync stream: copy tokens cost a few bytes,
literals cost their length plus a small framing header.  This is what makes
the paper's observation quantitative — a one-byte edit in a Z-byte file
ships roughly one block (~10 KB for Dropbox) instead of Z bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

import numpy as np

from .rolling import weak_checksum, window_digests
from .signature import DEFAULT_BLOCK_SIZE, FileSignature, compute_signature

#: Wire bytes per copy token (block index + run length encoding).
COPY_TOKEN_BYTES = 5
#: Wire bytes of framing per literal run.
LITERAL_HEADER_BYTES = 4
#: Fewest window starts one scan covers: a kernel call costs ~10 µs whatever
#: its width up to a few hundred bytes, so tiny blocks scan this far per call.
_MIN_SPAN = 256


@dataclass(frozen=True)
class CopyOp:
    """Copy ``count`` consecutive basis blocks starting at ``block_index``."""

    block_index: int
    count: int = 1


@dataclass(frozen=True)
class LiteralOp:
    """Raw bytes that had no match in the basis file."""

    data: bytes


DeltaOp = Union[CopyOp, LiteralOp]


@dataclass
class Delta:
    """An rsync delta: ops plus the basis geometry needed to apply them."""

    block_size: int
    basis_length: int
    ops: List[DeltaOp]

    @property
    def literal_bytes(self) -> int:
        return sum(len(op.data) for op in self.ops if isinstance(op, LiteralOp))

    @property
    def wire_size(self) -> int:
        """Bytes this delta occupies in the sync stream."""
        size = 8  # stream header
        for op in self.ops:
            if isinstance(op, CopyOp):
                size += COPY_TOKEN_BYTES
            else:
                size += LITERAL_HEADER_BYTES + len(op.data)
        return size


def compute_delta(signature: FileSignature, new_data: bytes) -> Delta:
    """Compute the delta that transforms the basis into ``new_data``.

    One aligned probe per position carries runs of matched blocks.  On a
    miss, ``window_digests`` gives the weak digest of every window start in
    the next ``span`` bytes, ``np.isin`` keeps those the signature knows,
    and they are strong-checked in ascending order: the first match is the
    one a byte-by-byte roll would reach.  Once fewer than ``block_size``
    bytes remain only a basis block of exactly the remaining length can
    still match, so the tail is one direct check, not a shrinking roll.
    """
    block_size = signature.block_size
    if not new_data:
        # Explicit zero-length branch (the PR 7 empty-units convention):
        # an empty target needs no scan and ships no ops, only the stream
        # header wire_size accounts for.
        return Delta(block_size=block_size,
                     basis_length=signature.file_length, ops=[])
    ops: List[DeltaOp] = []
    literal_start = 0  # start of the current unmatched run
    position = 0
    n = len(new_data)

    def flush_literal(up_to: int) -> None:
        nonlocal literal_start
        if up_to > literal_start:
            ops.append(LiteralOp(new_data[literal_start:up_to]))
        literal_start = up_to

    def emit_copy(block_index: int) -> None:
        last = ops[-1] if ops else None
        if isinstance(last, CopyOp) and last.block_index + last.count == block_index:
            ops[-1] = CopyOp(last.block_index, last.count + 1)
        else:
            ops.append(CopyOp(block_index))

    weak_keys = np.fromiter(signature._by_weak, dtype=np.uint32,
                            count=len(signature._by_weak))
    span = max(block_size, _MIN_SPAN)

    while position + block_size <= n:
        window = new_data[position:position + block_size]
        matched, block_index = signature.find(weak_checksum(window), window)
        if not matched:
            first = position + 1
            stop = min(position + span, n - block_size + 1)
            digests = window_digests(new_data, first, stop, block_size)
            hits = first + np.flatnonzero(np.isin(digests, weak_keys))
            for at in hits.tolist():
                matched, block_index = signature.find(
                    int(digests[at - first]), new_data[at:at + block_size])
                if matched:
                    position = at
                    break
            else:
                position = stop
                continue
        flush_literal(position)
        emit_copy(block_index)
        position += block_size
        literal_start = position

    # Tail: fewer than block_size bytes remain.  In the classic shrinking-
    # window scan the window is always flush against the end of file here,
    # so the only possible match is the basis's own short final block, of
    # some fixed length L, at new-file offset n − L.  Check that one
    # alignment directly instead of rolling byte by byte.
    remaining = n - position
    if remaining > 0:
        short_lengths = {blk.length for blk in signature.blocks
                         if blk.length < block_size}
        for length in sorted(short_lengths, reverse=True):
            if length > remaining:
                continue
            window = new_data[n - length:]
            matched, block_index = signature.find(weak_checksum(window), window)
            if matched:
                flush_literal(n - length)
                emit_copy(block_index)
                literal_start = n
                break

    flush_literal(n)
    return Delta(block_size=block_size, basis_length=signature.file_length, ops=ops)


def apply_delta(basis: bytes, delta: Delta) -> bytes:
    """Reconstruct the new file from the basis and a delta."""
    block_size = delta.block_size
    if delta.basis_length != len(basis):
        raise ValueError(
            f"delta was computed against a {delta.basis_length}-byte basis, "
            f"got {len(basis)} bytes")
    pieces: List[bytes] = []
    for op in delta.ops:
        if isinstance(op, LiteralOp):
            pieces.append(op.data)
            continue
        start = op.block_index * block_size
        end = start + op.count * block_size
        if start >= len(basis) or op.block_index < 0:
            raise ValueError(f"copy op references missing block {op.block_index}")
        pieces.append(basis[start:min(end, len(basis))])
    return b"".join(pieces)


def diff_stats(old: bytes, new: bytes,
               block_size: int = DEFAULT_BLOCK_SIZE) -> "DeltaStats":
    """One-call convenience: signature + delta + verified round trip."""
    signature = compute_signature(old, block_size)
    delta = compute_delta(signature, new)
    if apply_delta(old, delta) != new:
        raise AssertionError("rsync round-trip failed; this is a bug")
    return DeltaStats(
        block_size=block_size,
        old_size=len(old),
        new_size=len(new),
        literal_bytes=delta.literal_bytes,
        delta_wire_bytes=delta.wire_size,
        signature_wire_bytes=signature.wire_size,
        op_count=len(delta.ops),
    )


@dataclass(frozen=True)
class DeltaStats:
    """Summary of a delta-sync exchange, for reports and tests."""

    block_size: int
    old_size: int
    new_size: int
    literal_bytes: int
    delta_wire_bytes: int
    signature_wire_bytes: int
    op_count: int
