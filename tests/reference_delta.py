"""Byte-at-a-time rsync scan — the oracle for ``repro.delta.compute_delta``.

This is the loop ``compute_delta`` was before its forward scan became a
windowed numpy kernel: a weak checksum held in two Python integers, rolled
one byte per step, with a dict probe at every position.  It lives here
(imported by nothing under ``src/``) because its arithmetic cannot wrap,
cast or reorder — ``_sums`` is the scalar definition only, no numpy — and
the differential battery in ``test_delta_kernel.py`` requires the kernel to
emit exactly these ops.  ``RollingChecksum`` moved with it and is pinned by
``test_reference_delta.py``.  The signature, the op classes and the strong
hash are the inputs and outputs under comparison, so they are shared.
"""

from typing import List, Tuple

from repro.delta import CopyOp, Delta, FileSignature, LiteralOp

_M16 = 0xFFFF


def _sums(data: bytes) -> Tuple[int, int]:
    length = len(data)
    a = 0
    b = 0
    for index, byte in enumerate(data):
        a += byte
        b += (length - index) * byte
    return a & _M16, b & _M16


def reference_weak_checksum(data: bytes) -> int:
    a, b = _sums(data)
    return (b << 16) | a


class RollingChecksum:
    """Incrementally maintained weak checksum over a sliding window.

    >>> rc = RollingChecksum(b"abcd")
    >>> rc.roll(ord("a"), ord("e"))  # window becomes b"bcde"
    >>> rc.digest == reference_weak_checksum(b"bcde")
    True
    """

    __slots__ = ("a", "b", "window_len")

    def __init__(self, window: bytes):
        self.window_len = len(window)
        self.a, self.b = _sums(window)

    @property
    def digest(self) -> int:
        return (self.b << 16) | self.a

    def roll(self, out_byte: int, in_byte: int) -> None:
        """Slide the window one byte: drop ``out_byte``, take in ``in_byte``."""
        self.a = (self.a - out_byte + in_byte) & _M16
        self.b = (self.b - self.window_len * out_byte + self.a) & _M16

    def roll_out(self, out_byte: int) -> None:
        """Shrink the window from the left (used at end-of-file tails)."""
        self.a = (self.a - out_byte) & _M16
        self.b = (self.b - self.window_len * out_byte) & _M16
        self.window_len -= 1


def reference_compute_delta(signature: FileSignature, new_data: bytes) -> Delta:
    block_size = signature.block_size
    if not new_data:
        return Delta(block_size=block_size,
                     basis_length=signature.file_length, ops=[])
    ops: List = []
    literal_start = 0
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

    by_weak = signature._by_weak
    roller = None

    while position + block_size <= n:
        if roller is None:
            roller = RollingChecksum(new_data[position:position + block_size])
        digest = roller.digest
        if digest in by_weak:
            matched, block_index = signature.find(
                digest, new_data[position:position + block_size])
            if matched:
                flush_literal(position)
                emit_copy(block_index)
                position += block_size
                literal_start = position
                roller = None
                continue
        next_end = position + block_size
        if next_end < n:
            roller.roll(new_data[position], new_data[next_end])
        position += 1

    remaining = n - position
    if remaining > 0:
        short_lengths = {blk.length for blk in signature.blocks
                         if blk.length < block_size}
        for length in sorted(short_lengths, reverse=True):
            if length > remaining:
                continue
            window = new_data[n - length:]
            matched, block_index = signature.find(
                reference_weak_checksum(window), window)
            if matched:
                flush_literal(n - length)
                emit_copy(block_index)
                literal_start = n
                break

    flush_literal(n)
    return Delta(block_size=block_size, basis_length=signature.file_length, ops=ops)
