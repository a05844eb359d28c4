"""Block signatures for the rsync algorithm.

The receiver (here: the client's shadow copy of the cloud file) splits the
basis file into fixed-size blocks and publishes, per block, a weak rolling
checksum plus a strong hash.  Signature *wire size* accounting matches the
rsync protocol: 4 bytes weak + truncated strong hash per block.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .rolling import weak_checksum

#: rsync's recommended default block size range is 700 B – 16 KB; the paper
#: estimates Dropbox's IDS granularity at ~10 KB, which we take as default.
DEFAULT_BLOCK_SIZE = 10 * 1024

#: Wire bytes per signature entry: 4 (weak) + 8 (truncated strong).
SIGNATURE_ENTRY_BYTES = 12


def strong_hash(data: bytes) -> bytes:
    """Strong per-block hash (MD5, as in rsync ≥3.0)."""
    return hashlib.md5(data).digest()


@dataclass
class BlockSignature:
    """Signature of one fixed-size block of the basis file."""

    index: int
    weak: int
    strong: bytes
    length: int


@dataclass
class FileSignature:
    """All block signatures of a basis file, indexed for O(1) weak lookup."""

    block_size: int
    file_length: int
    blocks: List[BlockSignature]
    _by_weak: Dict[int, List[BlockSignature]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._by_weak:
            for block in self.blocks:
                self._by_weak.setdefault(block.weak, []).append(block)

    def find(self, weak: int, window: bytes) -> Tuple[bool, int]:
        """Two-level match: weak first, strong on collision.

        Returns ``(matched, block_index)``; only full-size interior blocks
        and the (possibly short) final block of equal length can match.
        """
        entries = self._by_weak.get(weak)
        if not entries:
            return False, -1
        digest = None
        for block in entries:
            if block.length != len(window):
                continue
            if digest is None:
                digest = strong_hash(window)
            if block.strong == digest:
                return True, block.index
        return False, -1

    @property
    def wire_size(self) -> int:
        """Bytes needed to ship this signature over the network."""
        return len(self.blocks) * SIGNATURE_ENTRY_BYTES + 16  # + header


def compute_signature(data: bytes, block_size: int = DEFAULT_BLOCK_SIZE) -> FileSignature:
    """Build the signature of a basis file."""
    if block_size <= 0:
        raise ValueError("block size must be positive")
    if not data:
        # Explicit zero-length branch (the PR 7 empty-units convention):
        # an empty basis has no blocks — the block size is validated above
        # and never silently floored — and the signature still costs its
        # stream header on the wire.
        return FileSignature(block_size=block_size, file_length=0, blocks=[])
    blocks = []
    for index, offset in enumerate(range(0, len(data), block_size)):
        piece = data[offset:offset + block_size]
        blocks.append(BlockSignature(
            index=index,
            weak=weak_checksum(piece),
            strong=strong_hash(piece),
            length=len(piece),
        ))
    return FileSignature(block_size=block_size, file_length=len(data), blocks=blocks)
