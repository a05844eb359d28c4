"""Trace record schema (the paper's Table 3).

Each tracked file carries: user name, file name, original and compressed
size, creation and last-modification time, full-file MD5, and block-level
MD5 hash codes at 128 KB … 16 MB granularities.

The real trace's contents are unavailable (the published link is dead), so
records carry a *segment identity* instead of bytes: every 128 KB unit of a
file has an abstract segment id; duplicate files share all ids,
near-duplicate files share a prefix.  Block fingerprints at any granularity
are derived from the covered segment ids on demand — byte-free, but with
exactly the collision structure a real block-hash trace exhibits, which is
all the paper's trace analyses (Figures 2 and 5, §4/§5 statistics) consume.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..units import KB, MB

#: The segment granularity underlying block fingerprints.
UNIT_SIZE = 128 * KB

#: The paper's recorded block-hash granularities (Table 3).
BLOCK_GRANULARITIES = (128 * KB, 256 * KB, 512 * KB, 1 * MB, 2 * MB,
                       4 * MB, 8 * MB, 16 * MB)


@dataclass
class FileRecord:
    """One tracked file (one row of the paper's trace)."""

    user: str
    service: str
    path: str
    size: int
    compressed_size: int
    created_at: float
    modified_at: float
    modify_count: int
    #: Abstract 128 KB segment ids; identity of the file's content.
    segments: np.ndarray = field(repr=False)
    #: Shared by exact duplicates; unique otherwise.
    content_id: int = 0

    def __post_init__(self) -> None:
        if self.size < 0 or self.compressed_size < 0:
            raise ValueError("sizes must be non-negative")
        if self.modified_at < self.created_at:
            raise ValueError("modification cannot precede creation")

    @property
    def compression_ratio(self) -> float:
        """compressed/original (≤ 1.0); 1.0 for empty files."""
        if self.size == 0:
            return 1.0
        return self.compressed_size / self.size

    @property
    def effectively_compressible(self) -> bool:
        """The paper's definition: compresses below 90 % of original."""
        return self.compression_ratio < 0.90

    @property
    def was_modified(self) -> bool:
        return self.modify_count > 0

    @property
    def md5(self) -> str:
        """Full-file fingerprint derived from the content identity."""
        raw = self.segments.tobytes() + self.size.to_bytes(8, "little")
        return hashlib.md5(raw).hexdigest()

    def full_file_key(self) -> Tuple[bytes, int]:
        """Hashable identity for full-file dedup analysis."""
        return (self.segments.tobytes(), self.size)

    def block_keys(self, block_size: int) -> Iterator[Tuple[bytes, int]]:
        """(identity, length) per block at ``block_size`` granularity.

        Blocks are head-aligned and fixed-size (§5.2); the final block is
        short.  Identity is the tuple of covered segment ids, so two files
        sharing a prefix share exactly the aligned prefix blocks.
        """
        if block_size % UNIT_SIZE != 0:
            raise ValueError(f"block size must be a multiple of {UNIT_SIZE}")
        units_per_block = block_size // UNIT_SIZE
        remaining = self.size
        segments = self.segments
        for start in range(0, len(segments), units_per_block):
            ids = segments[start:start + units_per_block]
            length = min(block_size, remaining)
            remaining -= length
            yield (ids.tobytes(), length)

    def block_md5s(self, block_size: int) -> List[str]:
        """Block-level MD5 hash codes as the trace records them."""
        return [
            hashlib.md5(identity + length.to_bytes(8, "little")).hexdigest()
            for identity, length in self.block_keys(block_size)
        ]


@dataclass
class Trace:
    """A full collected trace: many users, many files, several services."""

    records: List[FileRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[FileRecord]:
        return iter(self.records)

    def by_service(self) -> Dict[str, List[FileRecord]]:
        out: Dict[str, List[FileRecord]] = {}
        for record in self.records:
            out.setdefault(record.service, []).append(record)
        return out

    def user_file_counts(self) -> Dict[str, int]:
        """user → file count, ordered by first appearance in the trace."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.user] = counts.get(record.user, 0) + 1
        return counts

    def users(self) -> Dict[str, int]:
        """service → distinct user count (the paper's Table 2)."""
        seen: Dict[str, set] = {}
        for record in self.records:
            seen.setdefault(record.service, set()).add(record.user)
        return {service: len(users) for service, users in seen.items()}

    def total_bytes(self) -> int:
        return sum(record.size for record in self.records)

    def total_compressed_bytes(self) -> int:
        return sum(record.compressed_size for record in self.records)

    def sizes(self, compressed: bool = False) -> np.ndarray:
        if compressed:
            return np.array([r.compressed_size for r in self.records], dtype=np.int64)
        return np.array([r.size for r in self.records], dtype=np.int64)
