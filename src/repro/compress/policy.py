"""Compression policies modelling the levels the paper observes (§5.1).

Experiment 4 distinguishes four behaviours per service × access method ×
direction:

* **no compression** (Google Drive, OneDrive, Box, SugarSync — everywhere;
  every service over the web upload path);
* **low-level compression** (Dropbox / Ubuntu One mobile uploads — "quite
  low", chosen "to reduce the battery consumption");
* **moderate compression** (Dropbox / Ubuntu One PC-client uploads);
* **high compression** (cloud-side recompression on the download path).

We realise the levels with real DEFLATE, but model "low/moderate" as
*segmented* streams — each segment compressed independently with a small
window, which is exactly how battery/latency-constrained clients trade ratio
for speed (and how Dropbox's chunked protocol behaves, since each 4 MB chunk
is compressed independently).  Smaller segments + lower zlib level ⇒ worse
ratio, reproducing the paper's ordering LOW > MODERATE > HIGH (in bytes).

A wire size is a pure function of (level, bytes), and the same bytes are
priced again by every profile that shares a level and by every repeat of a
cell, so :meth:`CompressionPolicy.wire_size` remembers it under the MD5 the
caller already holds (see :data:`WIRE_SIZE_MEMO_ENTRIES`).
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..content import Content


class CompressionLevel(enum.Enum):
    """Qualitative compression levels as classified by the paper."""

    NONE = "none"
    LOW = "low"
    MODERATE = "moderate"
    HIGH = "high"


@dataclass(frozen=True)
class _LevelParams:
    zlib_level: int
    segment: int      # bytes per independently compressed segment
    coverage: float   # fraction of each segment actually deflated (fast path)


_PARAMS = {
    # Mobile "quite low" level: small independent segments, minimum effort,
    # and a fast path that stores half of each segment uncompressed (the
    # battery-saving throughput heuristic low-power clients use).
    CompressionLevel.LOW: _LevelParams(zlib_level=1, segment=4 * 1024, coverage=0.5),
    # PC-client "moderate" level: mid-effort DEFLATE over modest segments
    # with a small stored fast path — lands near the paper's observed
    # Dropbox PC upload ratio (~57 % on the Experiment 4 text).
    CompressionLevel.MODERATE: _LevelParams(zlib_level=3, segment=16 * 1024, coverage=0.85),
    CompressionLevel.HIGH: _LevelParams(zlib_level=9, segment=1 << 62, coverage=1.0),
}


#: Wire sizes the memo holds before it evicts its oldest entry (FIFO).  A
#: ``sync-create`` pass prices 120 distinct (level, unit) pairs; at capacity
#: the memo holds about 1 MB (``tests/test_compress.py`` bounds it).
WIRE_SIZE_MEMO_ENTRIES = 4096

#: ``(level, md5, size) -> wire size`` for contents whose MD5 was already
#: computed.  Keying on a digest some other step paid for is what makes a
#: lookup cheaper than the DEFLATE it replaces; ``size`` keeps two byte
#: strings that were handed one digest apart.
_WIRE_SIZES: Dict[Tuple[CompressionLevel, str, int], int] = {}


class CompressionPolicy:
    """Compresses content (or predicts its wire size) at a qualitative level."""

    def __init__(self, level: CompressionLevel):
        self.level = level

    def __repr__(self) -> str:
        return f"CompressionPolicy({self.level.value})"

    @property
    def enabled(self) -> bool:
        return self.level is not CompressionLevel.NONE

    def compress(self, data: bytes) -> bytes:
        """Return the on-the-wire representation of ``data``."""
        if self.level is CompressionLevel.NONE:
            return data
        params = _PARAMS[self.level]
        if not data:
            return zlib.compress(data, params.zlib_level)
        pieces = []
        for offset in range(0, len(data), params.segment):
            segment = data[offset:offset + params.segment]
            split = int(len(segment) * params.coverage)
            pieces.append(zlib.compress(segment[:split], params.zlib_level))
            pieces.append(segment[split:])
        return b"".join(pieces)

    def wire_size(self, content: Content) -> int:
        """Bytes that cross the wire for ``content`` under this policy.

        Compression never expands the payload on the wire: real clients fall
        back to stored (uncompressed) framing when DEFLATE would grow the
        data, so the size is capped at the original.

        A content whose MD5 is already known (:attr:`Content.cached_md5`)
        is priced once per level and then looked up; any other is priced
        directly, because nothing hashes bytes only to look them up.
        """
        size = content.size
        if self.level is CompressionLevel.NONE or size == 0:
            return size
        digest = content.cached_md5
        if digest is None:
            return min(size, len(self.compress(content.data)))
        key = (self.level, digest, size)
        wire = _WIRE_SIZES.get(key)
        if wire is None:
            wire = min(size, len(self.compress(content.data)))
            if len(_WIRE_SIZES) >= WIRE_SIZE_MEMO_ENTRIES:
                del _WIRE_SIZES[next(iter(_WIRE_SIZES))]
            _WIRE_SIZES[key] = wire
        return wire

    def delta_wire_size(self, delta: Any) -> int:
        """Bytes that cross the wire for a delta stream (rsync or CDC):
        its literal runs joined and priced under this policy, plus the
        stream's framing and copy tokens as they are."""
        literals = b"".join(op.data for op in delta.ops
                            if hasattr(op, "data"))
        return (self.wire_size(Content(literals))
                + (delta.wire_size - len(literals)))

    def ratio(self, content: Content) -> float:
        """wire_size / original size (≤ 1.0 by the stored-fallback rule)."""
        if content.size == 0:
            return 1.0
        return self.wire_size(content) / content.size


NO_COMPRESSION = CompressionPolicy(CompressionLevel.NONE)
LOW_COMPRESSION = CompressionPolicy(CompressionLevel.LOW)
MODERATE_COMPRESSION = CompressionPolicy(CompressionLevel.MODERATE)
HIGH_COMPRESSION = CompressionPolicy(CompressionLevel.HIGH)
