"""Content-defined-chunk delta — the CDC sibling of the rsync stream.

Where :mod:`repro.delta.delta` rolls a weak checksum at every byte offset
against a fixed-block signature, this codec cuts *both* versions with the
same gear-hash chunker (:mod:`repro.chunking.cdc`) and matches whole
chunks by strong digest.  Boundaries are content-defined, so an insertion
shifts only the chunks covering the edit; everything downstream still
matches without any rolling resynchronisation.

Wire-size accounting mirrors the rsync stream's conventions: a stream
header, a fixed-cost copy reference per matched chunk run, and
``LITERAL_HEADER_BYTES + len`` per literal run.  Copy references name a
``(offset, length)`` range of the basis (6 + 4 bytes plus framing), which
is costlier than rsync's 5-byte block index token — the price of
variable-size chunks, quantified by Experiment 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from ..chunking.cdc import DEFAULT_AVG, DEFAULT_MAX, DEFAULT_MIN, cdc_spans
from .delta import LITERAL_HEADER_BYTES
from .signature import strong_hash

#: Wire bytes per chunk-copy reference: 6 offset + 4 length + 2 framing.
CHUNK_REF_BYTES = 12
#: Stream header, matching the rsync delta stream's 8 bytes.
CDC_STREAM_HEADER_BYTES = 8


@dataclass(frozen=True)
class ChunkCopyOp:
    """Copy ``length`` basis bytes starting at ``offset``."""

    offset: int
    length: int


@dataclass(frozen=True)
class ChunkLiteralOp:
    """Raw bytes whose chunk digest had no match in the basis."""

    data: bytes


CdcOp = Union[ChunkCopyOp, ChunkLiteralOp]


@dataclass
class CdcDelta:
    """A CDC delta: ops plus the basis length needed to apply them."""

    basis_length: int
    ops: List[CdcOp]

    @property
    def literal_bytes(self) -> int:
        return sum(len(op.data) for op in self.ops
                   if isinstance(op, ChunkLiteralOp))

    @property
    def wire_size(self) -> int:
        """Bytes this delta occupies in the sync stream."""
        size = CDC_STREAM_HEADER_BYTES
        for op in self.ops:
            if isinstance(op, ChunkCopyOp):
                size += CHUNK_REF_BYTES
            else:
                size += LITERAL_HEADER_BYTES + len(op.data)
        return size


#: One CDC chunk of a file: ``(offset, length, md5 digest)``.
CdcChunk = Tuple[int, int, bytes]


def cdc_chunk_list(data: bytes,
                   min_size: int = DEFAULT_MIN,
                   avg_size: int = DEFAULT_AVG,
                   max_size: int = DEFAULT_MAX) -> List[CdcChunk]:
    """Every CDC chunk of ``data`` as ``(offset, length, md5 digest)``, in
    file order.

    The form both the CDC delta sender and the set-reconciliation sketch
    read a file through.  Zero-length data is an explicit branch (the
    empty-units convention): no chunks, never a phantom empty chunk.
    """
    if not data:
        return []
    return [(offset, length, strong_hash(data[offset:offset + length]))
            for offset, length in cdc_spans(data, min_size, avg_size,
                                            max_size)]


def chunk_list_delta(basis: Sequence[CdcChunk], basis_length: int,
                     new: bytes, chunks: Sequence[CdcChunk]) -> CdcDelta:
    """Delta that transforms a basis into ``new``, given the chunk lists
    of both (``chunks`` is ``new``'s).

    A new chunk matches the first basis chunk with its digest.  Adjacent
    matched chunks coalesce into one copy reference when they are
    contiguous in the basis; adjacent literal chunks coalesce into one run.
    """
    index: Dict[bytes, Tuple[int, int]] = {}
    for offset, length, digest in basis:
        index.setdefault(digest, (offset, length))
    ops: List[CdcOp] = []
    for offset, length, digest in chunks:
        match = index.get(digest)
        if match is not None:
            last = ops[-1] if ops else None
            if (isinstance(last, ChunkCopyOp)
                    and last.offset + last.length == match[0]):
                ops[-1] = ChunkCopyOp(last.offset, last.length + match[1])
            else:
                ops.append(ChunkCopyOp(match[0], match[1]))
            continue
        piece = new[offset:offset + length]
        last = ops[-1] if ops else None
        if isinstance(last, ChunkLiteralOp):
            ops[-1] = ChunkLiteralOp(last.data + piece)
        else:
            ops.append(ChunkLiteralOp(piece))
    return CdcDelta(basis_length=basis_length, ops=ops)


def compute_cdc_delta(old: bytes, new: bytes,
                      min_size: int = DEFAULT_MIN,
                      avg_size: int = DEFAULT_AVG,
                      max_size: int = DEFAULT_MAX) -> CdcDelta:
    """Delta that transforms ``old`` into ``new`` by whole-chunk matching
    (:func:`chunk_list_delta` over both files' chunk lists)."""
    return chunk_list_delta(
        cdc_chunk_list(old, min_size, avg_size, max_size), len(old),
        new, cdc_chunk_list(new, min_size, avg_size, max_size))


def apply_cdc_delta(basis: bytes, delta: CdcDelta) -> bytes:
    """Reconstruct the new file from the basis and a CDC delta."""
    if delta.basis_length != len(basis):
        raise ValueError(
            f"CDC delta was computed against a {delta.basis_length}-byte "
            f"basis, got {len(basis)} bytes")
    pieces: List[bytes] = []
    for op in delta.ops:
        if isinstance(op, ChunkLiteralOp):
            pieces.append(op.data)
            continue
        if op.offset < 0 or op.length < 0 \
                or op.offset + op.length > len(basis):
            raise ValueError(
                f"copy ref [{op.offset}, {op.offset + op.length}) falls "
                f"outside the {len(basis)}-byte basis")
        pieces.append(basis[op.offset:op.offset + op.length])
    return b"".join(pieces)
