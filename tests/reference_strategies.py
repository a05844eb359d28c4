"""From-scratch strategy plans — the oracle for the client's per-path records.

These are the plan builders the strategies had before the client kept one
``FileRecord`` per synced version: the basis signature computed on every
sync, the CDC delta built from two byte strings (a digest map of the basis,
then a walk over the new file's chunks), and set reconciliation's server
mirror re-chunked from every synced file's bytes on every plan.  They keep
no state between calls and read only bytes — the path's synced content,
every synced content for the mirror, and the new content — so nothing a
record remembers can leak into them.  The reference strategies subclass
the real ones and replace only ``_plan``: the wire shape, the cpu charge
and the server calls under comparison stay shared.
"""

import hashlib
from typing import Any, Dict, List, Tuple

from repro.chunking import cdc_spans, fingerprint
from repro.chunking.cdc import DEFAULT_AVG, DEFAULT_MAX, DEFAULT_MIN
from repro.client.strategies import (
    AdaptiveSelector,
    CdcDeltaStrategy,
    FixedBlockDeltaStrategy,
    FullFileStrategy,
    SetReconcileStrategy,
    SyncStrategy,
)
from repro.client.strategies.reconcile import _ReconPlan
from repro.content import Content
from repro.delta import (
    DEFAULT_BLOCK_SIZE,
    CdcDelta,
    ChunkCopyOp,
    ChunkLiteralOp,
    compute_delta,
    compute_signature,
)


def chunk_digest_map(data: bytes, min_size: int, avg_size: int,
                     max_size: int) -> Dict[bytes, Tuple[int, int]]:
    """MD5 digest -> first ``(offset, length)`` of each CDC chunk."""
    if not data:
        return {}
    index: Dict[bytes, Tuple[int, int]] = {}
    for offset, length in cdc_spans(data, min_size, avg_size, max_size):
        index.setdefault(hashlib.md5(data[offset:offset + length]).digest(),
                         (offset, length))
    return index


def reference_compute_cdc_delta(old: bytes, new: bytes,
                                min_size: int = DEFAULT_MIN,
                                avg_size: int = DEFAULT_AVG,
                                max_size: int = DEFAULT_MAX) -> CdcDelta:
    basis = chunk_digest_map(old, min_size, avg_size, max_size)
    ops: List[Any] = []
    if not new:
        return CdcDelta(basis_length=len(old), ops=ops)
    for offset, length in cdc_spans(new, min_size, avg_size, max_size):
        piece = new[offset:offset + length]
        match = basis.get(hashlib.md5(piece).digest())
        last = ops[-1] if ops else None
        if match is not None:
            if (isinstance(last, ChunkCopyOp)
                    and last.offset + last.length == match[0]):
                ops[-1] = ChunkCopyOp(last.offset, last.length + match[1])
            else:
                ops.append(ChunkCopyOp(match[0], match[1]))
        elif isinstance(last, ChunkLiteralOp):
            ops[-1] = ChunkLiteralOp(last.data + piece)
        else:
            ops.append(ChunkLiteralOp(piece))
    return CdcDelta(basis_length=len(old), ops=ops)


def _delta_plan(client: Any, delta: Any) -> Tuple[Any, int]:
    literals = b"".join(op.data for op in delta.ops if hasattr(op, "data"))
    wire = client.profile.upload_compression.wire_size(Content(literals))
    return delta, wire + (delta.wire_size - len(literals))


class ReferenceFixedDelta(FixedBlockDeltaStrategy):
    def _plan(self, client, path, content):
        old = client._records[path].content
        block = client.profile.delta_block or DEFAULT_BLOCK_SIZE
        return _delta_plan(client, compute_delta(
            compute_signature(old.data, block), content.data))


class ReferenceCdcDelta(CdcDeltaStrategy):
    def _plan(self, client, path, content):
        old = client._records[path].content
        return _delta_plan(client,
                           reference_compute_cdc_delta(old.data, content.data))


class ReferenceSetReconcile(SetReconcileStrategy):
    def _plan(self, client, path, content):
        digests: List[str] = []
        pieces: Dict[str, bytes] = {}
        for offset, length in cdc_spans(content.data):
            piece = content.data[offset:offset + length]
            digest = fingerprint(piece)
            digests.append(digest)
            pieces.setdefault(digest, piece)
        mirror = set()
        for record in client._records.values():
            basis = record.content
            if basis.size == 0:
                continue
            for offset, length in cdc_spans(basis.data):
                mirror.add(fingerprint(basis.data[offset:offset + length]))
        missing = [digest for digest in pieces if digest not in mirror]
        return _ReconPlan(digests, pieces, missing)


REFERENCE_CANDIDATES = (FullFileStrategy, ReferenceFixedDelta,
                        ReferenceCdcDelta, ReferenceSetReconcile)


def reference_strategy(name: str) -> SyncStrategy:
    """The oracle twin of ``make_strategy(name)`` for the record readers."""
    if name == "adaptive":
        return AdaptiveSelector(
            candidates=[cls() for cls in REFERENCE_CANDIDATES])
    by_name = {cls.name: cls for cls in REFERENCE_CANDIDATES}
    return by_name[name]()
