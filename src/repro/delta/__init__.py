"""rsync-style delta sync: rolling checksum, signatures, delta streams."""

from .cdc_delta import (
    CDC_STREAM_HEADER_BYTES,
    CHUNK_REF_BYTES,
    CdcChunk,
    CdcDelta,
    ChunkCopyOp,
    ChunkLiteralOp,
    apply_cdc_delta,
    cdc_chunk_list,
    chunk_list_delta,
    compute_cdc_delta,
)
from .delta import (
    COPY_TOKEN_BYTES,
    LITERAL_HEADER_BYTES,
    CopyOp,
    Delta,
    DeltaStats,
    LiteralOp,
    apply_delta,
    compute_delta,
    diff_stats,
)
from .rolling import weak_checksum
from .signature import (
    DEFAULT_BLOCK_SIZE,
    SIGNATURE_ENTRY_BYTES,
    BlockSignature,
    FileSignature,
    compute_signature,
    strong_hash,
)

__all__ = [
    "BlockSignature",
    "CDC_STREAM_HEADER_BYTES",
    "CHUNK_REF_BYTES",
    "COPY_TOKEN_BYTES",
    "CdcChunk",
    "CdcDelta",
    "ChunkCopyOp",
    "ChunkLiteralOp",
    "CopyOp",
    "DEFAULT_BLOCK_SIZE",
    "Delta",
    "DeltaStats",
    "apply_cdc_delta",
    "cdc_chunk_list",
    "chunk_list_delta",
    "compute_cdc_delta",
    "FileSignature",
    "LITERAL_HEADER_BYTES",
    "LiteralOp",
    "SIGNATURE_ENTRY_BYTES",
    "apply_delta",
    "compute_delta",
    "compute_signature",
    "diff_stats",
    "strong_hash",
    "weak_checksum",
]
