"""Compression engine: qualitative levels backed by real DEFLATE."""

from .policy import (
    HIGH_COMPRESSION,
    LOW_COMPRESSION,
    MODERATE_COMPRESSION,
    NO_COMPRESSION,
    CompressionLevel,
    CompressionPolicy,
)

__all__ = [
    "CompressionLevel",
    "CompressionPolicy",
    "HIGH_COMPRESSION",
    "LOW_COMPRESSION",
    "MODERATE_COMPRESSION",
    "NO_COMPRESSION",
]
