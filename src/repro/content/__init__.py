"""Deterministic file-content generators and the immutable Content type."""

from .model import (
    Content,
    compressible_content,
    random_content,
    text_content,
)
from .words import WORDS

__all__ = [
    "Content",
    "WORDS",
    "compressible_content",
    "random_content",
    "text_content",
]
