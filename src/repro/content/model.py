"""File-content model: deterministic, seeded, and cheap to manipulate.

The paper's controlled experiments use two content classes:

* "highly compressed" files — incompressible random bytes
  (:func:`random_content`), used in Experiments 1–3 and 5–7 so compression
  cannot confound the traffic measurement;
* text files "filled with random English words" (:func:`text_content`),
  used in Experiment 4 to probe compression.

All generators are seeded, so a given (kind, size, seed) triple always yields
identical bytes — experiments are exactly repeatable, and deduplication
behaves the way it would on real repeated uploads.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

from .words import WORDS, zipf_weights

_CHUNK = 1 << 16


class Content:
    """Immutable file content with cached hashes.

    Wraps real bytes; every mutation helper returns a new ``Content``.  Using
    real bytes (rather than an analytic stand-in) means the delta-sync,
    compression, and dedup code paths all operate on genuine data.
    """

    __slots__ = ("data", "_md5")

    def __init__(self, data: bytes):
        self.data = bytes(data)
        self._md5: Optional[str] = None

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Content) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.md5)

    def __repr__(self) -> str:
        return f"Content({len(self.data)} bytes, md5={self.md5[:8]})"

    @property
    def size(self) -> int:
        return len(self.data)

    @classmethod
    def with_md5(cls, data: bytes, md5: str) -> "Content":
        """``data`` whose MD5 hexdigest the caller already holds (a chunk's
        fingerprint, a digest the server checked the bytes against), so
        nothing hashes it again.  The caller vouches that ``md5`` is the
        digest of ``data``."""
        content = cls(data)
        content._md5 = md5
        return content

    @property
    def cached_md5(self) -> Optional[str]:
        """The MD5 if something already computed it, else ``None``; reading
        it never hashes."""
        return self._md5

    @property
    def md5(self) -> str:
        """Full-file MD5 fingerprint (the paper's trace records the same)."""
        if self._md5 is None:
            self._md5 = hashlib.md5(self.data).hexdigest()
        return self._md5

    # -- mutation helpers (each returns a new Content) ---------------------

    def append(self, extra: "Content") -> "Content":
        return Content(self.data + extra.data)

    def concat_self(self) -> "Content":
        """The "self duplication" step of Algorithm 1: f2 = f1 + f1."""
        return Content(self.data + self.data)

    def modify_byte(self, offset: int, seed: int = 0) -> "Content":
        """Flip one byte at ``offset`` to a different deterministic value."""
        if not 0 <= offset < len(self.data):
            raise IndexError(f"offset {offset} outside file of {len(self.data)} bytes")
        rng = random.Random(f"mod:{seed}:{offset}:{self.data[offset]}")
        new_byte = rng.randrange(256)
        if new_byte == self.data[offset]:
            new_byte = (new_byte + 1) % 256
        return Content(self.data[:offset] + bytes([new_byte]) + self.data[offset + 1:])

    def modify_random_byte(self, seed: int = 0) -> "Content":
        """The paper's Experiment 3 operation: modify one random byte."""
        if not self.data:
            raise ValueError("cannot modify a byte of an empty file")
        rng = random.Random(f"pick:{seed}:{len(self.data)}")
        return self.modify_byte(rng.randrange(len(self.data)), seed=seed)

    def slice(self, offset: int, length: int) -> "Content":
        return Content(self.data[offset:offset + length])


def random_content(size: int, seed: int = 0) -> Content:
    """Incompressible content — the paper's "highly compressed file".

    Drawn from a seeded PRNG rather than ``os.urandom`` so experiments are
    repeatable and dedup across repeated generations behaves like re-uploading
    the very same file.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    rng = random.Random(f"random:{seed}:{size}")
    pieces = []
    remaining = size
    while remaining > 0:
        step = min(remaining, _CHUNK)
        pieces.append(rng.getrandbits(step * 8).to_bytes(step, "little"))
        remaining -= step
    return Content(b"".join(pieces))


#: Fraction of tokens replaced by random alphanumeric strings.  Calibrated so
#: whole-stream DEFLATE level 9 lands near the paper's WinZip reference ratio
#: of ~45 % on a 10 MB file (validated in tests/test_compress.py).
_TEXT_NOISE_FRACTION = 0.18
_NOISE_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def text_content(size: int, seed: int = 0) -> Content:
    """Compressible content — random English words, Zipf-weighted.

    Matches Experiment 4's workload.  18 % of the tokens are random
    alphanumeric strings (names, identifiers, numbers in real prose), which
    sets the entropy so highest-level DEFLATE reproduces the paper's
    WinZip reference ratio (~45 %).
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    rng = random.Random(f"text:{seed}:{size}")
    weights = zipf_weights(len(WORDS))
    pieces = []
    produced = 0
    while produced < size:
        batch = rng.choices(WORDS, weights=weights, k=256)
        tokens = [
            "".join(rng.choices(_NOISE_ALPHABET, k=rng.randint(4, 10)))
            if rng.random() < _TEXT_NOISE_FRACTION else word
            for word in batch
        ]
        blob = (" ".join(tokens) + " ").encode("ascii")
        pieces.append(blob)
        produced += len(blob)
    return Content(b"".join(pieces)[:size])
