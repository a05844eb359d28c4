"""Content-defined chunking (CDC) — the §5.2 counterfactual.

The paper deliberately dedups with head-aligned fixed blocks and notes it is
"not dividing files to blocks in the best possible manner [19, 39] which is
much more complicated and computation intensive".  This module implements
that best-possible manner — gear-hash CDC à la EndRE/LBFS — so the ablation
benches can quantify exactly what the paper left on the table: fixed blocks
lose all alignment after an insertion, while content-defined boundaries
survive it.

The gear hash is ``fp = (fp << 1) + gear[byte]``, reset to 0 at every cut;
a boundary is cut where the low ``b = log2(avg_size)`` bits of ``fp`` are
zero (expected chunk length = ``avg_size``), clamped to
[min_size, max_size].  Byte ``p - j`` enters ``fp`` shifted left ``j``
times, so the low ``b`` bits depend on the last ``b`` bytes alone::

    h[p] = sum(gear[data[p - j]] << j  for j < b)   (mod 2**b)

which ``cdc_spans`` evaluates for every position at once with ``b``
shifted numpy adds instead of rolling the hash byte by byte.  The window
form cannot see the reset, and need not: the boundary test only runs at
chunk lengths >= ``min_size``, so with ``min_size >= b`` (a precondition,
checked) the whole window lies inside the current chunk and ``h[p]``
equals the rolled ``fp`` bit for bit.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, Tuple

import numpy as np

from .fixed import Chunk, fingerprint

#: Gear table: 256 pseudo-random 64-bit constants (fixed seed → stable
#: boundaries across runs and machines).
_GEAR_RNG = random.Random("repro-gear-table")
_GEAR = np.array([_GEAR_RNG.getrandbits(64) for _ in range(256)],
                 dtype=np.uint64)

DEFAULT_MIN = 2 * 1024
DEFAULT_AVG = 8 * 1024
DEFAULT_MAX = 64 * 1024

#: Bytes hashed per numpy pass: working memory is a few lane-width arrays
#: of this length whatever the input size.  Measured on a 16 MiB input:
#: 16 KiB blocks 182 MB/s, 64–256 KiB ~240, 1 MiB 167, 4 MiB 76 — the
#: arrays have to stay cache-resident across the ``b`` passes.
_BLOCK = 128 * 1024


def _boundary_bits(avg_size: int) -> int:
    """Number of low hash bits tested, giving an expected chunk length of
    ``avg_size``.

    The ``fp = (fp << 1) + gear[byte]`` accumulator concentrates its *high*
    bits around twice the gear table's mean, so the uniformly distributed
    low bits must carry the boundary test (the classic gear-hash pitfall).
    """
    return max(avg_size.bit_length() - 1, 1)


def _window_hashes(piece: np.ndarray, bits: int) -> np.ndarray:
    """Low ``bits`` bits of the gear hash ending at each byte of ``piece``.

    The lane is the narrowest unsigned type holding ``bits`` bits: what
    wraps out of it is what the mask discards anyway, and a byte shifted
    64 or more times is gone from the rolled hash's 64-bit fold too.
    """
    lane = np.uint16 if bits <= 16 else np.uint32 if bits <= 32 else np.uint64
    width = min(bits, 64)
    gear = _GEAR.astype(lane).take(piece)
    hashes = gear.copy()
    for shift in range(1, width):
        hashes[shift:] += gear[:-shift] << lane(shift)
    hashes &= lane((1 << width) - 1)
    return hashes


def cdc_spans(data: bytes,
              min_size: int = DEFAULT_MIN,
              avg_size: int = DEFAULT_AVG,
              max_size: int = DEFAULT_MAX) -> List[Tuple[int, int]]:
    """(offset, length) spans with content-defined boundaries.

    Boundaries depend only on a sliding window of content, so inserting or
    deleting bytes shifts at most the chunks covering the edit — the
    property fixed-size chunking lacks.
    """
    if not 0 < min_size <= avg_size <= max_size:
        raise ValueError("need 0 < min_size <= avg_size <= max_size")
    bits = _boundary_bits(avg_size)
    if min_size < bits:
        raise ValueError(
            f"need min_size >= log2(avg_size) = {bits}: the boundary hash "
            f"reads a {bits}-byte window that must fit inside one chunk")
    n = len(data)
    if n == 0:
        return [(0, 0)]
    content = np.frombuffer(data, dtype=np.uint8)
    spans = []
    start = 0
    for block in range(0, n, _BLOCK):
        end = min(block + _BLOCK, n)
        lead = min(block, bits - 1)     # window bytes owed by the last block
        hashes = _window_hashes(content[block - lead:end], bits)
        # Candidate chunk *ends*: a cut falls after the byte that zeroes
        # the hash.
        cuts = (np.flatnonzero(hashes[lead:] == 0) + (block + 1)).tolist()
        at = 0
        while True:
            limit = start + max_size
            at = bisect_left(cuts, start + min_size, at)
            if at < len(cuts) and cuts[at] <= limit:
                cut = cuts[at]
            elif limit <= end:
                cut = limit
            else:
                break                   # this chunk ends in a later block
            spans.append((start, cut - start))
            start = cut
    if start < n:
        spans.append((start, n - start))
    return spans


def cdc_chunks(data: bytes,
               min_size: int = DEFAULT_MIN,
               avg_size: int = DEFAULT_AVG,
               max_size: int = DEFAULT_MAX,
               keep_data: bool = True) -> List[Chunk]:
    """Fingerprinted content-defined chunks."""
    chunks = []
    for index, (offset, length) in enumerate(
            cdc_spans(data, min_size, avg_size, max_size)):
        piece = data[offset:offset + length]
        chunks.append(Chunk(index=index, offset=offset, length=length,
                            digest=fingerprint(piece),
                            data=piece if keep_data else b""))
    return chunks


def shared_bytes(old: bytes, new: bytes, chunker) -> int:
    """Bytes of ``new`` whose chunks already exist in ``old``'s chunk set.

    ``chunker`` maps bytes → list of Chunk; works for both fixed and CDC
    chunkers, which is what the dedup-resilience ablation compares.
    """
    old_digests = {chunk.digest for chunk in chunker(old)}
    return sum(chunk.length for chunk in chunker(new)
               if chunk.digest in old_digests)
