"""Trace analyses behind the paper's macro-level findings.

Maps each published statistic to a function:

* Figure 2 — :func:`size_cdf`, :func:`summary_stats`;
* §4.1 — :func:`small_file_fraction`, :func:`batchable_small_fraction`;
* §4.3 — :func:`modified_fraction`;
* §5.1 — :func:`compressible_fraction`, :func:`compression_ratio`,
  :func:`compression_traffic_saving`;
* §5.2 / Figure 5 — :func:`dedup_ratio`, :func:`dedup_ratio_curve`,
  :func:`duplicate_file_ratio`.

:func:`dedup_columns` is the one dedup rule (which unit ships first): the
§5.2 statistics, the dedup-scope ablation and the replay estimator all
read it, as both BDS users read :func:`creation_batch_flags`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cloud.dedup import DedupConfig, DedupGranularity, DedupScope
from ..units import KB
from .schema import BLOCK_GRANULARITIES, UNIT_SIZE, Trace

SMALL_FILE_THRESHOLD = 100 * KB

#: Creation-batch window (seconds): two small files of one user created
#: within this window count as batchable (§4.1).  The trace analysis
#: below and the replay estimator's BDS eligibility both apply it through
#: :func:`creation_batch_flags`, so the estimator cannot drift from the
#: statistic it is calibrated against.
BDS_BATCH_WINDOW = 5.0


# ---------------------------------------------------------------------------
# Figure 2: size distributions
# ---------------------------------------------------------------------------

def size_cdf(trace: Trace, compressed: bool = False,
             points: Optional[Sequence[int]] = None) -> List[Tuple[int, float]]:
    """(size, P[X ≤ size]) pairs — the Figure 2 curves.

    With ``points`` unset, a log-spaced grid from 1 B to the maximum is used.
    """
    sizes = np.sort(trace.sizes(compressed=compressed))
    if len(sizes) == 0:
        return []
    if points is None:
        grid = np.unique(np.logspace(0, np.log10(max(sizes.max(), 2)), 60).astype(np.int64))
    else:
        grid = np.asarray(sorted(points), dtype=np.int64)
    positions = np.searchsorted(sizes, grid, side="right")
    return [(int(size), float(pos) / len(sizes))
            for size, pos in zip(grid, positions)]


@dataclass(frozen=True)
class TraceStats:
    """The headline numbers the paper quotes for its trace."""

    file_count: int
    user_count: int
    mean_size: float
    median_size: float
    max_size: int
    mean_compressed: float
    median_compressed: float
    max_compressed: int
    small_fraction: float            # P[size < 100 KB]
    small_fraction_compressed: float
    modified_fraction: float         # P[modified ≥ once]
    compressible_fraction: float     # P[ratio < 0.9]
    compression_ratio: float         # Σoriginal / Σcompressed
    duplicate_file_ratio: float      # duplicate bytes / total bytes


def summary_stats(trace: Trace) -> TraceStats:
    sizes = trace.sizes()
    compressed = trace.sizes(compressed=True)
    return TraceStats(
        file_count=len(trace),
        user_count=sum(trace.users().values()),
        # Descriptive statistics are deliberately fractional; they never
        # feed a byte ledger (reprolint REP010 suppressed for that reason).
        mean_size=float(sizes.mean()),  # reprolint: disable=REP010 stats
        median_size=float(np.median(sizes)),  # reprolint: disable=REP010 stats
        max_size=int(sizes.max()),
        mean_compressed=float(compressed.mean()),
        median_compressed=float(np.median(compressed)),
        max_compressed=int(compressed.max()),
        small_fraction=small_file_fraction(trace),
        small_fraction_compressed=small_file_fraction(trace, compressed=True),
        modified_fraction=modified_fraction(trace),
        compressible_fraction=compressible_fraction(trace),
        compression_ratio=compression_ratio(trace),
        duplicate_file_ratio=duplicate_file_ratio(trace),
    )


# ---------------------------------------------------------------------------
# §4.1: small files and batchability
# ---------------------------------------------------------------------------

def small_file_fraction(trace: Trace, compressed: bool = False) -> float:
    """Fraction of files under :data:`SMALL_FILE_THRESHOLD` (the paper's
    77 % / 81 %)."""
    sizes = trace.sizes(compressed=compressed)
    if len(sizes) == 0:
        return 0.0
    return float((sizes < SMALL_FILE_THRESHOLD).mean())


def creation_batch_flags(trace: Trace,
                         threshold: int = SMALL_FILE_THRESHOLD,
                         window: float = BDS_BATCH_WINDOW) -> np.ndarray:
    """Per record, in order: is it a small file whose (service, user)
    created another small file within ``window`` seconds?

    The one statement of the creation-batch rule — exactly the files BDS
    could combine: :func:`batchable_small_fraction` counts these flags and
    the replay estimator grants the batched overhead by them.
    """
    # A group code per small file, -1 for the rest.
    codes = np.where(trace.size < threshold, trace.service_code
                     * len(trace.user_names) + trace.user_code, -1)
    # By group, then time; lexsort is stable, so ties keep record order.
    order = np.lexsort((trace.created_at, codes))
    codes, moments = codes[order], trace.created_at[order]
    near = (codes[1:] == codes[:-1]) & (codes[1:] >= 0) \
        & (np.diff(moments) <= window)
    flags = np.zeros(len(trace), dtype=bool)
    flags[order[1:]] |= near     # its predecessor is near
    flags[order[:-1]] |= near    # its successor is near
    return flags


def batchable_small_fraction(trace: Trace) -> float:
    """Fraction of small files that arrive in creation batches (§4.1's 66 %)."""
    small_total = int(np.count_nonzero(trace.size < SMALL_FILE_THRESHOLD))
    if small_total == 0:
        return 0.0
    return int(np.count_nonzero(creation_batch_flags(trace))) / small_total


# ---------------------------------------------------------------------------
# §4.3: modifications
# ---------------------------------------------------------------------------

def modified_fraction(trace: Trace) -> float:
    """Fraction of files modified at least once (the paper's 84 %)."""
    if len(trace) == 0:
        return 0.0
    return int(np.count_nonzero(trace.modify_count > 0)) / len(trace)


# ---------------------------------------------------------------------------
# §5.1: compression
# ---------------------------------------------------------------------------

def compressible_fraction(trace: Trace) -> float:
    """Fraction of files with compression ratio < 0.9 (the paper's 52 %)."""
    if len(trace) == 0:
        return 0.0
    ratios = np.divide(trace.compressed_size, trace.size,
                       out=np.ones(len(trace)), where=trace.size > 0)
    return int(np.count_nonzero(ratios < 0.90)) / len(trace)


def compression_ratio(trace: Trace) -> float:
    """Σ original / Σ compressed — the paper's 1.31."""
    compressed = trace.total_compressed_bytes()
    if compressed == 0:
        return 1.0
    return trace.total_bytes() / compressed


def compression_traffic_saving(trace: Trace) -> float:
    """Fraction of sync bytes compression removes (the paper's 24 %)."""
    total = trace.total_bytes()
    if total == 0:
        return 0.0
    return 1.0 - trace.total_compressed_bytes() / total


# ---------------------------------------------------------------------------
# §5.2 / Figure 5: deduplication
# ---------------------------------------------------------------------------

#: Bytes per unit digest.  A unit whose ids are not one run of consecutive
#: ids (~0.15 % of the 4 MB units of a generated trace) is keyed by the
#: blake2b digest of its id blob — up to 128 KB for a 2 GB file's
#: full-file key — read as two ``int64`` key columns.  The collision
#: probability over a trillion distinct units is < 2⁻⁸⁰, far below any
#: other modelling noise.
_DIGEST_SIZE = 16
#: Dedup units per run test: the steps between one slice's segments are
#: the test's one segment-sized buffer (all segments at once read 2.94 MB
#: against the 2.53 MB the memory bound allows at scale 0.05).
_UNIT_SLICE = 1024


def _unit_digest(key) -> bytes:
    """Fixed-width identity digest for one dedup unit that is not a run.

    ``key`` is the raw unit identity: the segment-id blob of a block, or
    the ``(blob, size)`` tuple of a full-file key.  A run of consecutive
    ids is keyed by its first id and count instead (see
    :func:`dedup_columns`), equal exactly when the blobs are; a digest
    stands in for its blob up to the collision bound above.
    """
    if isinstance(key, tuple):
        blob, size = key
        digest = hashlib.blake2b(blob, digest_size=_DIGEST_SIZE)
        digest.update(size.to_bytes(8, "little"))
    else:
        digest = hashlib.blake2b(key, digest_size=_DIGEST_SIZE)
    return digest.digest()


def dedup_columns(trace: Trace, dedup: DedupConfig
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Per record, the bytes of its dedup units that ship and the bytes
    all its units cover, as two ``int64`` columns.

    The one statement of the first-occurrence rule: a unit ships when it
    is the first in trace order with its identity (within one user under
    same-user scope).  A full-file unit is the record's segment ids and
    size; a block is the ids a head-aligned ``block_size`` window covers,
    its length the bytes of the file under it, so a 50 KB ``[7]`` file
    and the first block of a 256 KB ``[7, 8]`` file are one unit.  A block
    size the segments cannot align is refused before any record.

    Each unit is a row of ``int64`` keys: ``(0, first id, count)`` when
    each step between its ids is +1 in ``int64``, else ``(1, its
    digest)``; then the size of a full-file key and, under same-user
    scope, the user code.  Rows are equal exactly when the units are (up
    to the digest's collision bound), and one stable lexsort lists equal
    rows in trace order.
    """
    full_file = dedup.granularity is DedupGranularity.FULL_FILE
    if not full_file and dedup.block_size % UNIT_SIZE:
        raise ValueError(f"dedup block size {dedup.block_size} is not a "
                         f"multiple of the {UNIT_SIZE}-byte segment")
    offsets, segments, size = trace.offsets, trace.segments, trace.size
    if full_file:
        owner, start, stop, lengths = None, offsets[:-1], offsets[1:], size
    else:
        per_unit = dedup.block_size // UNIT_SIZE
        units = -(-np.diff(offsets) // per_unit)
        owner = np.repeat(np.arange(len(trace)), units)
        first = (np.arange(len(owner))
                 - np.repeat(np.cumsum(units) - units, units)) * per_unit
        lengths = np.clip(size[owner] - first * UNIT_SIZE, 0,
                          dedup.block_size)
        start = offsets[:-1][owner] + first
        stop = np.minimum(start + per_unit, offsets[1:][owner])
        del units, first
    kind, low_key, high_key = np.zeros((3, len(start)), np.int64)
    view = memoryview(segments)   # a slice's bytes, uncopied
    for low in range(0, len(start), _UNIT_SLICE):
        high = min(low + _UNIT_SLICE, len(start))
        begin, end = start[low:high], stop[low:high]
        count = end - begin
        # Units of consecutive records tile one slice of the segments; an
        # index i breaks a run when segments[i + 1] is not segments[i] + 1.
        base = int(begin[0])
        breaks = np.flatnonzero(
            np.diff(segments[base:int(end[-1])]) != 1) + base
        run = np.searchsorted(breaks, begin) == np.searchsorted(
            breaks, np.maximum(end - 1, begin))
        filled = np.flatnonzero(count)
        low_key[low + filled] = segments[begin[filled]]
        high_key[low:high] = count
        wide = np.flatnonzero(~run)
        if wide.size:
            blobs = [view[a:b] for a, b in zip(begin[wide].tolist(),
                                               end[wide].tolist())]
            if full_file:
                blobs = zip(blobs, size[low + wide].tolist())
            digests = np.frombuffer(b"".join(map(_unit_digest, blobs)),
                                    np.int64).reshape(-1, 2)
            kind[low + wide] = 1
            low_key[low + wide], high_key[low + wide] = digests.T
    del start, stop
    columns = [kind, low_key, high_key]
    if full_file:
        columns.append(size)
    if dedup.scope is DedupScope.SAME_USER:
        columns.append(trace.user_code if full_file
                       else trace.user_code[owner])
    order = np.lexsort(columns)
    # Sorted, a row is new where it differs from the row before it.
    new = np.zeros(len(order), bool)
    new[:1] = True
    for column in columns:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    del columns, ordered
    fresh = np.empty_like(new)
    fresh[order] = new
    shipped = np.where(fresh, lengths, 0)
    if full_file:
        return shipped, size
    per_record = np.zeros((2, len(trace)), np.int64)
    np.add.at(per_record[0], owner, shipped)
    np.add.at(per_record[1], owner, lengths)
    return per_record[0], per_record[1]


def _cross_user_shipped(trace: Trace, block_size: Optional[int]) -> int:
    """Bytes cross-user dedup ships: full-file with ``block_size=None``,
    otherwise head-aligned fixed blocks of that size."""
    dedup = DedupConfig.full_file(cross_user=True) if block_size is None \
        else DedupConfig.block(block_size, cross_user=True)
    return sum(dedup_columns(trace, dedup)[0].tolist())


def duplicate_file_ratio(trace: Trace) -> float:
    """Size of duplicate files / total size (the paper's 18.8 %)."""
    total = trace.total_bytes()
    originals = _cross_user_shipped(trace, None)
    return (total - originals) / total if total else 0.0


def dedup_ratio(trace: Trace, block_size: Optional[int] = None) -> float:
    """Cross-user dedup ratio = bytes before / bytes after (Figure 5)."""
    after = _cross_user_shipped(trace, block_size)
    return trace.total_bytes() / after if after else 1.0


def dedup_ratio_curve(trace: Trace) -> List[Tuple[Optional[int], float]]:
    """Figure 5's series: dedup ratio per block size of
    :data:`BLOCK_GRANULARITIES`, plus full-file (None)."""
    return [(block_size, dedup_ratio(trace, block_size))
            for block_size in (*BLOCK_GRANULARITIES, None)]
