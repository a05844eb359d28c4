"""Trace analyses behind the paper's macro-level findings.

Maps each published statistic to a function:

* Figure 2 — :func:`size_cdf`, :func:`summary_stats`;
* §4.1 — :func:`small_file_fraction`, :func:`batchable_small_fraction`;
* §4.3 — :func:`modified_fraction`;
* §5.1 — :func:`compressible_fraction`, :func:`compression_ratio`,
  :func:`compression_traffic_saving`;
* §5.2 / Figure 5 — :func:`dedup_ratio`, :func:`dedup_ratio_curve`,
  :func:`duplicate_file_ratio`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..units import KB
from .schema import BLOCK_GRANULARITIES, Trace

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

def small_file_fraction(trace: Trace, threshold: int = SMALL_FILE_THRESHOLD,
                        compressed: bool = False) -> float:
    """Fraction of files under ``threshold`` (the paper's 77 % / 81 %)."""
    sizes = trace.sizes(compressed=compressed)
    if len(sizes) == 0:
        return 0.0
    return float((sizes < threshold).mean())


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


def batchable_small_fraction(trace: Trace,
                             threshold: int = SMALL_FILE_THRESHOLD,
                             window: float = BDS_BATCH_WINDOW) -> float:
    """Fraction of small files that arrive in creation batches (§4.1's 66 %)."""
    small_total = int(np.count_nonzero(trace.size < threshold))
    if small_total == 0:
        return 0.0
    return int(np.count_nonzero(creation_batch_flags(trace, threshold,
                                                     window))) / small_total


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
    return sum(1 for r in trace if r.effectively_compressible) / len(trace)


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

def _deduplicated(trace: Trace, block_size: Optional[int]) -> Tuple[int, int]:
    """(bytes before, bytes after) cross-user dedup: full-file with
    ``block_size=None``, otherwise head-aligned fixed blocks of that size.
    The first occurrence of each unit ships; later identical ones do not."""
    before = after = 0
    seen = set()
    for record in trace:
        before += record.size
        for unit in ([(record.full_file_key(), record.size)]
                     if block_size is None else record.block_keys(block_size)):
            if unit not in seen:     # (identity, length)
                seen.add(unit)
                after += unit[1]
    return before, after


def duplicate_file_ratio(trace: Trace) -> float:
    """Size of duplicate files / total size (the paper's 18.8 %)."""
    total, originals = _deduplicated(trace, None)
    return (total - originals) / total if total else 0.0


def dedup_ratio(trace: Trace, block_size: Optional[int] = None) -> float:
    """Cross-user dedup ratio = bytes before / bytes after (Figure 5)."""
    before, after = _deduplicated(trace, block_size)
    return before / after if after else 1.0


def dedup_ratio_curve(
    trace: Trace,
    block_sizes: Sequence[int] = BLOCK_GRANULARITIES,
) -> List[Tuple[Optional[int], float]]:
    """Figure 5's series: dedup ratio per block size, plus full-file (None)."""
    curve: List[Tuple[Optional[int], float]] = [
        (block_size, dedup_ratio(trace, block_size))
        for block_size in block_sizes
    ]
    curve.append((None, dedup_ratio(trace, None)))
    return curve
