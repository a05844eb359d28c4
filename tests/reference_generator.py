"""Record-at-a-time trace generator — the oracle for ``repro.trace.generator``.

This is ``_service_records`` and ``_make_record`` as they were before the
per-record path was flattened: ``Generator.integers`` for every bounded
draw, a frozen-dataclass pool entry, a segment-allocating object and one
helper call per size, ratio and uniform draw.  It lives here (imported by
nothing under ``src/``) so the differential battery in
``test_trace_differential.py`` can hold the generator to it field by
field, segments included.

Its model is its own: the constants and helpers are copied, not imported,
so a change to either in ``src/`` fails the battery instead of moving both
sides together.  From the package it takes only the record type and the
segment granularity, which are shared by definition.
"""

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.trace.schema import UNIT_SIZE, TraceRecord
from repro.units import GB, KB, MB

#: Trace collection window: Jul 2013 → Mar 2014, in seconds.
TRACE_SPAN = 236 * 24 * 3600.0

_SMALL = 100 * KB

#: Size model: log-normal around the paper's 7.5 KB median, σ tuned so the
#: clipped mean lands near 962 KB (validated in tests/test_trace.py).
_SIZE_MU = float(np.log(7.5 * KB))
_SIZE_SIGMA = 3.17
_SIZE_MAX = 2 * GB

#: Compressibility classes: (probability compressible | small/large,
#: compressible-ratio range, incompressible-ratio range).
_P_COMPRESSIBLE_SMALL = 0.56
_P_COMPRESSIBLE_LARGE = 0.37
_RATIO_COMPRESSIBLE_SMALL = (0.18, 0.50)
_RATIO_COMPRESSIBLE_LARGE = (0.25, 0.52)
_RATIO_INCOMPRESSIBLE = (0.935, 1.0)

#: Duplication model.  Sources are capped in size: users duplicate documents
#: and media, not half-terabyte archives — and the cap keeps the
#: byte-weighted duplicate ratio stable across trace scales.
_P_DUPLICATE = 0.22
_P_NEAR_DUPLICATE = 0.050
_NEAR_SHARE_RANGE = (0.3, 0.9)
_DUP_SOURCE_MAX = 512 * MB

#: Modification model (84 % modified at least once).
_P_MODIFIED = 0.84

#: Burst model for creation times (drives the 66 % batchable statistic).
_P_SOLO_CREATE = 0.86
_BURST_MAX = 24
_BURST_SPACING = (0.05, 2.0)

_EXTENSIONS_COMPRESSIBLE = ("txt", "csv", "doc", "xls", "htm", "log", "xml", "tex")
_EXTENSIONS_INCOMPRESSIBLE = ("jpg", "png", "mp3", "mp4", "zip", "pdf", "gz", "apk")


class _SegmentFactory:
    """Allocates globally unique 128 KB segment ids."""

    def __init__(self) -> None:
        self._next = 0

    def fresh(self, count: int) -> np.ndarray:
        ids = np.arange(self._next, self._next + count, dtype=np.int64)
        self._next += count
        return ids


@dataclass(frozen=True)
class _PoolEntry:
    """Content identity of a prior original, kept for duplicate sampling.

    Holding full :class:`TraceRecord` objects in the pool would pin every
    original of the whole trace in memory; the duplicate/near-duplicate
    draw only needs these four fields, which is what makes
    :func:`iter_trace_shards` memory-bounded at large scales.
    """

    size: int
    compressed_size: int
    segments: np.ndarray
    content_id: int


def _unit_count(size: int) -> int:
    return max(1, -(-size // UNIT_SIZE))


def _activity_cdf(n_users: int) -> np.ndarray:
    """CDF of the per-burst user draw.  Zipf-ish activity: a few heavy
    users own most files (observed in every storage-trace study the paper
    builds on).  Normalised step for step as ``Generator.choice(n, p=)``
    does, so :func:`_draw_index` over it *is* that draw."""
    weights = 1.0 / np.arange(1, n_users + 1) ** 0.7
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_index(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """``rng.choice(len(cdf), p=weights)`` without the per-call wrapper:
    same single ``random()``, same inverse-CDF lookup (a draw equal to a
    CDF edge belongs to the bin above it)."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _draw_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` as numpy computes it, minus the wrapper."""
    return lo + (hi - lo) * rng.random()


def _service_records(service: str, n_users: int, n_files: int,
                     rng: np.random.Generator, segments: _SegmentFactory,
                     pool: List[_PoolEntry],
                     file_counter: "itertools.count") -> Iterator[TraceRecord]:
    """Yield one service's records in creation order.

    This is the single code path behind both :func:`generate_trace` and
    :func:`iter_trace_shards`: both consume the identical RNG stream, so
    they produce identical records at the same seed.
    """
    users = [f"{service.lower()}-user{idx:03d}" for idx in range(n_users)]
    activity = _activity_cdf(n_users)
    files_left = n_files
    while files_left > 0:
        user = users[_draw_index(rng, activity)]
        if rng.random() < _P_SOLO_CREATE:
            burst = 1
        else:
            burst = int(rng.integers(2, _BURST_MAX + 1))
        burst = min(burst, files_left)
        start = float(rng.random() * TRACE_SPAN)
        offset = 0.0
        for _ in range(burst):
            offset += _draw_uniform(rng, *_BURST_SPACING)
            yield _make_record(
                rng, segments, pool, service, user,
                created_at=start + offset,
                index=next(file_counter),
            )
        files_left -= burst


def reference_records(plan: Dict[str, Tuple[int, int]],
                      seed: int) -> Iterator[TraceRecord]:
    """The records ``generate_trace`` produces for ``plan``, in order."""
    rng = np.random.default_rng(seed)
    segments = _SegmentFactory()
    pool: List[_PoolEntry] = []
    file_counter = itertools.count()
    for service, (n_users, n_files) in sorted(plan.items()):
        yield from _service_records(service, n_users, n_files, rng,
                                    segments, pool, file_counter)


def reference_shards(plan: Dict[str, Tuple[int, int]], seed: int,
                     shard_users: int = 8) -> Iterator[List[TraceRecord]]:
    """The shards ``iter_trace_shards`` produced for ``plan``, as lists."""
    rng = np.random.default_rng(seed)
    segments = _SegmentFactory()
    pool: List[_PoolEntry] = []
    file_counter = itertools.count()
    for service, (n_users, n_files) in sorted(plan.items()):
        user_names = [f"{service.lower()}-user{idx:03d}"
                      for idx in range(n_users)]
        group_of = {user: idx // shard_users
                    for idx, user in enumerate(user_names)}
        n_groups = -(-n_users // shard_users)
        buckets: List[List[TraceRecord]] = [[] for _ in range(n_groups)]
        for record in _service_records(service, n_users, n_files, rng,
                                       segments, pool, file_counter):
            buckets[group_of[record.user]].append(record)
        for records in buckets:
            if records:
                yield records


def _draw_size(rng: np.random.Generator) -> int:
    size = int(rng.lognormal(_SIZE_MU, _SIZE_SIGMA))
    return int(min(max(size, 1), _SIZE_MAX))


def _draw_ratio(rng: np.random.Generator, size: int) -> float:
    small = size < _SMALL
    p_compressible = _P_COMPRESSIBLE_SMALL if small else _P_COMPRESSIBLE_LARGE
    if rng.random() < p_compressible:
        lo, hi = (_RATIO_COMPRESSIBLE_SMALL if small
                  else _RATIO_COMPRESSIBLE_LARGE)
    else:
        lo, hi = _RATIO_INCOMPRESSIBLE
    return _draw_uniform(rng, lo, hi)


def _make_record(rng: np.random.Generator, segments: _SegmentFactory,
                 pool: List[_PoolEntry], service: str, user: str,
                 created_at: float, index: int) -> TraceRecord:
    duplicate_of: Optional[_PoolEntry] = None
    near_source: Optional[_PoolEntry] = None
    roll = rng.random()
    if pool and roll < _P_DUPLICATE:
        candidate = pool[int(rng.integers(len(pool)))]
        if candidate.size <= _DUP_SOURCE_MAX:
            duplicate_of = candidate
    elif pool and roll < _P_DUPLICATE + _P_NEAR_DUPLICATE:
        candidate = pool[int(rng.integers(len(pool)))]
        if candidate.size <= _DUP_SOURCE_MAX:
            near_source = candidate

    if duplicate_of is not None:
        size = duplicate_of.size
        compressed = duplicate_of.compressed_size
        segment_ids = duplicate_of.segments
        content_id = duplicate_of.content_id
    elif near_source is not None and len(near_source.segments) >= 2:
        share = _draw_uniform(rng, *_NEAR_SHARE_RANGE)
        shared_units = max(1, int(len(near_source.segments) * share))
        # At least the shared prefix, so the fresh tail is never negative.
        size = max(_draw_size(rng), shared_units * UNIT_SIZE)
        segment_ids = np.concatenate(
            [near_source.segments[:shared_units],
             segments.fresh(_unit_count(size) - shared_units)])
        compressed = max(1, int(size * _draw_ratio(rng, size)))
        content_id = index
    else:
        size = _draw_size(rng)
        segment_ids = segments.fresh(_unit_count(size))
        compressed = max(1, int(size * _draw_ratio(rng, size)))
        content_id = index

    modify_count = 0
    modified_at = created_at
    if rng.random() < _P_MODIFIED:
        modify_count = 1 + int(rng.geometric(0.35))
        # Clamp to the collection window (§3.1): nothing is observed
        # modified after Mar 2014.  Late-window creations keep
        # modified_at == created_at rather than running past the span.
        modified_at = min(created_at + float(rng.exponential(14 * 24 * 3600.0)),
                          TRACE_SPAN)
        modified_at = max(modified_at, created_at)

    # _draw_size clamps every size to >= 1, so no zero guard is needed.
    compressible = compressed / size < 0.9
    extensions = (_EXTENSIONS_COMPRESSIBLE if compressible
                  else _EXTENSIONS_INCOMPRESSIBLE)
    extension = extensions[int(rng.integers(len(extensions)))]
    record = TraceRecord(
        user=user, service=service,
        path=f"{user}/f{index:07d}.{extension}",
        size=size, compressed_size=compressed,
        created_at=created_at, modified_at=modified_at,
        modify_count=modify_count,
        segments=segment_ids, content_id=content_id,
    )
    if duplicate_of is None:
        pool.append(_PoolEntry(size=size, compressed_size=compressed,
                               segments=segment_ids, content_id=content_id))
    return record
