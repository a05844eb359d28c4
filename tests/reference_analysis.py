"""Record-at-a-time trace statistics — the oracle for ``repro.trace.analysis``.

These are the loops Figure 5, the trace statistics, Table 2's user
counts and the dedup-scope ablation ran before each became a sum or a
comparison over the trace's columns: one Python ``set`` probe per dedup unit, a block
keyed by ``(ids, length)``, a full-file unit by ``(ids, size)``, a
same-user unit by the user's name.  They live here (imported by nothing
under ``src/``) so ``test_analysis_differential.py`` can hold
:func:`repro.trace.analysis.dedup_columns` and the statistics read from it
to them, value for value.  Each reads :class:`TraceRecord` rows only,
through the three per-record unit functions below, which
``reference_replay.py`` shares.
"""

from typing import Dict, Iterator, Optional, Tuple

from repro.trace import UNIT_SIZE, Trace, TraceRecord


def effectively_compressible(record: TraceRecord) -> bool:
    """The paper's definition: compresses below 90 % of original."""
    return record.compression_ratio < 0.90


def full_file_key(record: TraceRecord) -> Tuple[bytes, int]:
    """Hashable identity for full-file dedup analysis."""
    return (record.segments.tobytes(), record.size)


def block_keys(record: TraceRecord,
               block_size: int) -> Iterator[Tuple[bytes, int]]:
    """(identity, length) per block at ``block_size`` granularity.

    Blocks are head-aligned and fixed-size (§5.2); the final block is
    short.  Identity is the tuple of covered segment ids, so two files
    sharing a prefix share exactly the aligned prefix blocks.
    """
    if block_size % UNIT_SIZE != 0:
        raise ValueError(f"block size must be a multiple of {UNIT_SIZE}")
    units_per_block = block_size // UNIT_SIZE
    remaining = record.size
    segments = record.segments
    for start in range(0, len(segments), units_per_block):
        ids = segments[start:start + units_per_block]
        length = min(block_size, remaining)
        remaining -= length
        yield (ids.tobytes(), length)


def reference_deduplicated(trace: Trace,
                           block_size: Optional[int]) -> Tuple[int, int]:
    """(bytes before, bytes after) cross-user dedup: full-file with
    ``block_size=None``, otherwise head-aligned fixed blocks of that size.
    The first occurrence of each unit ships; later identical ones do not."""
    before = after = 0
    seen = set()
    for record in trace:
        before += record.size
        for unit in ([(full_file_key(record), record.size)]
                     if block_size is None else block_keys(record, block_size)):
            if unit not in seen:     # (identity, length)
                seen.add(unit)
                after += unit[1]
    return before, after


def reference_uploaded_bytes(trace: Trace, block_size: Optional[int],
                             scope: Optional[str]) -> int:
    """Bytes shipped if every file uploads once under this dedup config:
    ``scope`` is ``None`` (no dedup), ``"user"`` or ``"global"``."""
    seen = set()
    total = 0
    for record in trace:
        keys = ([full_file_key(record)] if block_size is None
                else list(block_keys(record, block_size)))
        for key in keys:
            length = record.size if block_size is None else key[1]
            scoped = key if scope == "global" else (record.user, key)
            if scope is None or scoped in seen:
                if scope is None:
                    total += length
                continue
            seen.add(scoped)
            total += length
    return total


def reference_compressible_fraction(trace: Trace) -> float:
    """Fraction of files with compression ratio < 0.9, row by row."""
    if len(trace) == 0:
        return 0.0
    return sum(1 for r in trace if effectively_compressible(r)) / len(trace)


def reference_users(trace: Trace) -> Dict[str, int]:
    """service → distinct user count, services in order of first
    appearance, from the rows' names."""
    users: Dict[str, set] = {}
    for record in trace:
        users.setdefault(record.service, set()).add(record.user)
    return {service: len(names) for service, names in users.items()}
