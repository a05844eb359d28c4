"""Trace record schema (the paper's Table 3).

Each tracked file carries: user name, file name, original and compressed
size, creation and last-modification time, full-file MD5, and block-level
MD5 hash codes at 128 KB … 16 MB granularities.

The real trace's contents are unavailable (the published link is dead), so
records carry a *segment identity* instead of bytes: every 128 KB unit of a
file has an abstract segment id; duplicate files share all ids,
near-duplicate files share a prefix.  Block fingerprints at any granularity
are derived from the covered segment ids on demand — byte-free, but with
exactly the collision structure a real block-hash trace exhibits, which is
all the paper's trace analyses (Figures 2 and 5, §4/§5 statistics) consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np

from ..units import KB, MB

#: The segment granularity underlying block fingerprints.
UNIT_SIZE = 128 * KB

#: The paper's recorded block-hash granularities (Table 3).
BLOCK_GRANULARITIES = (128 * KB, 256 * KB, 512 * KB, 1 * MB, 2 * MB,
                       4 * MB, 8 * MB, 16 * MB)


@dataclass
class TraceRecord:
    """One tracked file (one row of the paper's trace), built from a
    :class:`Trace`'s columns on demand: every field is a plain Python
    ``str``/``int``/``float``, and ``segments`` is a read-only ``int64``
    view of the trace's flat segment column."""

    user: str
    service: str
    path: str
    size: int
    compressed_size: int
    created_at: float
    modified_at: float
    modify_count: int
    #: Abstract 128 KB segment ids; identity of the file's content.
    segments: np.ndarray = field(repr=False)
    #: Shared by exact duplicates; unique otherwise.
    content_id: int = 0

    @property
    def compression_ratio(self) -> float:
        """compressed/original (≤ 1.0); 1.0 for empty files."""
        if self.size == 0:
            return 1.0
        return self.compressed_size / self.size


#: The per-record columns besides the codes, ``float64`` if named ``*_at``.
_COLUMNS = ("size", "compressed_size", "created_at", "modified_at",
            "modify_count", "content_id")
#: Rows materialised at a time, by iteration and by :meth:`Trace.from_fields`.
_ROWS_AT_ONCE = 1024
#: A row's fields as a tuple, in :class:`TraceRecord` field order.
_FIELDS = attrgetter("user", "service", "path", "size", "compressed_size",
                     "created_at", "modified_at", "modify_count", "segments",
                     "content_id")


def first_sight(codes: np.ndarray) -> List[int]:
    """The distinct values of ``codes``, in order of first appearance."""
    unique, first = np.unique(codes, return_index=True)
    return unique[np.argsort(first)].tolist()


def _joined(ids: Sequence, lengths: List[int]) -> np.ndarray:
    """Rows' segment ids end to end as ``int64``: each ``range`` of step 1
    as ``start + j``, all at once; other ranges spelled out, and other ids
    cast safely."""
    starts = [blob.start if type(blob) is range and blob.step == 1 else None
              for blob in ids]
    rest = [row for row, start in enumerate(starts) if start is None]
    if rest:
        spelled = np.concatenate(
            [np.arange(blob.start, blob.stop, blob.step, dtype=np.int64)
             if type(blob) is range else blob
             for blob in map(ids.__getitem__, rest)],
            dtype=np.int64, casting="safe")
        if len(rest) == len(ids):
            return spelled
        for row in rest:
            starts[row] = 0
    counts = np.array(lengths, np.int64)
    ends = counts.cumsum()
    joined = np.arange(ends[-1], dtype=np.int64) + np.repeat(
        np.array(starts, np.int64) - (ends - counts), counts)
    if rest:
        mask = np.zeros(len(ids), bool)
        mask[rest] = True
        joined[np.repeat(mask, counts)] = spelled
    return joined


class MalformedRecord(ValueError):
    """A record refused: its position among the rows given, path, reason."""

    def __init__(self, row: int, path: str, reason: str) -> None:
        super().__init__(f"trace record {row} ({path!r}): {reason}")
        self.row, self.path, self.reason = row, path, reason


@dataclass(eq=False, repr=False)
class Trace:
    """A full collected trace as read-only columns, one entry per file.

    File ``k`` is ``user_names[user_code[k]]``'s, of
    ``service_names[service_code[k]]``, with segment ids
    ``segments[offsets[k]:offsets[k + 1]]``; times are ``float64``, other
    numbers ``int64``.  Iterating or indexing builds :class:`TraceRecord`
    rows.  Rows enter through :meth:`from_fields`; every trace passes one
    vectorised check, which names a column whose length is wrong, else
    the first malformed row: a row's offsets must lie within ``segments``
    in order, its codes within their tables.
    """

    user_names: List[str] = field(default_factory=list)
    service_names: List[str] = field(default_factory=list)
    user_code: np.ndarray = ()
    service_code: np.ndarray = ()
    path: List[str] = field(default_factory=list)
    size: np.ndarray = ()
    compressed_size: np.ndarray = ()
    created_at: np.ndarray = ()
    modified_at: np.ndarray = ()
    modify_count: np.ndarray = ()
    content_id: np.ndarray = ()
    offsets: np.ndarray = (0,)
    segments: np.ndarray = ()

    def __post_init__(self) -> None:
        for name in ("user_code", "service_code", "offsets", "segments",
                     *_COLUMNS):
            column = np.asarray(getattr(self, name), np.float64
                                if name.endswith("_at") else np.int64)
            column.flags.writeable = False
            setattr(self, name, column)
        rows = len(self.size)
        for name in ("user_code", "service_code", "path", "offsets",
                     *_COLUMNS):
            expected = rows + (name == "offsets")
            if len(getattr(self, name)) != expected:
                raise ValueError(f"trace column {name!r} holds "
                                 f"{len(getattr(self, name))} entries, not "
                                 f"{expected}")
        starts, stops = self.offsets[:-1], self.offsets[1:]
        failures = [(int(np.argmax(bad)), reason) for bad, reason in (
            ((self.size < 0) | (self.compressed_size < 0),
             "sizes must be non-negative"),
            (self.modify_count < 0, "modify_count must be non-negative"),
            (~(np.isfinite(self.created_at) & np.isfinite(self.modified_at)),
             "times must be finite"),
            (self.modified_at < self.created_at,
             "modification cannot precede creation"),
            (stops < starts, "segment offsets must not decrease"),
            ((starts < 0) | (stops > len(self.segments)),
             "segment offsets must lie within the segments column"),
            ((self.user_code < 0) | (self.user_code >= len(self.user_names)),
             "user code outside the user table"),
            ((self.service_code < 0)
             | (self.service_code >= len(self.service_names)),
             "service code outside the service table")) if bad.any()]
        if failures:
            row, reason = min(failures, key=lambda failure: failure[0])
            raise MalformedRecord(row, self.path[row], reason)

    @classmethod
    def from_records(cls, rows: Iterable[TraceRecord]) -> "Trace":
        fields = list(map(_FIELDS, rows))
        return cls.from_fields(fields, len(fields))

    @classmethod
    def from_fields(cls, rows: Iterable[tuple], count: int) -> "Trace":
        """``count`` rows, tuples in :class:`TraceRecord` field order, as a
        trace: :data:`_ROWS_AT_ONCE` rows at a time into columns allocated
        once, users and services coded at first sight.  A row's segment
        ids may be a ``range``: one of step 1 is a run, expanded with its
        batch's other runs in one vectorised pass.  Refuses segment ids
        that do not cast safely to ``int64``."""
        rows, tables = iter(rows), ({}, {})
        # User and service codes, size, compressed size, modify count and
        # content id; the last row, one longer, becomes the offsets.
        ints = np.zeros((7, count + 1), np.int64)
        times = np.empty((2, count))
        paths: List[str] = []
        segments = bytearray()
        for start in range(0, count, _ROWS_AT_ONCE):
            (users, services, path, size, compressed, created, modified,
             modify_count, ids, content) = zip(
                 *itertools.islice(rows, _ROWS_AT_ONCE))
            stop = start + len(path)
            for table, codes, names in zip(tables, ints, (users, services)):
                codes[start:stop] = [table.setdefault(name, len(table))
                                     for name in names]
            ints[2:6, start:stop] = size, compressed, modify_count, content
            times[:, start:stop] = created, modified
            lengths = list(map(len, ids))
            ints[6, start + 1:stop + 1] = lengths
            paths += path
            try:
                segments += memoryview(_joined(ids, lengths))
            except TypeError:
                for row, blob in enumerate(ids, start):
                    if type(blob) is range:
                        continue
                    dtype = np.asarray(blob).dtype
                    if not np.can_cast(dtype, np.int64, "safe"):
                        raise MalformedRecord(
                            row, paths[row], f"segment ids of dtype "
                            f"{dtype} do not cast safely to int64") from None
                raise
        np.cumsum(ints[6], out=ints[6])
        return cls(list(tables[0]), list(tables[1]), ints[0, :count],
                   ints[1, :count], paths, ints[2, :count], ints[3, :count],
                   times[0], times[1], ints[4, :count], ints[5, :count],
                   ints[6], np.frombuffer(segments, np.int64))

    def take(self, rows: np.ndarray) -> "Trace":
        """Rows ``rows`` of this trace, in that order, as a trace of their
        own, with users and services coded at first sight as
        :meth:`from_fields` would code them."""
        tables = []
        for names, codes in ((self.user_names, self.user_code[rows]),
                             (self.service_names, self.service_code[rows])):
            seen = first_sight(codes)
            recode = np.zeros(len(names), np.int64)
            recode[seen] = np.arange(len(seen))
            tables.append(([names[code] for code in seen], recode[codes]))
        starts = self.offsets[rows]
        counts = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        gather = np.arange(offsets[-1], dtype=np.int64) + np.repeat(
            starts - offsets[:-1], counts)
        (users, user_code), (services, service_code) = tables
        return Trace(users, services, user_code, service_code,
                     [self.path[row] for row in rows.tolist()],
                     *(getattr(self, name)[rows] for name in _COLUMNS),
                     offsets, self.segments[gather])

    def __len__(self) -> int:
        return len(self.size)

    def __iter__(self) -> Iterator[TraceRecord]:
        for start in range(0, len(self), _ROWS_AT_ONCE):
            yield from self._rows(start, min(start + _ROWS_AT_ONCE, len(self)))

    def __getitem__(self, index: int) -> TraceRecord:
        index = range(len(self))[index]
        return next(self._rows(index, index + 1))

    def _rows(self, start: int, stop: int) -> Iterator[TraceRecord]:
        bounds = self.offsets[start:stop + 1].tolist()
        for k, (user, service, path, size, compressed, created, modified,
                count, content) in enumerate(zip(
                    self.user_code[start:stop].tolist(),
                    self.service_code[start:stop].tolist(),
                    self.path[start:stop], *(getattr(self, name)[start:stop]
                                             .tolist() for name in _COLUMNS))):
            yield TraceRecord(self.user_names[user],
                              self.service_names[service], path, size,
                              compressed, created, modified, count,
                              self.segments[bounds[k]:bounds[k + 1]], content)

    def users(self) -> Dict[str, int]:
        """service → distinct user count (the paper's Table 2), services
        in order of first appearance."""
        width = max(len(self.user_names), 1)
        pairs = np.unique(self.service_code * width + self.user_code)
        counts = np.bincount(pairs // width,
                             minlength=len(self.service_names)).tolist()
        return {self.service_names[code]: counts[code]
                for code in first_sight(self.service_code)}

    def total_bytes(self) -> int:
        return sum(self.size.tolist())

    def total_compressed_bytes(self) -> int:
        return sum(self.compressed_size.tolist())

    def sizes(self, compressed: bool = False) -> np.ndarray:
        return self.compressed_size if compressed else self.size
