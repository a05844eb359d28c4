"""Trace persistence: CSV (and zip) round-trip.

The paper shipped its trace as a downloadable archive; we do the same.  Each
row serialises one :class:`~repro.trace.schema.TraceRecord`, including the
content identity (the 128 KB segment ids) as a run-length-encoded list so
duplicate/near-duplicate structure — and therefore every dedup analysis —
survives the round trip exactly.
"""

from __future__ import annotations

import csv
import io
import itertools
import zipfile
from pathlib import Path
from typing import Union

import numpy as np

from .schema import MalformedRecord, Trace, TraceRecord

_FIELDS = [
    "user", "service", "path", "size", "compressed_size",
    "created_at", "modified_at", "modify_count", "content_id", "segments",
]


def _encode_segments(segments: np.ndarray) -> str:
    """Run-length encode consecutive id runs: ``start:length;start:length``
    (along a run, id minus position is constant)."""
    runs = itertools.groupby(enumerate(segments.tolist()),
                             key=lambda pair: pair[1] - pair[0])
    return ";".join(f"{run[0][1]}:{len(run)}"
                    for run in (list(pairs) for _, pairs in runs))


def _decode_segments(text: str) -> np.ndarray:
    runs = [run.split(":") for run in text.split(";") if run]
    if any(len(run) != 2 or int(run[1]) <= 0 for run in runs):
        raise ValueError(f"{text!r} is not start:length runs of positive "
                         f"length")
    return np.concatenate([np.empty(0, dtype=np.int64)] + [
        np.arange(int(start), int(start) + int(length), dtype=np.int64)
        for start, length in runs])


#: How each column's text parses; the rest are text.
_PARSERS = {"size": int, "compressed_size": int, "created_at": float,
            "modified_at": float, "modify_count": int, "content_id": int,
            "segments": _decode_segments}


def write_csv(trace: Trace, stream) -> None:
    writer = csv.DictWriter(stream, fieldnames=_FIELDS)
    writer.writeheader()
    for record in trace:    # csv writes a float as its repr
        row = {name: getattr(record, name) for name in _FIELDS}
        row["segments"] = _encode_segments(record.segments)
        writer.writerow(row)


def _parse_row(index: int, row: dict) -> TraceRecord:
    fields = {}
    for name in _FIELDS:
        text = row.get(name)
        try:
            if text is None:
                raise ValueError("missing")
            fields[name] = _PARSERS.get(name, str)(text)
        except (ValueError, OverflowError) as error:
            raise MalformedRecord(index, row.get("path") or "",
                                  f"column {name!r}: {error}") from None
    return TraceRecord(**fields)


def read_csv(stream) -> Trace:
    """A trace from CSV rows; a row that does not parse is refused as a
    :class:`MalformedRecord` naming its position among the rows."""
    return Trace.from_records(map(_parse_row, itertools.count(),
                                  csv.DictReader(stream)))


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace to ``*.csv`` or, with a ``.zip`` suffix, a zip archive."""
    path = Path(path)
    if path.suffix == ".zip":
        buffer = io.StringIO()
        write_csv(trace, buffer)
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("trace.csv", buffer.getvalue())
        return
    with path.open("w", newline="") as stream:
        write_csv(trace, stream)


def load_trace(path: Union[str, Path]) -> Trace:
    path = Path(path)
    if path.suffix == ".zip":
        with zipfile.ZipFile(path) as archive:
            with archive.open("trace.csv") as raw:
                return read_csv(io.TextIOWrapper(raw, encoding="utf-8"))
    with path.open(newline="") as stream:
        return read_csv(stream)
