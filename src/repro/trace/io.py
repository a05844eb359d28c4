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

from .schema import Trace, TraceRecord

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
    return np.concatenate([np.empty(0, dtype=np.int64)] + [
        np.arange(int(start), int(start) + int(length), dtype=np.int64)
        for start, length in (run.split(":") for run in text.split(";")
                              if run)])


def write_csv(trace: Trace, stream) -> None:
    writer = csv.DictWriter(stream, fieldnames=_FIELDS)
    writer.writeheader()
    for record in trace:    # csv writes a float as its repr
        row = {name: getattr(record, name) for name in _FIELDS}
        row["segments"] = _encode_segments(record.segments)
        writer.writerow(row)


def read_csv(stream) -> Trace:
    return Trace.from_records(TraceRecord(
        row["user"], row["service"], row["path"], int(row["size"]),
        int(row["compressed_size"]), float(row["created_at"]),
        float(row["modified_at"]), int(row["modify_count"]),
        _decode_segments(row["segments"]), int(row["content_id"]))
        for row in csv.DictReader(stream))


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
