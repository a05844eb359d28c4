"""Typed span ledger for wire-level event tracing.

A :class:`TraceRecorder` collects :class:`Span` entries emitted by the
channel, the sync engine, and the cloud server.  Spans come in two
families:

* **wire spans** (``connect``, ``exchange``) — every call that puts bytes
  on the metered wire produces exactly one, carrying the
  :class:`~repro.simnet.meter.MeterSnapshot` delta it caused plus the
  model inputs (payload/wire byte counts) needed to recompute the
  packetisation arithmetic independently;
* **logical spans** (``retry-attempt``, ``defer-window``, ``dedup-hit``,
  ``fault-episode``, ``sync-transaction``, ``meter-reset``,
  ``strategy-select``, ``delta-exchange``) — zero-cost markers that
  explain *why* the wire spans look the way they do.

Emitters never import this module: they duck-type on an injected recorder
object and use plain-string kinds, so tracing adds a single ``is None``
check per event when disabled and cannot create import cycles.

The ambient :class:`TraceHub` (installed by :func:`recording`) lets
experiment code that builds its sessions internally pick up a recorder per
session without any signature changes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..simnet.meter import MeterSnapshot, TrafficMeter

#: Span kinds.  Wire spans carry a meter delta; logical spans explain them.
CONNECT = "connect"
EXCHANGE = "exchange"
RETRY_ATTEMPT = "retry-attempt"
DEFER_WINDOW = "defer-window"
DEDUP_HIT = "dedup-hit"
FAULT_EPISODE = "fault-episode"
SYNC_TRANSACTION = "sync-transaction"
METER_RESET = "meter-reset"
CONFLICT_RESOLVED = "conflict-resolved"
FANOUT_NOTIFICATION = "fanout-notification"
BUNDLE_COMMIT = "bundle-commit"
STRATEGY_SELECT = "strategy-select"
DELTA_EXCHANGE = "delta-exchange"

WIRE_KINDS = frozenset({CONNECT, EXCHANGE})
SPAN_KINDS = WIRE_KINDS | frozenset({
    RETRY_ATTEMPT, DEFER_WINDOW, DEDUP_HIT, FAULT_EPISODE,
    SYNC_TRANSACTION, METER_RESET, CONFLICT_RESOLVED, FANOUT_NOTIFICATION,
    BUNDLE_COMMIT, STRATEGY_SELECT, DELTA_EXCHANGE,
})


@dataclass(frozen=True)
class Span:
    """One traced interval: ``[start, end]`` in sim-time plus its evidence.

    ``delta`` is the meter movement the span produced (``None`` for
    zero-cost logical spans); ``attrs`` holds the emitter's model inputs
    (JSON-serialisable scalars only) so the auditor can recompute the wire
    arithmetic without trusting the meter.
    """

    index: int
    kind: str
    name: str
    source: str
    start: float
    end: float
    delta: Optional[MeterSnapshot] = None
    attrs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def wire(self) -> bool:
        return self.kind in WIRE_KINDS

    def describe(self) -> str:
        return (f"span #{self.index} {self.kind}/{self.name} "
                f"[{self.start:.3f}, {self.end:.3f}] from {self.source}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "name": self.name,
            "source": self.source,
            "start": self.start,
            "end": self.end,
            "delta": asdict(self.delta) if self.delta is not None else None,
            "attrs": dict(self.attrs),
        }


@dataclass
class PhaseStat:
    """Aggregated timing/bytes for one (kind, name) phase of a trace."""

    kind: str
    name: str
    events: int = 0
    seconds: float = 0.0
    up_bytes: int = 0
    down_bytes: int = 0
    wasted_bytes: int = 0

    def absorb(self, other: "PhaseStat") -> None:
        self.events += other.events
        self.seconds += other.seconds
        self.up_bytes += other.up_bytes
        self.down_bytes += other.down_bytes
        self.wasted_bytes += other.wasted_bytes


class TraceRecorder:
    """Ordered ledger of spans for one session (one meter)."""

    def __init__(self, label: str = "session") -> None:
        self.label = label
        self.meter: Optional[TrafficMeter] = None
        self.spans: List[Span] = []
        #: Exported totals, used instead of a live meter after JSONL reload.
        self.totals: Optional[MeterSnapshot] = None

    def bind_meter(self, meter: TrafficMeter) -> None:
        self.meter = meter

    def record_span(self, kind: str, name: str, source: str,
                    start: float, end: float,
                    delta: Optional[MeterSnapshot] = None,
                    **attrs: Any) -> Span:
        if kind not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {kind!r}")
        span = Span(len(self.spans), kind, name, source,
                    float(start), float(end), delta, attrs)
        self.spans.append(span)
        return span

    def note_reset(self, time: float) -> Span:
        """Mark a meter reset: spans before this point belong to a closed
        accounting epoch and are no longer reflected in meter totals."""
        return self.record_span(METER_RESET, "reset", "meter", time, time)

    # -- views ------------------------------------------------------------

    def wire_spans(self) -> List[Span]:
        return [span for span in self.spans if span.wire]

    def final_epoch_wire_spans(self) -> List[Span]:
        """Wire spans emitted after the last meter reset (the only epoch
        the live meter totals still describe)."""
        epoch_start = 0
        for span in self.spans:
            if span.kind == METER_RESET:
                epoch_start = span.index + 1
        return [span for span in self.spans[epoch_start:] if span.wire]

    def final_totals(self) -> Optional[MeterSnapshot]:
        if self.meter is not None:
            return self.meter.snapshot()
        return self.totals

    def phase_breakdown(self) -> List[PhaseStat]:
        """Per-(kind, name) totals: event count, wall time, wire bytes.

        Byte columns count wire spans only — logical spans (e.g. a
        sync-transaction wrapping several exchanges) would double-count.
        """
        stats: Dict[Tuple[str, str], PhaseStat] = {}
        for span in self.spans:
            if span.kind == METER_RESET:
                continue
            stat = stats.setdefault((span.kind, span.name),
                                    PhaseStat(span.kind, span.name))
            stat.events += 1
            stat.seconds += max(span.duration, 0.0)
            if span.wire and span.delta is not None:
                stat.up_bytes += span.delta.up_total
                stat.down_bytes += span.delta.down_total
                stat.wasted_bytes += span.delta.wasted
        return sorted(stats.values(), key=lambda s: (s.kind, s.name))


class TraceHub:
    """A bag of recorders, one per session, sharing one trace context."""

    def __init__(self) -> None:
        self.recorders: List[TraceRecorder] = []

    def new_recorder(self, label: str = "session") -> TraceRecorder:
        recorder = TraceRecorder(f"{label}#{len(self.recorders)}")
        self.recorders.append(recorder)
        return recorder

    @property
    def span_count(self) -> int:
        return sum(len(recorder.spans) for recorder in self.recorders)

    def phase_breakdown(self) -> List[PhaseStat]:
        merged: Dict[Tuple[str, str], PhaseStat] = {}
        for recorder in self.recorders:
            for stat in recorder.phase_breakdown():
                merged.setdefault((stat.kind, stat.name),
                                  PhaseStat(stat.kind, stat.name)).absorb(stat)
        return sorted(merged.values(), key=lambda s: (s.kind, s.name))

    # -- JSONL export ------------------------------------------------------

    def to_jsonl(self, path: str) -> None:
        """One line per span, preceded by a per-session header carrying the
        final meter totals so an exported trace stays auditable."""
        with open(path, "w", encoding="utf-8") as stream:
            for recorder in self.recorders:
                totals = recorder.final_totals()
                stream.write(json.dumps({
                    "type": "session",
                    "session": recorder.label,
                    "totals": asdict(totals) if totals is not None else None,
                }) + "\n")
                for span in recorder.spans:
                    line = span.to_dict()
                    line["type"] = "span"
                    line["session"] = recorder.label
                    stream.write(json.dumps(line) + "\n")

    @classmethod
    def from_jsonl(cls, path: str) -> "TraceHub":
        """Load a :meth:`to_jsonl` dump.  A malformed line raises
        ``ValueError`` naming ``path`` and the line's 1-based number."""
        hub = cls()
        with open(path, "r", encoding="utf-8") as stream:
            for number, text in enumerate(stream, start=1):
                try:
                    if text.strip():
                        hub._load_line(text)
                except ValueError as error:
                    raise ValueError(f"{path}, line {number}: {error}") \
                        from None
        return hub

    def _load_line(self, text: str) -> None:
        try:
            entry = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"not JSON ({error.msg}, column "
                             f"{error.colno})") from None
        if not isinstance(entry, dict):
            raise ValueError(
                f"expected a JSON object, got {type(entry).__name__}")
        kind = entry.get("type")
        keys = _DUMP_KEYS.get(kind) if isinstance(kind, str) else None
        if keys is None:
            raise ValueError(f"unknown line type {kind!r}")
        missing = [key for key in keys if key not in entry]
        if missing:
            raise ValueError(f"{kind} line lacks {', '.join(missing)}")
        for key in keys:
            _check_type(key, entry[key])
        attrs = entry.get("attrs", {})
        _check_type("attrs", attrs)
        if kind == "session":
            recorder = TraceRecorder(entry["session"])
            recorder.totals = _dump_snapshot("totals", entry["totals"])
            self.recorders.append(recorder)
        elif not self.recorders:
            raise ValueError("span line before any session header")
        elif entry["kind"] not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {entry['kind']!r}")
        else:
            self.recorders[-1].spans.append(Span(
                entry["index"], entry["kind"], entry["name"], entry["source"],
                entry["start"], entry["end"],
                _dump_snapshot("delta", entry["delta"]), attrs))


#: The keys each line type of a JSONL dump must carry.
_DUMP_KEYS = {
    "session": ("session", "totals"),
    "span": ("index", "kind", "name", "source", "start", "end", "delta"),
}
_METER_KEYS = frozenset(meter_field.name
                        for meter_field in fields(MeterSnapshot))
#: The JSON type each scalar field of a dump line must have, and its name
#: in the refusal.  ``totals``/``delta`` are checked by
#: :func:`_dump_snapshot`.
_DUMP_TYPES = {
    "session": ((str,), "a string"),
    "index": ((int,), "an integer"),
    "kind": ((str,), "a string"),
    "name": ((str,), "a string"),
    "source": ((str,), "a string"),
    "start": ((int, float), "a number"),
    "end": ((int, float), "a number"),
    "attrs": ((dict,), "an object"),
}


def _check_type(key: str, value: Any) -> None:
    """Refuse a dumped field whose JSON type is wrong (``true`` is no
    number), before it can reach a comparison or a hash."""
    spec = _DUMP_TYPES.get(key)
    if spec is not None and (isinstance(value, bool)
                             or not isinstance(value, spec[0])):
        raise ValueError(f"{key} is not {spec[1]}: {value!r}")


def _dump_snapshot(key: str, value: Any) -> Optional[MeterSnapshot]:
    """A dumped ``delta``/``totals`` (an object of integer counts, or null)
    as a snapshot."""
    if value is not None and not (
            isinstance(value, dict) and _METER_KEYS.issuperset(value)
            and all(type(count) is int for count in value.values())):
        raise ValueError(f"{key} is not a meter snapshot: {value!r}")
    return None if value is None else MeterSnapshot(**value)


# -- ambient hub ----------------------------------------------------------
#
# Experiments build their SyncSessions internally, so tracing is opted into
# ambiently: ``with recording() as hub:`` installs a hub; every session
# constructed inside the block asks session_recorder() for a recorder.
# When no hub is installed the answer is None and every emitter reduces to
# one ``is None`` check — the overhead-when-disabled guarantee.

_HUB: Optional[TraceHub] = None


def current_hub() -> Optional[TraceHub]:
    return _HUB


def session_recorder(label: str = "session") -> Optional[TraceRecorder]:
    """A fresh recorder from the ambient hub, or None when not recording."""
    if _HUB is None:
        return None
    return _HUB.new_recorder(label)


@contextmanager
def recording(hub: Optional[TraceHub] = None, audit: bool = False,
              jsonl: Optional[str] = None) -> Iterator[TraceHub]:
    """Install an ambient :class:`TraceHub` for the duration of the block.

    ``jsonl`` exports the trace on exit (even after an exception, for
    post-mortems); ``audit=True`` runs the full conservation audit on
    normal exit and raises :class:`~repro.obs.AuditViolation` on the
    first broken invariant.
    """
    global _HUB
    active = hub if hub is not None else TraceHub()
    previous = _HUB
    _HUB = active
    try:
        yield active
    finally:
        _HUB = previous
        if jsonl is not None:
            active.to_jsonl(jsonl)
    if audit:
        from .audit import audit_hub
        audit_hub(active)
