"""Wireshark-equivalent traffic accounting.

The paper records every packet between client and cloud with Wireshark and
reports *total sync traffic* (both directions), sometimes split into payload
and overhead (``Overhead traffic = Total sync traffic - payload``,
Experiment 1).  :class:`TrafficMeter` performs the same accounting on the
simulated wire: every byte a connection puts on the link is recorded with a
direction (``UP`` = client→cloud, ``DOWN`` = cloud→client), a payload/overhead
split, and a free-form kind tag used by tests and reports.  Each wire event is
one :class:`TrafficRecord` row, a ``NamedTuple``: a fleet meters several per
delivery, so a row is one tuple rather than a dataclass instance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import index
from typing import Dict, List, NamedTuple, Tuple


class Direction(enum.Enum):
    """Direction of traffic relative to the client."""

    UP = "up"      # client → cloud (the ISP trace's "inbound to the cloud")
    DOWN = "down"  # cloud → client


class TrafficRecord(NamedTuple):
    """One metered wire event (a transfer, handshake, ack stream, ...).

    An immutable ``NamedTuple`` row: fields read by name, ``_replace``
    builds a changed copy, and assigning a field raises ``AttributeError``.
    ``wasted`` marks the failure-induced portion of the record — bytes that
    crossed the wire but delivered no new data (retransmissions, aborted
    transfers, rejected requests).  It is a *decomposition* of
    ``payload + overhead``, never an addition to it.
    """

    time: float
    direction: Direction
    payload: int
    overhead: int
    kind: str = ""
    wasted: int = 0

    @property
    def total(self) -> int:
        return self.payload + self.overhead


@dataclass
class TrafficTotals:
    """Aggregated byte counters for one direction."""

    payload: int = 0
    overhead: int = 0
    wasted: int = 0

    @property
    def total(self) -> int:
        return self.payload + self.overhead

    @property
    def useful(self) -> int:
        return self.total - self.wasted

    def add(self, payload: int, overhead: int, wasted: int = 0) -> None:
        self.payload += payload
        self.overhead += overhead
        self.wasted += wasted


class TrafficMeter:
    """Accumulates :class:`TrafficRecord` entries and exposes totals.

    One meter is attached per client session; the cloud shares it so both
    directions of each exchange land in the same ledger, exactly like a
    capture taken at the client's NIC.
    """

    def __init__(self) -> None:
        self.records: List[TrafficRecord] = []
        #: Running totals per direction.  Only :meth:`record` and
        #: :meth:`reset` write them (reprolint REP011); readers may hold
        #: the objects but must not assign to them or their fields.
        self.up = TrafficTotals()
        self.down = TrafficTotals()

    def record(
        self,
        time: float,
        direction: Direction,
        payload: int,
        overhead: int = 0,
        kind: str = "",
        wasted: int = 0,
    ) -> TrafficRecord:
        """Meter one wire event as a :class:`TrafficRecord` row.

        Byte counts go through ``operator.index``: any integer, numpy's
        included, is metered as a Python ``int``; a float raises
        ``TypeError`` rather than being truncated, and a negative count
        raises ``ValueError``; either way nothing is metered.  ``wasted``
        tags how much of this record was failure-induced; it must not
        exceed ``payload + overhead`` (it is a split, not extra bytes).
        """
        payload = index(payload)
        overhead = index(overhead)
        wasted = index(wasted)
        if payload < 0 or overhead < 0 or wasted < 0:
            raise ValueError("traffic byte counts must be non-negative")
        if wasted > payload + overhead:
            raise ValueError("wasted bytes cannot exceed the record's total")
        if direction is Direction.UP:
            totals = self.up
        elif direction is Direction.DOWN:
            totals = self.down
        else:
            raise ValueError(f"unknown traffic direction {direction!r}")
        entry = TrafficRecord(time, direction, payload, overhead, kind, wasted)
        self.records.append(entry)
        totals.payload += payload
        totals.overhead += overhead
        totals.wasted += wasted
        return entry

    # -- totals ----------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Total sync traffic, both directions — the paper's numerator."""
        return self.up.total + self.down.total

    @property
    def payload_bytes(self) -> int:
        return self.up.payload + self.down.payload

    @property
    def overhead_bytes(self) -> int:
        return self.up.overhead + self.down.overhead

    @property
    def wasted_bytes(self) -> int:
        """Failure-induced bytes (retransmissions, aborts, rejected requests)."""
        return self.up.wasted + self.down.wasted

    @property
    def useful_bytes(self) -> int:
        """Total sync traffic minus the failure-induced component."""
        return self.total_bytes - self.wasted_bytes

    def bytes_by_kind(self) -> Dict[str, int]:
        """Total bytes grouped by record kind (handshake, payload, ack, ...)."""
        out: Dict[str, int] = {}
        for record in self.records:
            out[record.kind] = out.get(record.kind, 0) + record.total
        return out

    def totals_by_kind(self) -> Dict[str, TrafficTotals]:
        """Payload/overhead/wasted totals per record kind, both directions.

        The wasted-aware companion of :meth:`bytes_by_kind`: summing any
        field across kinds reproduces the meter-wide counter, which lets a
        per-kind ``useful_tue`` be reported and lets the conservation audit
        cross-check the ledger kind by kind.
        """
        out: Dict[str, TrafficTotals] = {}
        for record in self.records:
            totals = out.setdefault(record.kind, TrafficTotals())
            totals.add(record.payload, record.overhead, record.wasted)
        return out

    def snapshot(self) -> "MeterSnapshot":
        """Capture current totals so a caller can diff across an interval."""
        up, down = self.up, self.down
        return MeterSnapshot(up.payload, up.overhead, down.payload,
                             down.overhead, len(self.records), up.wasted,
                             down.wasted)

    def since(self, snapshot: "MeterSnapshot") -> "MeterSnapshot":
        """Totals accumulated since ``snapshot`` was taken."""
        up, down = self.up, self.down
        return MeterSnapshot(up.payload - snapshot.up_payload,
                             up.overhead - snapshot.up_overhead,
                             down.payload - snapshot.down_payload,
                             down.overhead - snapshot.down_overhead,
                             len(self.records) - snapshot.record_count,
                             up.wasted - snapshot.up_wasted,
                             down.wasted - snapshot.down_wasted)

    def records_since(self, snapshot: "MeterSnapshot") -> Tuple[TrafficRecord, ...]:
        """Records appended after ``snapshot`` was taken, as an immutable
        copy — records metered later must not leak into a captured view."""
        return tuple(self.records[snapshot.record_count:])

    def reset(self) -> None:
        self.records.clear()
        for totals in (self.up, self.down):
            totals.payload = totals.overhead = totals.wasted = 0


@dataclass(frozen=True)
class MeterSnapshot:
    """Immutable view of meter totals, used both as snapshot and as delta."""

    up_payload: int = 0
    up_overhead: int = 0
    down_payload: int = 0
    down_overhead: int = 0
    record_count: int = 0
    up_wasted: int = 0
    down_wasted: int = 0

    @property
    def up_total(self) -> int:
        return self.up_payload + self.up_overhead

    @property
    def down_total(self) -> int:
        return self.down_payload + self.down_overhead

    @property
    def total(self) -> int:
        return self.up_total + self.down_total

    @property
    def payload(self) -> int:
        return self.up_payload + self.down_payload

    @property
    def overhead(self) -> int:
        return self.up_overhead + self.down_overhead

    @property
    def wasted(self) -> int:
        return self.up_wasted + self.down_wasted

    @property
    def useful(self) -> int:
        return self.total - self.wasted
