"""The fleet's old allocations — the oracle for the lean fan-out delivery.

Before a delivery allocated only what it meters, the meter kept each wire
event as a frozen-dataclass row (range checks on the raw counts, then an
``int()`` coercion), and every fleet member built its fetch-backoff
``random.Random`` up front, whether or not it ever retried.

:class:`ReferenceFleet` is a :class:`~repro.fleet.Fleet` whose members do
exactly that, and whose fetch is pinned to the two-event delivery
(notification -> fetch -> apply), so a change to how production schedules
a delivery shows too.  Everything else is the production code, so a
differential against it isolates what the row type, the span-attribute
skip, the lazy RNG and any scheduling change did.
"""

import random
from dataclasses import dataclass
from typing import Optional

from repro.fleet import FanoutEpoch, Fleet, FleetMember
from repro.simnet import DomainScheduler, Direction, TrafficMeter


@dataclass(frozen=True)
class ReferenceTrafficRecord:
    """The frozen-dataclass wire record the meter kept before its rows
    became a ``NamedTuple``."""

    time: float
    direction: Direction
    payload: int
    overhead: int
    kind: str = ""
    wasted: int = 0

    @property
    def total(self) -> int:
        return self.payload + self.overhead


class ReferenceMeter(TrafficMeter):
    """A meter whose ``record`` is the old one: range checks on the raw
    counts, then ``int()`` coercion, then a frozen-dataclass row."""

    def record(self, time: float, direction: Direction, payload: int,
               overhead: int = 0, kind: str = "",
               wasted: int = 0) -> ReferenceTrafficRecord:
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
        payload, overhead, wasted = int(payload), int(overhead), int(wasted)
        entry = ReferenceTrafficRecord(time, direction, payload, overhead,
                                       kind, wasted)
        self.records.append(entry)
        totals.payload += payload
        totals.overhead += overhead
        totals.wasted += wasted
        return entry


class ReferenceMember(FleetMember):
    """A member with an eager RNG whose meter keeps old-style rows, and
    the two-event delivery pinned here."""

    def __init__(self, hub, index: int, name: str, profile, seed: int = 0,
                 **kwargs):
        super().__init__(hub, index, name, profile, seed=seed, **kwargs)
        # The channel and the recorder already hold this meter object, so
        # switching its class is what puts every wire event on old rows.
        self.meter.__class__ = ReferenceMeter
        self._rng = random.Random(seed * 1_000_003 + index)

    def _fetch_entry(self, entry: FanoutEpoch) -> None:
        """The apply is its own event, queued behind everything already
        due at this instant, even when the member is idle."""
        if not self.live:
            return
        start = max(self.sim.now, self._busy_until)
        self.sim.schedule_at(start, self._apply_entry, entry)


class ReferenceFleet(Fleet):
    """A :class:`~repro.fleet.Fleet` whose members are reference members."""

    def _spawn(self, name: Optional[str] = None) -> FleetMember:
        index = len(self.hub.members)
        name = name or f"client{index}"
        sim = (self.sim.domain_for(index)
               if isinstance(self.sim, DomainScheduler) else self.sim)
        return ReferenceMember(
            hub=self.hub, index=index, name=name, profile=self.profile,
            machine=self.machine, link_spec=self.link_spec, seed=self.seed,
            retry=self.retry, fault_schedule=self.faults,
            recorder=self._recorder(name), sim=sim)
