"""The fleet's old allocations and delivery — the oracle for the lean,
queued fan-out delivery.

Before a delivery allocated only what it meters, the meter kept each wire
event as a frozen-dataclass row (range checks on the raw counts, then an
``int()`` coercion).

Before a member queued its deliveries, a delivery was two events
(notification -> fetch -> apply): the fetch scheduled the apply at
``max(now, idle_at)``, behind every event already due at that instant,
and ``idle_at`` moved only when an apply ran, so two fetches reaching a
member at one instant both started downloading then.

:class:`ReferenceFleet` is a :class:`~repro.fleet.Fleet` whose members do
exactly that.  Everything else is the production code, so a differential
against it isolates what the row type, the span-attribute skip and the
per-member queue did.  The queue moves when downloads start,
so the oracle speaks for everything except time.
"""

from dataclasses import dataclass

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
    """A member whose meter keeps old-style rows, and the old two-event
    delivery."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The channel and the recorder already hold this meter object, so
        # switching its class is what puts every wire event on old rows.
        self.meter.__class__ = ReferenceMeter

    def _fetch_entry(self, entry: FanoutEpoch) -> None:
        """The apply is its own event, queued behind everything already
        due at this instant, even when the member is idle."""
        self.sim.schedule_at(max(self.sim.now, self._idle_at),
                             self._apply_entry, entry)


class ReferenceFleet(Fleet):
    """A :class:`~repro.fleet.Fleet` whose members are reference members."""

    def _spawn(self) -> FleetMember:
        index = len(self.hub.members)
        name = f"client{index}"
        sim = (self.sim.domain_for(index)
               if isinstance(self.sim, DomainScheduler) else self.sim)
        return ReferenceMember(
            hub=self.hub, index=index, name=name, profile=self.profile,
            link_spec=self.link_spec, seed=self.seed,
            fault_schedule=self.faults,
            recorder=self._recorder(name), sim=sim)
