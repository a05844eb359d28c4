"""Sharded event domains: independently schedulable clock-and-queue shards.

A :class:`DomainScheduler` partitions one logical simulation into ``D``
:class:`EventDomain` shards.  Each domain owns its own event queue (and,
at the fleet layer, its members' links/meters/folders); the scheduler's run
loop repeatedly dispatches the globally ``(time, epoch)``-minimal event
across domains.  Because every event — local or not — is stamped from one
shared monotone **epoch counter** at schedule time, and schedule calls
happen in the same order as they would against a single global queue, the
merged pop order is *identical* to the single-heap order at any domain
count: a sharded run is byte-identical to the global run by construction.
(Same playbook as the parallel-replay shards of PR 2: partition the work,
make the merge deterministic, prove equality instead of arguing it.)

Cross-domain effects are explicit: scheduling onto domain *B* while domain
*A*'s event is executing is a **domain message** — an epoch-stamped,
time-ordered handoff (commit fan-out is the fleet's source).  The
scheduler accounts every crossing in a source×target matrix and checks the
protocol invariants (monotone epochs, no backwards delivery), which
:func:`verify_domain_protocol` exposes to the audit layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf
from typing import Any, Callable, List, Optional

from .clock import Event, HeapEventQueue, SimulationError, resolve_delay


@dataclass(frozen=True)
class DomainMessage:
    """One epoch-stamped cross-domain handoff (kept only when tracing)."""

    epoch: int        # the event's global sequence stamp
    source: int       # domain whose event was executing at send time
    target: int       # domain whose queue received the event
    sent_at: float    # scheduler clock at the schedule call
    deliver_at: float  # virtual time the event fires in the target domain


class EventDomain:
    """One shard's scheduling handle: the ``Simulator`` surface a member
    (folder, channel, engine) binds to.

    ``now`` reads the scheduler's global clock; ``schedule``/``schedule_at``
    stamp events from the scheduler's shared epoch counter and push onto
    this domain's own queue.  Running the clock is the scheduler's job:
    ``run_until_idle``/``run_until`` run every domain, so a session bound
    to one domain drives the whole fleet, as on the global queue.
    """

    __slots__ = ("scheduler", "index", "queue")

    def __init__(self, scheduler: "DomainScheduler", index: int,
                 queue: HeapEventQueue):
        self.scheduler = scheduler
        self.index = index
        self.queue = queue

    @property
    def now(self) -> float:
        """Current virtual time (global across all domains)."""
        return self.scheduler.now

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` on this domain ``delay`` from now."""
        scheduler = self.scheduler
        if not 0.0 <= delay < inf:
            delay = resolve_delay(scheduler.now, delay)
        event = Event(scheduler.now + delay, next(scheduler._epochs),
                      callback, args)
        self.queue.push(event)
        scheduler._note_scheduled(self, event)
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        return self.schedule(time - self.scheduler.now, callback, *args)

    def pending_count(self) -> int:
        """Not-yet-cancelled events queued on this domain alone."""
        return len(self.queue)

    def run_until_idle(self, max_time: Optional[float] = None) -> float:
        """Run the scheduler, every domain, until idle or ``max_time``."""
        return self.scheduler.run_until_idle(max_time=max_time)

    def run_until(self, time: float) -> float:
        """Run the scheduler, every domain, through ``time``."""
        return self.scheduler.run_until(time)


class DomainScheduler:
    """The conservative cross-domain run loop, in ``Simulator``'s place.

    Has the :class:`~repro.simnet.Simulator` surface fleet-level code calls
    on it: ``now``, ``schedule``, the run loops and the queue reads.
    Scheduling directly on the scheduler routes to the currently executing
    domain (or domain 0 outside any event), while members schedule, and
    ``schedule_at``, through their own :class:`EventDomain` handles.
    """

    def __init__(self, domains: int = 1, trace_messages: bool = False):
        if domains < 1:
            raise SimulationError(f"need at least one domain (got {domains})")
        self._now = 0.0
        self._epochs = itertools.count()
        self._running = False
        #: Index of the domain whose event is currently executing, or None.
        self._executing: Optional[int] = None
        self.domains: List[EventDomain] = [
            EventDomain(self, index, HeapEventQueue())
            for index in range(domains)]
        #: ``cross_matrix[source][target]`` counts epoch-stamped handoffs.
        self.cross_matrix: List[List[int]] = [
            [0] * domains for _ in range(domains)]
        self.cross_messages = 0
        self._last_cross_epoch = -1
        self.trace_messages = trace_messages
        self.messages: List[DomainMessage] = []

    # -- domain access ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.domains)

    def domain(self, index: int) -> EventDomain:
        return self.domains[index]

    def domain_for(self, key: int) -> EventDomain:
        """Algorithmic placement ``shard = f(UID)``: pure, stateless."""
        return self.domains[key % len(self.domains)]

    # -- bookkeeping --------------------------------------------------------

    def _note_scheduled(self, domain: EventDomain, event: Event) -> None:
        source = self._executing
        if source is None or source == domain.index:
            return
        self.cross_messages += 1
        self.cross_matrix[source][domain.index] += 1
        if event.seq <= self._last_cross_epoch:
            raise SimulationError(
                f"cross-domain epoch went backwards: {event.seq} after "
                f"{self._last_cross_epoch}")
        self._last_cross_epoch = event.seq
        if self.trace_messages:
            self.messages.append(DomainMessage(
                epoch=event.seq, source=source, target=domain.index,
                sent_at=self._now, deliver_at=event.time))

    # -- Simulator API ------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule on the executing domain (domain 0 outside any event)."""
        target = self._executing if self._executing is not None else 0
        return self.domains[target].schedule(delay, callback, *args)

    def _min_domain(self) -> Optional[EventDomain]:
        """The domain holding the globally ``(time, epoch)``-minimal event.

        Epoch stamps are globally unique, so there are no ties: the linear
        scan (domain order is fixed) is deterministic for free.
        """
        best = None
        best_key = None
        for domain in self.domains:
            key = domain.queue.peek_key()
            if key is not None and (best_key is None or key < best_key):
                best, best_key = domain, key
        return best

    def peek_next_time(self) -> Optional[float]:
        """Time of the next pending event across all domains, or None."""
        domain = self._min_domain()
        if domain is None:
            return None
        key = domain.queue.peek_key()
        return None if key is None else key[0]

    def step(self) -> bool:
        """Dispatch the single globally-next event.  False when drained."""
        domain = self._min_domain()
        if domain is None:
            return False
        event = domain.queue.pop()
        if event is None:  # pragma: no cover - _min_domain saw a key
            return False
        if event.time < self._now:
            raise SimulationError("event queue went backwards in time")
        self._now = event.time
        self._executing = domain.index
        try:
            event.callback(*event.args)
        finally:
            self._executing = None
        return True

    def run_until_idle(self, max_time: Optional[float] = None,
                       max_events: int = 10_000_000) -> float:
        """Run events across all domains; returns the final virtual time."""
        if self._running:
            raise SimulationError(
                "run_until_idle re-entered; scheduler is not reentrant")
        self._running = True
        try:
            for _ in range(max_events):
                if max_time is not None:
                    next_time = self.peek_next_time()
                    if next_time is not None and next_time > max_time:
                        self._now = max(self._now, max_time)
                        return self._now
                if not self.step():
                    return self._now
            raise SimulationError(
                f"exceeded {max_events} events; runaway simulation?")
        finally:
            self._running = False

    def run_until(self, time: float) -> float:
        """Run all events at or before ``time``; returns the final time."""
        self.run_until_idle(max_time=time)
        self._now = max(self._now, time)
        return self._now

    def pending_count(self) -> int:
        """Not-yet-cancelled events queued across every domain."""
        return sum(domain.pending_count() for domain in self.domains)


def verify_domain_protocol(scheduler: DomainScheduler) -> List[str]:
    """Check the cross-domain message invariants; returns violations.

    * the accounting matrix and the total must agree (no lost crossings);
    * nothing travels to its own domain as a "cross" message;
    * with tracing on: epochs strictly increase in send order and no
      message is delivered before it was sent (conservative causality).
    """
    out: List[str] = []
    matrix_total = sum(sum(row) for row in scheduler.cross_matrix)
    if matrix_total != scheduler.cross_messages:
        out.append(f"cross-domain matrix sums to {matrix_total} but "
                   f"{scheduler.cross_messages} messages were counted")
    for index, row in enumerate(scheduler.cross_matrix):
        if row[index]:
            out.append(f"domain {index} recorded {row[index]} messages "
                       f"to itself")
    if scheduler.trace_messages:
        if len(scheduler.messages) != scheduler.cross_messages:
            out.append(f"traced {len(scheduler.messages)} messages but "
                       f"counted {scheduler.cross_messages}")
        last_epoch = -1
        for message in scheduler.messages:
            if message.epoch <= last_epoch:
                out.append(f"message epoch {message.epoch} not after "
                           f"{last_epoch}")
            last_epoch = message.epoch
            if message.deliver_at < message.sent_at:
                out.append(f"message epoch {message.epoch} delivered at "
                           f"{message.deliver_at} before send at "
                           f"{message.sent_at}")
    return out
