"""Deterministic discrete-event simulation core.

Every experiment in this reproduction runs on a :class:`Simulator`: a single
monotonic clock plus a priority queue of timed callbacks.  Determinism matters
because the paper's TUE numbers depend on the precise interleaving of file
modifications, metadata computation, and network transfers (§6.2 of the
paper); a real-time implementation would make the figures unrepeatable.

Every simulator runs on :class:`HeapEventQueue`, a ``heapq`` of
``(time, seq, event)`` with lazy cancellation.  :class:`CalendarEventQueue`
(a Brown-style calendar/bucket queue with eager cancellation, the default
from PR 6 until PR 21) is a reference only: the pop-order property test
compares the heap against it, and it stays importable
(``Simulator(queue="calendar")``) because ``benchmarks/perf`` probes it.

Both order events by ``(time, seq)`` where ``seq`` is the schedule-call
counter, so pop order — and therefore every downstream byte count — is
identical regardless of which queue is in use.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from typing import Any, Callable, List, Optional, Tuple, Union


class SimulationError(RuntimeError):
    """Raised when the simulator is driven into an invalid state."""


#: Relative tolerance for "scheduling into the past".  Chains of absolute
#: times (``schedule_at(committed_at + k * delay)``) accumulate float noise
#: on the order of a few ulps; a delta no more negative than this fraction
#: of the clock magnitude is rounding, not a logic error, and clamps to
#: "now".  Genuinely past times still raise.
PAST_EPSILON = 1e-12


def _event_key(event: "Event") -> Tuple[float, int]:
    return (event.time, event.seq)


def resolve_delay(now: float, delay: float) -> float:
    """Validate a relative delay, clamping sub-epsilon float noise to zero.

    Shared by :class:`Simulator` and the per-domain handles in
    :mod:`repro.simnet.domains` so both reject genuinely past and
    non-finite times and forgive ulp-scale negatives identically.  (A
    ``nan`` key corrupts heap order; ``inf`` drags the clock to ``inf``.)
    """
    if delay < 0:
        if -delay <= PAST_EPSILON * max(1.0, abs(now)):
            return 0.0
        raise SimulationError(
            f"cannot schedule into the past (delay={delay})")
    if not delay < inf:
        raise SimulationError(
            f"cannot schedule at a non-finite time (delay={delay})")
    return delay


class Event:
    """A scheduled callback.  Cancellable until it fires."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "queue")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The queue currently holding the event; popping clears it, so a
        #: cancel after the event fired is a no-op.
        self.queue: Optional["EventQueue"] = None

    def __lt__(self, other: "Event") -> bool:
        """Order by ``(time, seq)`` so buckets can be heap-ordered."""
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        queue, self.queue = self.queue, None
        if queue is not None:
            queue.discard(self)


class HeapEventQueue:
    """The ``heapq`` queue every simulator runs on: O(log n) push/pop.

    Cancellation is lazy — a cancelled event stays on the heap and is
    skipped when it surfaces — so ``_live`` counts the events that can
    still fire: up on push, down on pop and on :meth:`discard` (which
    :meth:`Event.cancel` calls exactly once per queued event).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, event.seq, event))
        event.queue = self
        self._live += 1

    def discard(self, event: Event) -> None:
        """Lazy: the ``cancelled`` flag alone keeps the event from firing."""
        self._live -= 1

    def pop(self) -> Optional[Event]:
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                event.queue = None
                self._live -= 1
                return event
        return None

    def peek_key(self) -> Optional[Tuple[float, int]]:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        time, seq, _ = heap[0]
        return (time, seq)


class CalendarEventQueue:
    """A calendar (bucket) queue ordered by ``(time, seq)``.

    Virtual time is partitioned into fixed-width slots mapped round-robin
    onto ``nbuckets`` buckets (R. Brown, CACM 1988), each kept
    **heap-ordered** by ``(time, seq)``: the bucket head is always the
    bucket minimum, so a pop scans at most one "year" of slot *heads* from
    the clock hand and then does one ``heappop``.  That keeps pop O(1)
    amortized when occupancy stays near one event per bucket (the resize
    policy's job) *and* O(log k) — never O(k) — when a fan-out burst lands
    k same-time events in one slot, the degenerate case that makes an
    unsorted-bucket calendar quadratic.  Cancellation is **eager**: the
    event is removed from its bucket immediately, so dead entries never
    inflate bucket scans the way they inflate a lazy-deletion heap.
    """

    _MIN_BUCKETS = 8

    def __init__(self, width: float = 1.0,
                 nbuckets: int = _MIN_BUCKETS) -> None:
        self._width = float(width)
        self._nbuckets = max(int(nbuckets), self._MIN_BUCKETS)
        self._buckets: List[List[Event]] = [[] for _ in range(self._nbuckets)]
        self._count = 0
        #: Pop cursor: never above the smallest live event time.
        self._hand = 0.0
        #: Cached result of the last slot scan (invalidated on mutation).
        self._head: Optional[Event] = None

    def __len__(self) -> int:
        return self._count

    def _index(self, time: float) -> int:
        return int(time // self._width) % self._nbuckets

    def push(self, event: Event) -> None:
        heapq.heappush(self._buckets[self._index(event.time)], event)
        self._count += 1
        event.queue = self
        if event.time < self._hand:
            self._hand = event.time
        head = self._head
        if head is not None and _event_key(event) < _event_key(head):
            self._head = event
        if self._count > 2 * self._nbuckets:
            self._resize(2 * self._nbuckets)

    def discard(self, event: Event) -> None:
        """Eagerly drop a cancelled event from its bucket.

        O(k) in the bucket size — acceptable because cancellation is rare
        (one pending-wake per engine), unlike push/pop which are hot.
        """
        bucket = self._buckets[self._index(event.time)]
        bucket[bucket.index(event)] = bucket[-1]
        bucket.pop()
        heapq.heapify(bucket)
        self._count -= 1
        if self._head is event:
            self._head = None
        if (self._nbuckets > self._MIN_BUCKETS
                and self._count < self._nbuckets // 2):
            self._resize(self._nbuckets // 2)

    def _resize(self, nbuckets: int) -> None:
        events = [event for bucket in self._buckets for event in bucket]
        self._width = self._estimate_width(events)
        self._nbuckets = max(int(nbuckets), self._MIN_BUCKETS)
        self._buckets = [[] for _ in range(self._nbuckets)]
        for event in events:
            self._buckets[self._index(event.time)].append(event)
        for bucket in self._buckets:
            heapq.heapify(bucket)

    def _estimate_width(self, events: List[Event]) -> float:
        """Slot width targeting ~1 live event per slot over the queue span."""
        if len(events) < 2:
            return max(self._width, 1e-9)
        lo = min(event.time for event in events)
        hi = max(event.time for event in events)
        if hi <= lo:
            return max(self._width, 1e-9)
        return max((hi - lo) / len(events), 1e-9)

    def _scan_min(self) -> Optional[Event]:
        """Locate (without removing) the ``(time, seq)``-minimal event.

        Each slot maps to exactly one bucket, and a bucket's heap head is
        its ``(time, seq)`` minimum, so the scan only ever inspects heads:
        the first head whose slot matches the scan slot is the global
        minimum.  Slot membership is decided exactly as placement decides
        it — ``int(time // width)`` — never by comparing against a
        recomputed slot boundary, which float rounding can disagree with
        (an event at ``t == 17 * width`` may divide down into slot 16 and
        would then sit just past slot 16's computed upper bound).  Since
        ``int(t // w)`` is monotone in ``t``, a head from a *later* slot
        proves its whole bucket holds nothing for the current one.  A full
        fruitless year means everything is ≥ one year out, and the scan
        falls back to the minimum over all heads (then caches it).
        """
        if self._count == 0:
            return None
        if self._head is not None:
            return self._head
        width = self._width
        nbuckets = self._nbuckets
        slot = int(self._hand // width)
        index = slot % nbuckets
        best: Optional[Event] = None
        for _ in range(nbuckets):
            bucket = self._buckets[index]
            if bucket and int(bucket[0].time // width) == slot:
                best = bucket[0]
                break
            slot += 1
            index += 1
            if index == nbuckets:
                index = 0
        if best is None:
            best = min(bucket[0] for bucket in self._buckets if bucket)
        self._head = best
        return best

    def pop(self) -> Optional[Event]:
        event = self._scan_min()
        if event is None:
            return None
        # _scan_min always returns a bucket head, so removal is a heappop.
        heapq.heappop(self._buckets[self._index(event.time)])
        self._count -= 1
        self._head = None
        self._hand = event.time
        event.queue = None
        if (self._nbuckets > self._MIN_BUCKETS
                and self._count < self._nbuckets // 2):
            self._resize(self._nbuckets // 2)
        return event

    def peek_key(self) -> Optional[Tuple[float, int]]:
        event = self._scan_min()
        return None if event is None else _event_key(event)


#: Anything quacking like the two queues above (push/pop/discard/peek_key).
EventQueue = Union[HeapEventQueue, CalendarEventQueue]


def make_event_queue(kind: str = "heap") -> EventQueue:
    """Build an event queue by name (``"heap"`` or ``"calendar"``)."""
    if kind == "calendar":
        return CalendarEventQueue()
    if kind == "heap":
        return HeapEventQueue()
    raise ValueError(f"unknown event queue kind {kind!r}")


class Simulator:
    """An event loop with a virtual clock over a pluggable event queue.

    Usage::

        sim = Simulator()
        sim.schedule(5.0, lambda: print(sim.now))
        sim.run_until_idle()
    """

    def __init__(self, start_time: float = 0.0,
                 queue: Union[str, EventQueue] = "heap",
                 seq: Optional[Any] = None):
        self._now = float(start_time)
        self._queue: EventQueue = (make_event_queue(queue)
                                   if isinstance(queue, str) else queue)
        #: ``seq`` is injectable so a :class:`~repro.simnet.domains.
        #: DomainScheduler` can stamp every domain's events from one global
        #: counter — the property that makes sharded runs byte-identical.
        self._seq = seq if seq is not None else itertools.count()
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not 0.0 <= delay < inf:
            delay = resolve_delay(self._now, delay)
        event = Event(self._now + delay, next(self._seq), callback, args)
        self._queue.push(event)
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        return self.schedule(time - self._now, callback, *args)

    def peek_next_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        key = self._queue.peek_key()
        return None if key is None else key[0]

    def step(self) -> bool:
        """Run the single next event.  Returns False when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:
            raise SimulationError("event queue went backwards in time")
        self._now = event.time
        event.callback(*event.args)
        return True

    def run_until_idle(self, max_time: Optional[float] = None,
                       max_events: int = 10_000_000) -> float:
        """Run events until the queue drains (or a safety bound trips).

        ``max_time`` stops the loop *after* the last event at or before that
        time; the clock is then advanced to ``max_time`` so follow-on
        scheduling behaves intuitively.  Returns the final virtual time.
        """
        if self._running:
            raise SimulationError(
                "run_until_idle re-entered; simulator is not reentrant")
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
        """Number of not-yet-cancelled events still queued."""
        return len(self._queue)
