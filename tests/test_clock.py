"""Unit tests for the discrete-event simulator core."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import (
    DomainScheduler,
    Event,
    HeapEventQueue,
    SimulationError,
    Simulator,
    make_event_queue,
)

QUEUE_KINDS = ["calendar", "heap"]


def simulator_on(queue):
    """A Simulator whose own heap is swapped for ``queue``, so a run-loop
    property is checked over the calendar reference too."""
    sim = Simulator()
    sim._queue = queue
    return sim


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run_until_idle()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_run_fifo():
    sim = Simulator()
    order = []
    for label in "abc":
        sim.schedule(1.0, order.append, label)
    sim.run_until_idle()
    assert order == ["a", "b", "c"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, 1)
    event.cancel()
    sim.run_until_idle()
    assert fired == []


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        seen.append(sim.now)
        sim.schedule(2.0, second)

    def second():
        seen.append(sim.now)

    sim.schedule(1.0, first)
    sim.run_until_idle()
    assert seen == [1.0, 3.0]


def test_run_until_stops_at_time_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run_until(5.0)
    assert fired == ["early"]
    assert sim.now == 5.0
    sim.run_until_idle()
    assert fired == ["early", "late"]


def test_schedule_at_absolute_time():
    sim = Simulator()
    times = []
    sim.schedule_at(4.0, lambda: times.append(sim.now))
    sim.run_until_idle()
    assert times == [4.0]


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    first.cancel()
    assert sim.peek_next_time() == 2.0


def test_pending_count_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending_count() == 1
    keep.cancel()
    assert sim.pending_count() == 0


def test_runaway_simulation_detected():
    sim = Simulator()

    def rescheduler():
        sim.schedule(0.001, rescheduler)

    sim.schedule(0.0, rescheduler)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


# -- run loop return values -------------------------------------------------

def test_run_until_idle_returns_final_time():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    assert sim.run_until_idle() == 3.0
    assert sim.run_until_idle() == 3.0  # idle run returns current time


def test_run_until_idle_with_max_time_returns_max_time():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    assert sim.run_until_idle(max_time=4.0) == 4.0


def test_run_until_returns_final_time():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.run_until(5.0) == 5.0
    assert sim.now == 5.0


# -- sub-epsilon past scheduling --------------------------------------------

def test_schedule_at_clamps_float_noise_to_now():
    # Chains like schedule_at(committed_at + k * delay) accumulate ulp
    # noise; an infinitesimally-past absolute time must not blow up.
    sim = Simulator()
    sim.run_until(1e6)
    now = sim.now
    fired = []
    sim.schedule_at(now - now * 1e-15, fired.append, "ok")
    sim.run_until_idle()
    assert fired == ["ok"]
    assert sim.now == now  # clamped to "now", not rewound


def test_schedule_at_still_rejects_genuinely_past_times():
    sim = Simulator()
    sim.run_until(100.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(99.0, lambda: None)


def test_schedule_rejects_genuinely_negative_delay():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.5, lambda: None)


# -- non-finite delays and times --------------------------------------------

def simulator_and_domain(queue_kind):
    """Both ``resolve_delay`` callers: a Simulator and a domain handle."""
    domain = DomainScheduler(domains=2).domain(1)
    domain.queue = make_event_queue(queue_kind)
    return [simulator_on(make_event_queue(queue_kind)), domain]


@pytest.mark.parametrize("method", ["schedule", "schedule_at"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("queue_kind", QUEUE_KINDS)
def test_non_finite_delay_or_time_rejected(queue_kind, bad, method):
    # Regression: ``nan < 0`` is false, so both slipped past the past-time
    # check; the calendar queue then died on ``int(nan // width)`` with a
    # bare ValueError while the heap took a key that breaks its ordering
    # (nan) or drags ``run_until_idle`` to ``now == inf``.
    for sim in simulator_and_domain(queue_kind):
        with pytest.raises(SimulationError):
            getattr(sim, method)(bad, lambda: None)
        assert sim.pending_count() == 0


# -- the default queue, and how often the run loop touches it -----------------

def test_heap_is_the_default_queue():
    assert isinstance(Simulator()._queue, HeapEventQueue)
    assert isinstance(make_event_queue(), HeapEventQueue)
    assert all(isinstance(domain.queue, HeapEventQueue)
               for domain in DomainScheduler(domains=3).domains)


class CountingQueue:
    """Forwards to a real queue, counting ``pop`` and ``peek_key`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.pops = self.peeks = 0

    def __len__(self):
        return len(self.inner)

    def push(self, event):
        self.inner.push(event)

    def pop(self):
        self.pops += 1
        return self.inner.pop()

    def peek_key(self):
        self.peeks += 1
        return self.inner.peek_key()


@pytest.mark.parametrize("queue_kind", QUEUE_KINDS)
def test_run_until_idle_pops_once_per_event_and_never_peeks(queue_kind):
    queue = CountingQueue(make_event_queue(queue_kind))
    sim = simulator_on(queue)
    for delay in (3.0, 1.0, 2.0, 2.0):
        sim.schedule(delay, lambda: None)
    assert sim.run_until_idle() == 3.0
    assert (queue.pops, queue.peeks) == (4 + 1, 0)  # +1: the empty pop
    # A bounded run has to look before it pops.
    sim.schedule(5.0, lambda: None)
    assert sim.run_until_idle(max_time=4.0) == 4.0
    assert (queue.pops, queue.peeks) == (5, 1)


def test_scheduler_run_until_idle_scans_domains_once_per_event():
    scheduler = DomainScheduler(domains=3)
    queues = []
    for domain in scheduler.domains:
        domain.queue = CountingQueue(domain.queue)
        queues.append(domain.queue)
    for index, delay in enumerate((3.0, 1.0, 2.0, 2.0)):
        scheduler.domain(index % 3).schedule(delay, lambda: None)
    assert scheduler.run_until_idle() == 3.0
    assert sum(queue.pops for queue in queues) == 4
    # One head scan per dispatched event plus the one that finds it empty.
    assert [queue.peeks for queue in queues] == [4 + 1] * 3


# -- pending_count under cancellation ----------------------------------------

@pytest.mark.parametrize("queue_kind", QUEUE_KINDS)
def test_pending_count_exact_under_every_cancel_order(queue_kind):
    """The heap's live counter can drift four ways; none may move it."""
    sim = simulator_on(make_event_queue(queue_kind))
    fired = []
    head = sim.schedule(1.0, fired.append, "head")
    events = [sim.schedule(2.0 + i, fired.append, i) for i in range(4)]
    assert sim.pending_count() == 5
    events[2].cancel()                      # cancel before pop
    assert sim.pending_count() == 4
    events[2].cancel()                      # double cancel
    assert sim.pending_count() == 4
    head.cancel()                           # cancel the head, then peek
    assert sim.peek_next_time() == 2.0      # (prunes the tombstone)
    assert sim.pending_count() == 3
    assert sim.step() and fired == [0]
    assert sim.pending_count() == 2
    events[0].cancel()                      # cancel after fire
    head.cancel()                           # ... and a pruned one again
    assert sim.pending_count() == 2
    sim.run_until_idle()
    assert fired == [0, 1, 3]
    assert sim.pending_count() == 0


# -- heapq vs. the calendar-queue reference -----------------------------------

def run_script(queue_kind, script):
    """Drive one queue through a push/cancel/pop script; return firings.

    ``script`` is a list of (time, cancel_index) pairs: each step pushes an
    event at ``time``, then (if ``cancel_index`` is not None) cancels the
    event pushed at that index.  The events then pop in order, and each
    even label pushes one follow-up 0.25 later, so pushes interleave with
    pops as they do inside a run.  Sequence stamps count pushes, as the
    simulator's do.
    """
    queue = make_event_queue(queue_kind)
    seq = itertools.count()
    fired = []
    events = []

    def push(time, label):
        event = Event(time, next(seq), None, (label,))
        queue.push(event)
        return event

    for label, (time, cancel_index) in enumerate(script):
        events.append(push(time, label))
        if cancel_index is not None:
            events[cancel_index % len(events)].cancel()
    while (event := queue.pop()) is not None:
        (label,) = event.args
        fired.append((event.time, label))
        if label % 2 == 0 and label < 1000:
            # One follow-up only — labels ≥ 1000 never re-schedule.
            push(event.time + 0.25, label + 1000)
    return fired


@pytest.mark.parametrize("queue_kind", QUEUE_KINDS)
def test_queue_kinds_run_identical_scripts(queue_kind):
    script = [(2.5, None), (2.5, None), (0.0, 0), (7.25, None), (2.5, 1)]
    assert run_script(queue_kind, script) == [
        (0.0, 2), (0.25, 1002), (2.5, 4), (2.75, 1004), (7.25, 3)]


@given(st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 2.5, 1e-6, 3600.0, 1e6]),
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=63))),
    min_size=1, max_size=64))
@settings(deadline=None, max_examples=200)
def test_calendar_queue_matches_heap_pop_order(script):
    """The determinism contract: the heap every simulator runs on fires
    the same events at the same times in the same order as the calendar
    queue it replaced as the default, for any schedule including
    cancellations and exact time ties."""
    assert run_script("heap", script) == run_script("calendar", script)


def test_calendar_queue_slot_boundary_regression():
    """An event whose time divides *down* into the previous slot
    (``t == 17 * width`` floats to slot 16) must still pop in order."""
    from repro.simnet import CalendarEventQueue, Event

    width = 0.005662377450980393
    queue = CalendarEventQueue(width=width)
    boundary = 17 * width
    assert int(boundary // width) == 16  # the float quirk this test pins
    later = Event(boundary + width, 1, lambda: None, ())
    exact = Event(boundary, 2, lambda: None, ())
    queue.push(later)
    queue.push(exact)
    assert queue.pop() is exact
    assert queue.pop() is later
    assert queue.pop() is None


def test_calendar_queue_eager_cancellation_empties_buckets():
    from repro.simnet import CalendarEventQueue, Event

    queue = CalendarEventQueue()
    events = [Event(float(i), i, lambda: None, ()) for i in range(64)]
    for event in events:
        queue.push(event)
    for event in events:
        event.cancel()
    assert len(queue) == 0
    assert queue.pop() is None
    # Cancelled events left their buckets immediately (no lazy tombstones).
    assert all(not bucket for bucket in queue._buckets)


def test_event_cancel_after_fire_is_noop():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    event.cancel()  # must not raise or corrupt the queue
    event.cancel()
    assert sim.pending_count() == 0


def test_make_event_queue_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_event_queue("fibonacci")
