"""A fan-out delivery is one queued apply per member, allocates only what it
meters, and nothing but time moves.

A member's downloads are serialised: a fetch that finds the member idle
applies inside the fetch event (one simulator event per delivery), and one
that finds it busy waits in the member's FIFO, whose next apply starts when
the previous download ends.  The meter's rows are ``NamedTuple``s, the
channel builds span attributes only under a recorder, and a member's retry
state builds its backoff ``random.Random`` on the first backoff.

The differential here holds a fleet to :class:`ReferenceFleet`
(frozen-dataclass rows and the old two-event delivery, whose same-instant
fetches both started at once) over writers, notification delays, write
spacing, fault schedules and domain counts.  Without faults the report,
convergence, the epoch ledger, every member's meter totals and folder, and
every record and span with its times removed must be equal: only when
things happen may move.  ``SAME_INSTANT_BATCH`` is the run where it does:
a writer whose sync batch commits two files at once hands each follower
two fetches at one instant, and the second download waits out the first.

Under faults the time a download starts decides which requests a fault
window hits, and the reference starts downloads at other times by design,
so a retry may land in one fleet and not the other and the bytes differ.
A writer's upload shares its channel with its downloads, so commits from
different writers can interleave in another order.  There the differential
compares what time cannot move: every member's final folder, each
writer's commits in its own order, both fleets converging, both audits,
and serialised downloads.
"""

import gc
import random
import tracemalloc
import types
from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.client import retry as retry_module
from repro.fleet import Fleet, schedule_writer_workload
from repro.simnet import (FaultEpisode, FaultKind, FaultSchedule,
                          HeapEventQueue)
from repro.units import KB

from .reference_fleet import ReferenceFleet

#: One writer creates both files at the same instant: its sync batch
#: commits them together, so each follower gets two fetches at one time.
SAME_INSTANT_BATCH = dict(service="GoogleDrive", clients=3, writers=1,
                          delay=0.2, files=2, spacing=0.0, fault_seed=None,
                          domains=1, seed=5)
#: Dense blackouts, 503s and 429s over the whole run: follower fetches are
#: rejected and retried, and a retried fetch keeps its member busy past
#: the next notification.
FAULTED_OVERLAP = dict(service="Dropbox", clients=4, writers=2, delay=3.0,
                       files=2, spacing=0.5, fault_seed=10, domains=2, seed=7)
#: A faulted run whose bytes depend on when downloads start: member 2's
#: down overhead differs between the reference's delivery and the queued
#: one, while both end in the same folders.
FAULTED_TIMING = dict(service="GoogleDrive", clients=4, writers=4, delay=3.0,
                      files=2, spacing=0.5, fault_seed=21637, domains=1,
                      seed=0)
#: A follower's retries run out in an outage: it fetches the path again
#: one notification delay later, and the fleet still converges.
FAULTED_GIVE_UP = dict(service="GoogleDrive", clients=2, writers=2,
                       delay=25.0, files=2, spacing=20.0, fault_seed=34267,
                       domains=2, seed=5451)


def faults_for(fault_seed):
    if fault_seed is None:
        return None
    return FaultSchedule.generate(seed=fault_seed, horizon=120.0,
                                  mean_interval=6.0, mean_duration=3.0)


def run(fleet_type, service, clients, writers, delay, files, spacing,
        fault_seed, domains, seed):
    """One recorded run; returns everything the differential compares:
    what happened, with the times it happened at left out."""
    fleet = fleet_type(service, clients=clients, seed=seed,
                       notification_delay=delay, faults=faults_for(fault_seed),
                       domains=domains, record=True)
    schedule_writer_workload(fleet, writers=writers, files_per_writer=files,
                             file_size=16 * KB, spacing=spacing, seed=seed)
    fleet.run_until_idle()
    return fleet, {
        "report": fleet.report(),
        "converged": fleet.converged(),
        "ledger": [(entry.epoch, entry.origin, entry.path,
                    entry.pushed_bytes, entry.deliveries)
                   for entry in fleet.hub.ledger],
        "folders": [fleet.folder_state(member) for member in fleet.members],
        "totals": [(member.meter.up, member.meter.down)
                   for member in fleet.members],
        # Order is time too: an idle member's apply runs inside its fetch
        # event, ahead of other events due at that instant, where the
        # reference's runs behind them; each member's rows compare as
        # multisets.
        "records": [multiset((record.direction, record.payload,
                              record.overhead, record.kind, record.wasted)
                             for record in member.meter.records)
                    for member in fleet.members],
        "spans": [multiset((span.kind, span.name, span.source, span.delta,
                            sorted(span.attrs.items()))
                           for span in recorder.spans)
                  for recorder in fleet.trace_hub.recorders],
        "cross": getattr(fleet.sim, "cross_messages", 0),
    }


def multiset(rows):
    return sorted(rows, key=repr)


@settings(max_examples=25, deadline=None)
@example(**SAME_INSTANT_BATCH)
@example(**FAULTED_OVERLAP)
@example(**FAULTED_TIMING)
@example(**FAULTED_GIVE_UP)
@given(service=st.sampled_from(["GoogleDrive", "Dropbox"]),
       clients=st.integers(min_value=2, max_value=5),
       writers=st.integers(min_value=1, max_value=5),
       delay=st.sampled_from([0.0, 0.2, 3.0, 25.0]),
       files=st.integers(min_value=1, max_value=3),
       spacing=st.sampled_from([0.0, 0.5, 20.0]),
       fault_seed=st.one_of(st.none(), st.integers(0, 2 ** 16)),
       domains=st.sampled_from([1, 2]),
       seed=st.integers(0, 2 ** 16))
def test_fleet_matches_the_reference_delivery(service, clients, writers,
                                              delay, files, spacing,
                                              fault_seed, domains, seed):
    args = (service, clients, min(writers, clients), delay, files, spacing,
            fault_seed, domains, seed)
    reference, expected = run(ReferenceFleet, *args)
    fleet, actual = run(Fleet, *args)
    assert_downloads_are_serialised(fleet)
    if fault_seed is None:
        for key, value in expected.items():
            assert actual[key] == value, key
        return
    assert actual["converged"] and expected["converged"]
    assert actual["folders"] == expected["folders"]
    assert commits_by_origin(actual) == commits_by_origin(expected)
    reference.audit()
    fleet.audit()


def commits_by_origin(result):
    """origin -> the paths it committed, in epoch order."""
    commits = {}
    for _, origin, path, _, _ in result["ledger"]:
        commits.setdefault(origin, []).append(path)
    return commits


def assert_downloads_are_serialised(fleet):
    """No member's fetch starts before its previous one has ended."""
    for member in fleet.members:
        fetches = [span for span in member.recorder.spans
                   if span.name == "fetch"]
        for before, after in zip(fetches, fetches[1:]):
            assert after.start >= before.end


def test_the_examples_reach_the_same_instant_busy_and_retry_paths():
    """The explicit examples drive what the generated ones may miss."""
    fleet, _ = run(Fleet, **SAME_INSTANT_BATCH)
    for member in fleet.members[1:]:
        fetch_times = [record.time for record in member.meter.records
                       if record.kind == "fanout-download"]
        first, second = [span for span in member.recorder.spans
                         if span.name == "fetch"]
        # Both fetches reach the member at one instant; the second
        # download starts exactly when the first one ends.
        assert len(fetch_times) == 4
        assert fetch_times[0] == fetch_times[1] == first.start
        assert first.end > first.start
        assert fetch_times[2] == fetch_times[3] == second.start == first.end
    # The oracle keeps the old order: both downloads started at once.
    reference, _ = run(ReferenceFleet, **SAME_INSTANT_BATCH)
    first, second = [span for span in reference.members[1].recorder.spans
                     if span.name == "fetch"]
    assert first.start == second.start < first.end

    fleet, _ = run(Fleet, **FAULTED_OVERLAP)
    spans = [span for recorder in fleet.trace_hub.recorders
             for span in recorder.spans]
    # Members past the writers never upload: their retries are fetches,
    # run by the session's client like any upload's.
    writers = FAULTED_OVERLAP["writers"]
    assert any(span.kind == "retry-attempt" and span.source == "client"
               for member in fleet.members[writers:]
               for span in member.recorder.spans)
    # A fetch that started after its notification delay had passed waited
    # for the member's previous download: the busy path.
    ledger = {entry.epoch: entry for entry in fleet.hub.ledger}
    assert any(span.name == "fetch" and span.start > (
        ledger[span.attrs["epoch"]].committed_at + 3.0 + 1e-9)
        for span in spans if span.kind == "fanout-notification")


# -- what a delivery costs the event loop ----------------------------------

def counting_pops(monkeypatch):
    """Record every event the simulator pops."""
    popped = []
    pop = HeapEventQueue.pop

    def counting(queue):
        event = pop(queue)
        if event is not None:
            popped.append(event.callback.__name__)
        return event

    monkeypatch.setattr(HeapEventQueue, "pop", counting)
    return popped


def test_a_delivery_to_an_idle_member_is_one_simulator_event(monkeypatch):
    """Widely spaced commits find every follower idle: one more follower
    costs one pop per delivery, the fetch, and nothing drains."""
    popped = counting_pops(monkeypatch)
    pops, deliveries = {}, {}
    for clients in (3, 4):
        del popped[:]
        fleet = Fleet("GoogleDrive", clients=clients, seed=3)
        schedule_writer_workload(fleet, writers=1, files_per_writer=2,
                                 file_size=4 * KB, seed=3)
        fleet.run_until_idle()
        assert fleet.converged()
        pops[clients] = Counter(popped)
        deliveries[clients] = sum(entry.deliveries
                                  for entry in fleet.hub.ledger)
        assert pops[clients]["_fetch_entry"] == deliveries[clients]
        assert pops[clients]["_drain"] == 0
    assert deliveries[4] - deliveries[3] == 2
    assert sum(pops[4].values()) - sum(pops[3].values()) == 2


# -- retries: the session's policy, one stream per member -----------------

def test_a_faulted_fleet_converges():
    """Dense brownouts and blackouts reject uploads and fetches alike; each
    is retried under the member's policy until it lands, and every retry
    is counted on the member's client."""
    fleet = Fleet("GoogleDrive", clients=4, seed=0, notification_delay=3.0,
                  faults=faults_for(133), record=True)
    schedule_writer_workload(fleet, writers=4, files_per_writer=2,
                             file_size=16 * KB, spacing=0.5, seed=0)
    fleet.run_until_idle()
    paths = {f"w{index}/doc{round_index}.bin"
             for index in range(4) for round_index in range(2)}
    assert set(fleet.server.metadata.list_paths(fleet.hub.user)) == paths
    for member in fleet.members:
        assert set(member.folder.paths()) == paths
    assert fleet.converged()
    assert any(record.kind.startswith("fanout-")
               and record.kind.endswith("-rejected")
               for member in fleet.members for record in member.meter.records)
    for member in fleet.members:
        retries = [span for span in member.recorder.spans
                   if span.kind == "retry-attempt" and span.name != "give-up"]
        assert member.client.stats.retries == len(retries)


def test_a_given_up_delivery_is_fetched_again():
    """A follower whose retries run out in an outage keeps the path owed:
    it fetches the entry once more a notification delay later."""
    fleet, _ = run(Fleet, **FAULTED_GIVE_UP)
    follower = fleet.members[1]
    (give_up,) = [span for span in follower.recorder.spans
                  if span.kind == "fanout-notification"
                  and span.name == "give-up"]
    assert follower.stats.fetch_giveups == 1
    (fetch,) = [span for span in follower.recorder.spans
                if span.name == "fetch"
                and span.attrs["epoch"] == give_up.attrs["epoch"]]
    assert fetch.start >= give_up.start + FAULTED_GIVE_UP["delay"]
    assert fleet.converged()
    fleet.audit()


def counting_random(monkeypatch):
    """Count ``random.Random`` constructions made by retry states."""
    built = []

    def build(seed):
        built.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(retry_module, "random",
                        types.SimpleNamespace(Random=build))
    return built


def test_a_fault_free_fleet_builds_no_member_rng(monkeypatch):
    built = counting_random(monkeypatch)
    fleet = Fleet("GoogleDrive", clients=200, seed=3)
    schedule_writer_workload(fleet, writers=2, files_per_writer=1,
                             file_size=4 * KB, seed=3)
    fleet.run_until_idle()
    assert fleet.converged()
    assert sum(entry.deliveries for entry in fleet.hub.ledger) == 2 * 199
    assert built == []


def test_a_retried_fetch_draws_the_member_seeded_backoff(monkeypatch):
    """Each follower's fetch lands in a 1 ms brownout and retries once: its
    wait is the session policy's first jittered backoff, drawn from
    ``Random(seed * 1_000_003 + index)``, and only the members that
    retried built a stream."""
    seed = 11
    quiet = Fleet("GoogleDrive", clients=4, seed=seed)
    schedule_writer_workload(quiet, writers=1, file_size=16 * KB, seed=seed)
    quiet.run_until_idle()
    fetch_at = quiet.hub.ledger[0].committed_at + quiet.hub.notification_delay
    brownout = FaultSchedule([FaultEpisode(
        start=fetch_at - 1e-4, duration=1e-3,
        kind=FaultKind.SERVER_UNAVAILABLE)])

    built = counting_random(monkeypatch)
    fleet = Fleet("GoogleDrive", clients=4, seed=seed, faults=brownout,
                  record=True)
    schedule_writer_workload(fleet, writers=1, file_size=16 * KB, seed=seed)
    fleet.run_until_idle()
    assert fleet.converged()
    waits = {}
    for member in fleet.members:
        retries = [span for span in member.recorder.spans
                   if span.kind == "retry-attempt"]
        if retries:
            (retry,) = retries
            assert retry.attrs["attempt"] == 1
            waits[member.index] = retry.attrs["wait"]
    assert sorted(waits) == [1, 2, 3]
    for index, wait in waits.items():
        draw = random.Random(seed * 1_000_003 + index).random()
        assert wait == 0.5 * (1 + 0.1 * (2 * draw - 1))
    assert built == [seed * 1_000_003 + index for index in (1, 2, 3)]


# -- what a delivery holds ------------------------------------------------

#: Traced bytes a fan-out delivery may hold at the run's peak.  This run
#: reads about 875 B on CPython 3.11: four metered rows of about 96 B each,
#: their byte counts, the follower's content record and version entry.
#: The ~35 % margin absorbs object-size differences across interpreters;
#: the frozen-dataclass rows of ``ReferenceFleet`` read about 1,005 B.
BYTES_PER_DELIVERY = 1_200


def test_a_delivery_holds_a_bounded_number_of_bytes():
    gc.collect()
    tracemalloc.start()
    try:
        fleet = Fleet("GoogleDrive", clients=200, seed=3)
        schedule_writer_workload(fleet, writers=2, files_per_writer=2,
                                 file_size=4 * KB, seed=3)
        gc.collect()
        built = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fleet.run_until_idle()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    deliveries = sum(entry.deliveries for entry in fleet.hub.ledger)
    assert deliveries == 4 * 199
    assert (peak - built) / deliveries < BYTES_PER_DELIVERY
