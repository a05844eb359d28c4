"""A fan-out delivery allocates only what it meters, and nothing else moves.

Three changes keep an undisturbed delivery lean: the meter's rows are
``NamedTuple``s, the channel builds span attributes only under a recorder,
and a member builds its fetch-backoff ``random.Random`` on first use.  The
differential here holds a fleet to :class:`ReferenceFleet` (frozen-dataclass
rows, an eager RNG) over writers, notification delays, write spacing,
fault schedules and domain counts: the report, every member's meter totals
and records, the epoch ledger and the span dump must be equal.

The delivery itself stays two simulator events (notification -> fetch ->
apply).  Applying inline when the member is idle moves the apply ahead of
every other event queued for the same instant, and a writer whose batch
commits two files at once hands each follower two fetches at one instant:
the second one then waits out the first download instead of starting
alongside it, and the records' times and the spans move.
``SAME_INSTANT_BATCH`` is that run, kept as an explicit example.
"""

import gc
import random
import tracemalloc
import types

from hypothesis import example, given, settings, strategies as st

from repro.fleet import Fleet, schedule_writer_workload
from repro.fleet import member as member_module
from repro.simnet import FaultEpisode, FaultKind, FaultSchedule
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


def faults_for(fault_seed):
    if fault_seed is None:
        return None
    return FaultSchedule.generate(seed=fault_seed, horizon=120.0,
                                  mean_interval=6.0, mean_duration=3.0)


def run(fleet_type, service, clients, writers, delay, files, spacing,
        fault_seed, domains, seed):
    """One recorded run; returns everything the differential compares."""
    fleet = fleet_type(service, clients=clients, seed=seed,
                       notification_delay=delay, faults=faults_for(fault_seed),
                       domains=domains, record=True)
    schedule_writer_workload(fleet, writers=writers, files_per_writer=files,
                             file_size=16 * KB, spacing=spacing, seed=seed)
    end = fleet.run_until_idle()
    return fleet, {
        "end": end,
        "report": fleet.report(),
        "converged": fleet.converged(),
        "ledger": [(entry.epoch, entry.path, entry.pushed_bytes,
                    entry.deliveries) for entry in fleet.hub.ledger],
        "totals": [(member.meter.up, member.meter.down)
                   for member in fleet.members],
        "records": [[(record.time, record.direction, record.payload,
                      record.overhead, record.kind, record.wasted)
                     for record in member.meter.records]
                    for member in fleet.members],
        "spans": [[(span.kind, span.name, span.source, span.start, span.end,
                    span.delta, sorted(span.attrs.items()))
                   for span in recorder.spans]
                  for recorder in fleet.trace_hub.recorders],
        "cross": getattr(fleet.sim, "cross_messages", 0),
    }


@settings(max_examples=25, deadline=None)
@example(**SAME_INSTANT_BATCH)
@example(**FAULTED_OVERLAP)
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
    _, expected = run(ReferenceFleet, *args)
    _, actual = run(Fleet, *args)
    for key, value in expected.items():
        assert actual[key] == value, key


def test_the_examples_reach_the_same_instant_busy_and_retry_paths():
    """The explicit examples drive what the generated ones may miss."""
    fleet, _ = run(Fleet, **SAME_INSTANT_BATCH)
    follower = fleet.members[1]
    fetch_times = [record.time for record in follower.meter.records
                   if record.kind == "fanout-download"]
    assert len(fetch_times) == 4 and fetch_times[0] == fetch_times[2]

    fleet, _ = run(Fleet, **FAULTED_OVERLAP)
    spans = [span for recorder in fleet.trace_hub.recorders
             for span in recorder.spans]
    assert any(span.kind == "retry-attempt" and span.source.startswith(
        "fleet:") for span in spans)
    # A fetch that started after its notification delay had passed waited
    # for the member's previous download: the busy path.
    ledger = {entry.epoch: entry for entry in fleet.hub.ledger}
    assert any(span.name == "fetch" and span.start > (
        ledger[span.attrs["epoch"]].committed_at + 3.0 + 1e-9)
        for span in spans if span.kind == "fanout-notification")


# -- the member's fetch-backoff stream ------------------------------------

def counting_random(monkeypatch):
    """Count ``random.Random`` constructions made by the member module."""
    built = []

    def build(seed):
        built.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(member_module, "random",
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
    wait is the first jittered backoff of ``Random(seed * 1_000_003 +
    index)``, and only the members that retried built a stream."""
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
        assert wait == 0.5 * (0.75 + 0.5 * draw)
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
