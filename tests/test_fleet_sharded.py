"""Sharded event domains: byte-identity with the global queue, protocol audit.

The determinism contract of `repro.simnet.domains`: a fleet sharded into D
event domains must be **byte-identical** to the same fleet on the single
global queue — same traffic totals, same wire-level span streams, same
rendered report — at any domain count, because every event is stamped from
one global epoch counter and dispatched in global ``(time, epoch)`` order.
These tests pin that contract across service profiles × domain counts
{1, 2, 4}, through churn and fault composition, and check the
cross-domain message protocol's own invariants.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import AccessMethod, all_profiles
from repro.fleet import Fleet, schedule_writer_workload
from repro.obs import AuditViolation, TraceHub, audit, recording
from repro.reporting import render_fleet_members
from repro.simnet import (
    DomainScheduler,
    FaultSchedule,
    SimulationError,
    verify_domain_protocol,
)
from repro.units import KB

PROFILE_NAMES = sorted(
    {profile.service for profile in all_profiles(AccessMethod.PC)})


def run_fleet(profile_name, domains, seed=7, clients=6, churn=False,
              faults=None):
    """One recorded fleet run; returns everything byte-identity compares."""
    hub = TraceHub()
    with recording(hub=hub):
        fleet = Fleet(profile_name, clients=clients, seed=seed,
                      domains=domains, faults=faults)
        schedule_writer_workload(fleet, writers=min(3, clients),
                                 file_size=16 * KB, seed=seed)
        if churn:
            fleet.sim.schedule_at(45.0, fleet.join)
            fleet.sim.schedule_at(55.0, fleet.members[-1].leave)
        end = fleet.run_until_idle()
        fleet.audit()
    report = fleet.report()
    spans = tuple(
        (span.kind, span.name, span.source, span.start, span.end,
         tuple(sorted(span.attrs.items())))
        for recorder in hub.recorders for span in recorder.spans)
    return {
        "end": end,
        "report": report,
        "rendered": render_fleet_members(report, title=profile_name),
        "spans": spans,
        "converged": fleet.converged(),
        "fleet": fleet,
    }


def assert_byte_identical(base, sharded):
    assert sharded["end"] == base["end"]
    assert sharded["report"] == base["report"]
    assert sharded["rendered"] == base["rendered"]
    assert sharded["spans"] == base["spans"]
    # Fault windows may legitimately block convergence — but then they
    # block it identically in both runs.
    assert sharded["converged"] == base["converged"]


# -- exhaustive profile sweep ------------------------------------------------

@pytest.mark.parametrize("profile_name", PROFILE_NAMES)
@pytest.mark.parametrize("domains", [2, 4])
def test_sharded_run_is_byte_identical_across_profiles(profile_name, domains):
    base = run_fleet(profile_name, domains=1)
    sharded = run_fleet(profile_name, domains=domains)
    assert_byte_identical(base, sharded)
    assert sharded["converged"]
    # The shards genuinely talked to each other: fan-out crosses domains.
    assert sharded["fleet"].sim.cross_messages > 0


# -- property: random profile/seed/churn/faults combinations ----------------

@given(
    profile_name=st.sampled_from(PROFILE_NAMES),
    domains=st.sampled_from([2, 4]),
    seed=st.integers(min_value=0, max_value=2**16),
    churn=st.booleans(),
    with_faults=st.booleans(),
)
@settings(deadline=None, max_examples=25)
def test_sharded_run_is_byte_identical_property(profile_name, domains, seed,
                                                churn, with_faults):
    faults = (FaultSchedule.generate(seed=seed, horizon=300.0,
                                     mean_interval=40.0, mean_duration=4.0)
              if with_faults else None)
    base = run_fleet(profile_name, domains=1, seed=seed, churn=churn,
                     faults=faults)
    sharded = run_fleet(profile_name, domains=domains, seed=seed,
                        churn=churn, faults=faults)
    assert_byte_identical(base, sharded)


def test_sharded_rerun_is_deterministic():
    first = run_fleet("GoogleDrive", domains=4, seed=3)
    second = run_fleet("GoogleDrive", domains=4, seed=3)
    assert_byte_identical(first, second)


# -- domain scheduler unit behaviour ----------------------------------------

def test_members_place_algorithmically_across_domains():
    fleet = Fleet("GoogleDrive", clients=6, seed=0, domains=4)
    for member in fleet.members:
        assert member.sim is fleet.sim.domain(member.index % 4)


def test_late_joiner_placement_is_join_order_pure():
    fleet = Fleet("GoogleDrive", clients=5, seed=0, domains=4)
    joiner = fleet.join()
    assert joiner.index == 5
    assert joiner.sim is fleet.sim.domain(5 % 4)


def test_a_sharded_member_runs_the_whole_fleet():
    """A member's session clock is its domain; running it runs every
    domain, as a member of an unsharded fleet runs the one queue."""
    def build():
        fleet = Fleet("GoogleDrive", clients=4, seed=3, domains=2)
        schedule_writer_workload(fleet, writers=2, file_size=16 * KB, seed=3)
        return fleet

    whole, by_member = build(), build()
    whole.run_until_idle()
    by_member.members[1].run_until_idle()
    assert by_member.report() == whole.report()
    assert by_member.converged() and whole.converged()

    stepped = build()
    assert stepped.members[1].advance(5.0) == 5.0 == stepped.sim.now
    stepped.members[0].run_until_idle()
    assert stepped.report() == whole.report()


def test_fleet_rejects_nonpositive_domains():
    with pytest.raises(ValueError):
        Fleet("GoogleDrive", clients=2, domains=0)


def test_scheduler_rejects_nonpositive_domains():
    with pytest.raises(SimulationError):
        DomainScheduler(0)


def test_scheduler_routes_external_schedules_to_domain_zero():
    scheduler = DomainScheduler(3)
    scheduler.schedule(1.0, lambda: None)
    assert scheduler.domain(0).pending_count() == 1
    assert scheduler.pending_count() == 1


def test_scheduler_runs_events_in_global_time_order():
    scheduler = DomainScheduler(3)
    order = []
    scheduler.domain(2).schedule(3.0, order.append, "c")
    scheduler.domain(0).schedule(1.0, order.append, "a")
    scheduler.domain(1).schedule(2.0, order.append, "b")
    end = scheduler.run_until_idle()
    assert order == ["a", "b", "c"]
    assert end == 3.0
    assert scheduler.now == 3.0


def test_scheduler_breaks_time_ties_by_epoch():
    scheduler = DomainScheduler(2)
    order = []
    # Same time, scheduled in a known order across different domains.
    scheduler.domain(1).schedule(1.0, order.append, "first-scheduled")
    scheduler.domain(0).schedule(1.0, order.append, "second-scheduled")
    scheduler.run_until_idle()
    assert order == ["first-scheduled", "second-scheduled"]


def test_scheduler_run_until_advances_clock():
    scheduler = DomainScheduler(2)
    fired = []
    scheduler.domain(1).schedule(10.0, fired.append, "late")
    assert scheduler.run_until(5.0) == 5.0
    assert fired == []
    assert scheduler.run_until_idle() == 10.0
    assert fired == ["late"]


def test_scheduler_counts_cross_domain_messages():
    scheduler = DomainScheduler(2, trace_messages=True)

    def send_across():
        scheduler.domain(1).schedule(0.5, lambda: None)

    scheduler.domain(0).schedule(1.0, send_across)
    scheduler.run_until_idle()
    assert scheduler.cross_messages == 1
    assert scheduler.cross_matrix[0][1] == 1
    assert scheduler.cross_matrix[1][0] == 0
    message = scheduler.messages[0]
    assert message.source == 0 and message.target == 1
    assert message.sent_at == 1.0 and message.deliver_at == 1.5
    assert verify_domain_protocol(scheduler) == []


def test_scheduler_same_domain_schedule_is_not_a_crossing():
    scheduler = DomainScheduler(2)

    def stay_local():
        scheduler.domain(0).schedule(0.5, lambda: None)

    scheduler.domain(0).schedule(1.0, stay_local)
    scheduler.run_until_idle()
    assert scheduler.cross_messages == 0


def test_scheduler_rejects_backwards_cross_epoch():
    scheduler = DomainScheduler(2)
    scheduler._executing = 0
    scheduler._last_cross_epoch = 10**9
    with pytest.raises(SimulationError):
        scheduler.domain(1).schedule(1.0, lambda: None)


def test_scheduler_is_not_reentrant():
    scheduler = DomainScheduler(2)

    def reenter():
        scheduler.run_until_idle()

    scheduler.domain(0).schedule(1.0, reenter)
    with pytest.raises(SimulationError):
        scheduler.run_until_idle()


def test_scheduler_empty_queue_behaviour():
    scheduler = DomainScheduler(2)
    assert scheduler.peek_next_time() is None
    assert scheduler.step() is False
    assert scheduler.run_until_idle() == 0.0
    assert len(scheduler) == 2


# -- scale (slow tier) ------------------------------------------------------

@pytest.mark.slow
def test_large_sharded_fleet_matches_global_queue():
    """200 clients split over 4 domains, byte-identical to the one queue."""
    base = run_fleet("GoogleDrive", domains=1, seed=17, clients=200)
    sharded = run_fleet("GoogleDrive", domains=4, seed=17, clients=200)
    assert_byte_identical(base, sharded)
    assert sharded["converged"]
    assert sharded["fleet"].sim.cross_messages > 0


# -- protocol audit ----------------------------------------------------------

def test_domain_protocol_audit_passes_on_clean_run():
    run = run_fleet("Dropbox", domains=4)
    audit(scheduler=run["fleet"].sim)


def test_domain_protocol_audit_catches_matrix_drift():
    run = run_fleet("Dropbox", domains=4)
    scheduler = run["fleet"].sim
    scheduler.cross_matrix[0][1] += 1
    with pytest.raises(AuditViolation) as excinfo:
        audit(scheduler=scheduler)
    assert excinfo.value.invariant == "domain-protocol"


def test_domain_protocol_audit_catches_self_crossing():
    scheduler = DomainScheduler(2)
    scheduler.cross_matrix[1][1] = 3
    scheduler.cross_messages = 3
    violations = verify_domain_protocol(scheduler)
    assert any("to itself" in violation for violation in violations)


def test_domain_protocol_audit_catches_lost_trace():
    run = run_fleet("Dropbox", domains=4)
    scheduler = run["fleet"].sim
    assert scheduler.trace_messages
    dropped = scheduler.messages.pop()
    violations = verify_domain_protocol(scheduler)
    assert any("traced" in violation for violation in violations)
    scheduler.messages.append(dropped)


def test_domain_protocol_audit_catches_acausal_delivery():
    run = run_fleet("Dropbox", domains=4)
    scheduler = run["fleet"].sim
    message = scheduler.messages[0]
    scheduler.messages[0] = type(message)(
        epoch=message.epoch, source=message.source, target=message.target,
        sent_at=message.deliver_at + 1.0, deliver_at=message.deliver_at)
    violations = verify_domain_protocol(scheduler)
    assert any("before send" in violation for violation in violations)
