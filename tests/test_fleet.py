"""Fleet-scale shared-folder simulation: convergence, determinism, fan-out.

The fleet layer's contract is threefold: every run is a pure function of
its seed (byte-identical reruns), all members converge to identical
folder state, and every byte the server pushes during fan-out is balanced
by follower-side span evidence (the ``fanout-conservation`` invariant).
"""

import math

import pytest

from repro import chunking
from repro.client import SyncSession
from repro.cloud import MetadataServer
from repro.core import TrafficReport
from repro.content import random_content
from repro.fleet import Fleet, conflict_copy_name, schedule_writer_workload
from repro.obs import AuditViolation, verify
from repro.simnet import Direction, FaultEpisode, FaultKind, FaultSchedule
from repro.units import KB, MB


def small_fleet(service="GoogleDrive", clients=3, seed=7, **kwargs):
    fleet = Fleet(service, clients=clients, seed=seed, record=True, **kwargs)
    schedule_writer_workload(fleet, writers=min(2, clients),
                             file_size=16 * KB, seed=seed)
    return fleet


# -- conflict-copy naming ---------------------------------------------------

def test_conflict_copy_name_preserves_extension():
    assert conflict_copy_name("w0/doc.bin", "client2", lambda p: False) \
        == "w0/doc (conflicted copy of client2).bin"


def test_conflict_copy_name_without_extension():
    assert conflict_copy_name("notes", "client1", lambda p: False) \
        == "notes (conflicted copy of client1)"


def test_conflict_copy_name_counters_on_collision():
    taken = {"doc (conflicted copy of c0).txt",
             "doc (conflicted copy of c0) 2.txt"}
    assert conflict_copy_name("doc.txt", "c0", taken.__contains__) \
        == "doc (conflicted copy of c0) 3.txt"


def test_conflict_copy_name_dotfile_keeps_leading_dot_as_stem():
    # Regression: ".gitignore" used to split to an empty stem and become
    # " (conflicted copy of client2).gitignore" (leading space, wrong ext).
    assert conflict_copy_name(".gitignore", "client2", lambda p: False) \
        == ".gitignore (conflicted copy of client2)"


def test_conflict_copy_name_dotfile_in_directory():
    assert conflict_copy_name("w0/.env", "c1", lambda p: False) \
        == "w0/.env (conflicted copy of c1)"


def test_conflict_copy_name_dotfile_with_real_extension_splits():
    # A dotfile that *also* has an extension keeps normal splitting.
    assert conflict_copy_name(".config.yml", "c1", lambda p: False) \
        == ".config (conflicted copy of c1).yml"


def test_conflict_copy_name_multi_dot_splits_at_last_dot():
    assert conflict_copy_name("archive.tar.gz", "c9", lambda p: False) \
        == "archive.tar (conflicted copy of c9).gz"


def test_conflict_copy_name_dotfile_collision_counter():
    taken = {".gitignore (conflicted copy of c0)"}
    assert conflict_copy_name(".gitignore", "c0", taken.__contains__) \
        == ".gitignore (conflicted copy of c0) 2"


# -- run_until_idle return contract -----------------------------------------

def test_fleet_run_until_idle_returns_final_time():
    # Regression: annotated ``-> float`` but returned None because the
    # simulator's own run_until_idle returned nothing.
    fleet = small_fleet()
    end = fleet.run_until_idle()
    assert isinstance(end, float)
    assert end == fleet.sim.now
    assert end > 0.0


# -- fleet TUE conventions -------------------------------------------------

def test_fleet_tue_conventions():
    idle = Fleet("GoogleDrive", clients=2, seed=7)
    idle.run_until_idle()
    assert math.isnan(idle.report().tue)    # no traffic, no update
    fleet = small_fleet(clients=4)
    fleet.run_until_idle()
    report = fleet.report()
    follower = report.members[3]            # never wrote anything
    assert follower.traffic.data_update_size == 0
    assert math.isinf(follower.tue)
    assert report.tue == report.traffic_bytes / report.update_bytes


def test_member_is_its_session():
    # A member measures with the same session code as a single-client
    # cell: its TUE, audit and traffic report are the SyncSession's own.
    fleet = small_fleet()
    fleet.run_until_idle()
    writer = fleet.members[0]
    for member in fleet.members:
        assert isinstance(member, SyncSession)
        member.audit()
        assert member.traffic_report() == TrafficReport.from_meter(
            member.meter, member.data_update_bytes)
    assert writer.data_update_bytes > 0
    assert writer.tue() == writer.traffic_report().tue


# -- convergence ------------------------------------------------------------

def test_fleet_converges_and_audits_clean():
    fleet = small_fleet()
    fleet.run_until_idle()
    assert fleet.converged()
    fleet.audit()
    report = fleet.report()
    assert report.commit_epochs == 4  # 2 writers x 2 files
    assert report.conflicts == 0
    # Followers moved real bytes: fan-out is not free.
    assert report.fanout_pushed_bytes > 0


def test_followers_receive_content():
    fleet = small_fleet(clients=4)
    fleet.run_until_idle()
    follower = fleet.members[3]  # never wrote anything
    assert follower.data_update_bytes == 0
    assert sorted(follower.folder.paths()) == sorted(
        fleet.members[0].folder.paths())
    assert follower.stats.fanout_fetches == 4
    # A pure follower has traffic but no local updates: TUE is inf.
    traffic = follower.traffic_report()
    assert math.isinf(traffic.tue)


def test_a_member_downloads_through_its_proxy():
    """Regression: the origin-tagging proxy had no ``download_content``, so
    a member's ``client.download`` raised ``AttributeError``."""
    fleet = Fleet("GoogleDrive", clients=3, seed=7)
    schedule_writer_workload(fleet, writers=1, files_per_writer=1,
                             file_size=16 * KB, seed=7)
    fleet.run_until_idle()
    follower = fleet.members[1]
    before = follower.meter.down.total
    content = follower.client.download("w0/doc0.bin")
    assert follower.meter.down.total > before
    head = fleet.server.metadata.head(fleet.hub.user, "w0/doc0.bin").md5
    local = follower.folder.get("w0/doc0.bin")
    assert content.data == local.data and content.cached_md5 == head
    # The fan-out delivered the server head with the digest it was
    # checked against, so nothing hashes the follower's copy again.
    assert local.cached_md5 == head


def test_a_delivery_reads_the_server_head_once(monkeypatch):
    """A follower takes the version from the read that returned the
    content: one metadata lookup per fetch, plus one per writer commit."""
    calls = []
    get_entry = MetadataServer.get_entry

    def counting(self, user, path):
        calls.append(path)
        return get_entry(self, user, path)

    monkeypatch.setattr(MetadataServer, "get_entry", counting)
    fleet = Fleet("GoogleDrive", clients=100, seed=42)
    schedule_writer_workload(fleet, writers=4, file_size=16 * KB, seed=42)
    fleet.run_until_idle()
    assert fleet.converged()
    fetches = sum(member.stats.fanout_fetches for member in fleet.members)
    assert fetches == 99 * 8
    assert len(calls) == fetches + 8


def test_fleet_tue_exceeds_solo_tue():
    solo = Fleet("GoogleDrive", clients=1, seed=7)
    schedule_writer_workload(solo, writers=1, file_size=16 * KB, seed=7)
    solo.run_until_idle()
    shared = Fleet("GoogleDrive", clients=4, seed=7)
    schedule_writer_workload(shared, writers=1, file_size=16 * KB, seed=7)
    shared.run_until_idle()
    assert shared.report().tue > solo.report().tue


# -- determinism ------------------------------------------------------------

def fingerprint(fleet):
    report = fleet.report()
    return (report.traffic_bytes, report.update_bytes,
            report.fanout_pushed_bytes, report.commit_epochs,
            tuple((m.name, int(m.traffic.total), m.notifications,
                   m.fanout_fetches) for m in report.members))


def test_rerun_is_byte_identical():
    prints = []
    for _ in range(2):
        fleet = small_fleet(clients=4)
        fleet.run_until_idle()
        prints.append(fingerprint(fleet))
    assert prints[0] == prints[1]


def test_rerun_under_faults_is_byte_identical():
    prints = []
    for _ in range(2):
        schedule = FaultSchedule.generate(
            seed=5, horizon=300.0, mean_interval=40.0, mean_duration=4.0)
        fleet = Fleet("OneDrive", clients=3, seed=9, faults=schedule,
                      record=True)
        schedule_writer_workload(fleet, writers=2, file_size=16 * KB, seed=9)
        fleet.run_until_idle()
        assert fleet.converged()
        fleet.audit()
        prints.append(fingerprint(fleet))
    assert prints[0] == prints[1]


# -- conflicts --------------------------------------------------------------

def test_write_write_race_yields_conflict_copy():
    # OneDrive defers ~10.5 s: client1's write is still pending when
    # client0's commit fans out, forcing the write-write branch.
    fleet = Fleet("OneDrive", clients=3, seed=3, record=True)
    fleet.sim.schedule_at(1.0, fleet.members[0].folder.create, "doc.txt",
                          random_content(4 * KB, seed=1))
    fleet.sim.schedule_at(9.0, fleet.members[1].folder.create, "doc.txt",
                          random_content(4 * KB, seed=2))
    fleet.run_until_idle()
    assert fleet.converged()
    fleet.audit()
    report = fleet.report()
    assert report.conflicts == 1
    paths = sorted(fleet.members[0].folder.paths())
    assert paths == ["doc (conflicted copy of client1).txt", "doc.txt"]
    # Both versions survived: nobody's bytes were dropped.
    contents = {fleet.members[0].folder.get(path).md5 for path in paths}
    assert len(contents) == 2


def test_lww_when_both_commits_land():
    # No deferment pressure: both writers commit before fan-out applies, so
    # metadata is last-writer-wins and no conflict copy appears.
    fleet = Fleet("Dropbox", clients=2, seed=3, record=True)
    fleet.sim.schedule_at(1.0, fleet.members[0].folder.create, "doc.txt",
                          random_content(4 * KB, seed=1))
    fleet.sim.schedule_at(1.05, fleet.members[1].folder.create, "doc.txt",
                          random_content(4 * KB, seed=2))
    fleet.run_until_idle()
    assert fleet.converged()
    fleet.audit()
    assert fleet.report().conflicts == 0
    assert fleet.members[0].folder.paths() == ["doc.txt"]


def converged_pair(service="OneDrive"):
    """Two members with a synced 8 KB ``a.bin`` (defer window ≈ 10.5 s)."""
    fleet = Fleet(service, clients=2, seed=0, record=True)
    fleet.sim.schedule_at(1.0, fleet.members[0].folder.create, "a.bin",
                          random_content(8 * KB, seed=1))
    fleet.run_until_idle()
    assert fleet.converged()
    return fleet


def test_remote_delete_under_pending_edit_edit_wins():
    # client0's delete commits while client1's edit is still deferred: the
    # edit wins, re-commits, and the file survives fleet-wide.
    fleet = converged_pair()
    m0, m1 = fleet.members
    fleet.sim.schedule_at(fleet.sim.now + 1.0, m0.folder.delete, "a.bin")
    fleet.sim.schedule_at(fleet.sim.now + 6.0, m1.folder.write, "a.bin",
                          random_content(8 * KB, seed=2))
    fleet.run_until_idle()
    assert fleet.converged()
    fleet.audit()
    assert fleet.report().conflicts == 1
    assert m1.stats.conflicts == 1
    assert sorted(m0.folder.paths()) == ["a.bin"]


def test_remote_write_under_pending_delete_write_wins():
    # client1's local delete never reached the cloud when client0's write
    # fans out: the write wins, the pending delete is discarded.
    fleet = converged_pair()
    m0, m1 = fleet.members
    fleet.sim.schedule_at(fleet.sim.now + 1.0, m0.folder.write, "a.bin",
                          random_content(8 * KB, seed=3))
    fleet.sim.schedule_at(fleet.sim.now + 6.0, m1.folder.delete, "a.bin")
    fleet.run_until_idle()
    assert fleet.converged()
    fleet.audit()
    assert fleet.report().conflicts == 1
    assert sorted(m1.folder.paths()) == ["a.bin"]


def test_remote_rename_under_pending_edit_makes_conflict_copy():
    # client0 renames a→b while client1's edit of a is still deferred: the
    # edit moves to a conflict copy, the rename applies cleanly.
    fleet = converged_pair()
    m0, m1 = fleet.members
    fleet.sim.schedule_at(fleet.sim.now + 1.0, m0.folder.rename,
                          "a.bin", "b.bin")
    fleet.sim.schedule_at(fleet.sim.now + 6.0, m1.folder.write, "a.bin",
                          random_content(8 * KB, seed=4))
    fleet.run_until_idle()
    assert fleet.converged()
    fleet.audit()
    assert fleet.report().conflicts == 1
    assert sorted(m0.folder.paths()) == [
        "a (conflicted copy of client1).bin", "b.bin"]


# -- deletes and renames ----------------------------------------------------

def test_remote_delete_propagates():
    fleet = Fleet("GoogleDrive", clients=3, seed=1, record=True)
    fleet.sim.schedule_at(1.0, fleet.members[0].folder.create, "a.bin",
                          random_content(8 * KB, seed=1))
    fleet.sim.schedule_at(40.0, fleet.members[0].folder.delete, "a.bin")
    fleet.run_until_idle()
    assert fleet.converged()
    fleet.audit()
    assert fleet.members[1].folder.paths() == []


def test_remote_rename_is_metadata_only_when_content_matches():
    fleet = Fleet("GoogleDrive", clients=3, seed=1, record=True)
    fleet.sim.schedule_at(1.0, fleet.members[0].folder.create, "a.bin",
                          random_content(64 * KB, seed=1))
    fleet.sim.schedule_at(40.0, fleet.members[0].folder.rename,
                          "a.bin", "b.bin")
    fleet.run_until_idle()
    assert fleet.converged()
    fleet.audit()
    follower = fleet.members[1]
    assert follower.folder.paths() == ["b.bin"]
    assert follower.stats.fanout_renames == 1
    # The rename crossed the wire as metadata, not a re-download.
    assert follower.stats.fanout_fetches == 2  # create + rename epoch


# -- follower downloads -----------------------------------------------------

@pytest.mark.parametrize("service, uses_ids",
                         [("Dropbox", True), ("GoogleDrive", False)])
def test_one_byte_edit_fans_out_as_delta_only_on_ids_profiles(service,
                                                             uses_ids):
    fleet = Fleet(service, clients=2, seed=1, record=True)
    editor, follower = fleet.members
    editor.folder.create("big.bin", random_content(1 * MB, seed=1))
    fleet.run_until_idle()
    baseline = follower.meter.total_bytes
    editor.folder.modify_random_byte("big.bin", seed=2)
    fleet.run_until_idle()
    assert fleet.converged()
    fleet.audit()
    pulled = follower.meter.total_bytes - baseline
    by_kind = follower.meter.totals_by_kind()
    deltas = by_kind["fanout-delta"].total if "fanout-delta" in by_kind else 0
    if uses_ids:
        assert 0 < deltas <= pulled < 100 * KB
    else:
        assert deltas == 0 and pulled > 1 * MB


def test_followers_outbound_exceeds_editor_inbound():
    """§1's ISP asymmetry: with two followers, the bytes the cloud sends
    out exceed the bytes the editing device sent in."""
    fleet = Fleet("GoogleDrive", clients=3, seed=3)
    editor, *followers = fleet.members
    editor.folder.create("f.bin", random_content(512 * KB, seed=3))
    fleet.run_until_idle()
    assert sum(follower.meter.total_bytes for follower in followers) \
        > editor.meter.total_bytes


def commit_as_client0(fleet, content):
    """Commit ``f.bin`` straight through client0's server handle, so
    several commits can land at one simulated instant."""
    proxy, user = fleet.hub.proxy_for("client0"), fleet.hub.user
    digest = chunking.fingerprint(content.data)
    key = proxy.upload_chunk(user, digest, content.data)
    proxy.commit(user, "f.bin", content.size, content.md5,
                 [digest], [key], [content.size])


def test_commit_after_suppressed_fetch_still_downloads():
    fleet = Fleet("GoogleDrive", clients=2, seed=0)
    follower = fleet.members[1]
    commit_as_client0(fleet, random_content(32 * KB, seed=1))
    commit_as_client0(fleet, random_content(32 * KB, seed=2))
    fleet.run_until_idle()
    third = random_content(32 * KB, seed=3)
    commit_as_client0(fleet, third)
    fleet.run_until_idle()
    assert follower.folder.get("f.bin").data == third.data
    assert follower.stats.fanout_fetches == 2


# -- fan-out invariant violations are detected ------------------------------

def test_fanout_audit_catches_byte_imbalance():
    fleet = small_fleet()
    fleet.run_until_idle()
    fleet.hub.ledger[0].pushed_bytes += 1
    recorders = [member.recorder for member in fleet.members]
    violations = verify(ledger=fleet.hub.ledger, recorders=recorders)
    assert violations
    assert violations[0].invariant == "fanout-conservation"
    assert "pushed" in str(violations[0])


def test_fanout_audit_catches_missing_notification():
    fleet = small_fleet()
    fleet.run_until_idle()
    entry = fleet.hub.ledger[0]
    entry.targets = entry.targets + ("ghost",)
    recorders = [member.recorder for member in fleet.members]
    violations = verify(ledger=fleet.hub.ledger, recorders=recorders)
    assert any("targeted" in str(violation) for violation in violations)


def test_fanout_audit_refuses_a_span_outside_every_epoch():
    """A fan-out span whose epoch names no ledger entry is a violation,
    negative epochs included: no epoch is exempt from the balance."""
    fleet = small_fleet()
    fleet.run_until_idle()
    fleet.audit()
    follower = fleet.members[2]
    now = fleet.sim.now
    follower.recorder.record_span(
        "fanout-notification", "fetch", f"fleet:{follower.name}", now, now,
        epoch=-1, path="w0/doc0.bin", member=follower.name, down_bytes=0)
    with pytest.raises(AuditViolation) as caught:
        fleet.audit()
    assert caught.value.invariant == "fanout-conservation"
    assert "unknown epoch -1" in str(caught.value)


def fanout_spans(follower):
    """A pure follower's ``fanout-notification`` spans, checked against
    the independent witness: it never writes, so every byte its meter saw
    come down is fan-out traffic.  (The audit alone cannot tell: ledger and
    spans are fed from the same meter reads.)"""
    spans = [span for span in follower.recorder.spans
             if span.kind == "fanout-notification"]
    assert sum(span.attrs["down_bytes"] for span in spans) \
        == follower.meter.down.total
    return spans


def test_fanout_balances_when_followers_give_up():
    """Outage windows that outlast every retry: each follower burns its
    rejected-request framing, gives up, and the epoch must still balance —
    the give-up works out its own down-byte delta.  The path
    stays owed: once the outage ends, every follower fetches it again."""
    # The commit lands (and notifies) at t=5.2; the fetch 0.2 s later finds
    # the server down, and every retry lands in the next, longer window.
    outage = FaultSchedule(
        FaultEpisode(start=5.3, duration=40.0 * k,
                     kind=FaultKind.SERVER_UNAVAILABLE) for k in range(1, 10))
    fleet = Fleet("GoogleDrive", clients=3, seed=7, faults=outage,
                  record=True)
    schedule_writer_workload(fleet, writers=1, spacing=600.0,
                             file_size=16 * KB, seed=7)
    fleet.run_until_idle()
    assert [member.stats.fetch_giveups for member in fleet.members] \
        == [0, 1, 1]
    for follower in fleet.members[1:]:
        giveups = [span for span in fanout_spans(follower)
                   if span.name == "give-up"]
        assert len(giveups) == 1 and giveups[0].attrs["down_bytes"] > 0
    first = fleet.hub.ledger[0]
    assert first.deliveries == 2 and first.pushed_bytes > 0
    assert fleet.converged()
    fleet.audit()  # fanout-conservation: pushed == sum of follower down_bytes


def test_pure_follower_meter_equals_its_fanout_evidence():
    """Notify and fetch spans add up to the follower's meter, in both
    directions."""
    fleet = Fleet("GoogleDrive", clients=3, seed=11, record=True)
    schedule_writer_workload(fleet, writers=1, spacing=30.0,
                             file_size=16 * KB, seed=11)
    fleet.run_until_idle()
    fleet.audit()
    names = set()
    for follower in fleet.members[1:]:
        spans = fanout_spans(follower)
        names.update(span.name for span in spans)
        requests = [record.total for record in follower.meter.records
                    if record.direction is Direction.UP
                    and record.kind != "notification"]  # i.e. not the acks
        assert sum(span.attrs.get("up_bytes", 0) for span in spans) \
            == sum(requests) > 0
    assert names == {"notify", "fetch"}


# -- digest work per pass ---------------------------------------------------

def test_digest_work_grows_with_commits_not_with_members(md5_calls):
    """One commit's stored object reaches every member as the same
    ``bytes``: it is hashed when stored and first served, not once per
    delivery.  The fleet-fanout benchmark shape at two fleet sizes."""
    hashed = {}
    for clients in (10, 40):
        del md5_calls[:]
        fleet = Fleet("GoogleDrive", clients=clients, seed=42)
        schedule_writer_workload(fleet, writers=4, files_per_writer=2,
                                 file_size=16 * KB, seed=42)
        fleet.run_until_idle()
        hashed[clients] = sorted(md5_calls)
        assert fleet.converged()     # (hashes every folder: not the pass)
    assert hashed[10] == hashed[40]
    assert len(hashed[10]) < 10 * 8                  # fewer than deliveries


# -- scale (slow tier) ------------------------------------------------------

@pytest.mark.slow
def test_large_fleet_converges_deterministically():
    """200 concurrent clients through one event queue, twice, identically."""
    prints = []
    for _ in range(2):
        fleet = Fleet("GoogleDrive", clients=200, seed=17)
        schedule_writer_workload(fleet, writers=4, file_size=8 * KB, seed=17)
        fleet.run_until_idle()
        assert fleet.converged()
        prints.append(fingerprint(fleet))
    assert prints[0] == prints[1]


# -- workload guard ---------------------------------------------------------

def test_workload_rejects_too_many_writers():
    fleet = Fleet("GoogleDrive", clients=2, seed=0)
    with pytest.raises(ValueError):
        schedule_writer_workload(fleet, writers=3)


@pytest.mark.parametrize("clients", [0, -1])
def test_fleet_refuses_fewer_than_one_client(clients):
    """Regression: an empty fleet ran to idle and reported TUE "—"."""
    with pytest.raises(ValueError, match="at least one client"):
        Fleet("GoogleDrive", clients=clients)
