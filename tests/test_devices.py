"""Multi-device propagation (the Figure 1 fan-out) on :class:`Fleet` followers.

Member 0 edits; every other member is a follower that learns of the commit
from a push notification and downloads it one notification delay later.
"""

from repro.content import random_content
from repro.fleet import Fleet
from repro.units import KB, MB

from .test_fleet import commit_as_client0


def test_single_file_propagates_to_all_mirrors():
    fleet = Fleet("Dropbox", clients=4, seed=1)
    editor, *followers = fleet.members
    content = random_content(64 * KB, seed=1)
    editor.folder.create("a.bin", content)
    fleet.run_until_idle()
    assert fleet.converged()
    for follower in followers:
        assert follower.folder.get("a.bin").data == content.data
        assert follower.stats.fanout_fetches == 1


def test_modification_propagates():
    fleet = Fleet("Dropbox", clients=2, seed=1)
    editor, follower = fleet.members
    editor.folder.create("a.bin", random_content(64 * KB, seed=1))
    fleet.run_until_idle()
    editor.folder.modify_random_byte("a.bin", seed=2)
    fleet.run_until_idle()
    assert fleet.converged()
    assert follower.folder.get("a.bin").data == editor.folder.get("a.bin").data
    assert follower.stats.fanout_fetches == 2


def test_ids_mirror_downloads_delta_not_full_file():
    """The edit reaches the follower as one delta exchange: no second
    full-file download happens after the initial one."""
    fleet = Fleet("Dropbox", clients=2, seed=1)
    editor, follower = fleet.members
    editor.folder.create("big.bin", random_content(1 * MB, seed=1))
    fleet.run_until_idle()
    full = follower.meter.totals_by_kind()["fanout-download"].total
    editor.folder.modify_random_byte("big.bin", seed=2)
    fleet.run_until_idle()
    by_kind = follower.meter.totals_by_kind()
    assert by_kind["fanout-download"].total == full
    assert 0 < by_kind["fanout-delta"].total < full // 10
    assert fleet.converged()


def test_deletion_propagates():
    """A delete reaches every follower as metadata only."""
    fleet = Fleet("Dropbox", clients=3, seed=1)
    editor, *followers = fleet.members
    editor.folder.create("gone.bin", random_content(16 * KB, seed=1))
    fleet.run_until_idle()
    downloaded = [follower.meter.totals_by_kind()["fanout-download"].total
                  for follower in followers]
    editor.folder.delete("gone.bin")
    fleet.run_until_idle()
    assert fleet.converged()
    for follower, before in zip(followers, downloaded):
        assert follower.folder.paths() == []
        by_kind = follower.meter.totals_by_kind()
        assert by_kind["fanout-download"].total == before
        assert by_kind["delete-sync"].total > 0


def test_stale_notifications_do_not_redownload():
    fleet = Fleet("Dropbox", clients=2, seed=1)
    editor, follower = fleet.members
    editor.folder.create("f.bin", random_content(8 * KB, seed=1))
    fleet.run_until_idle()
    fetches = follower.stats.fanout_fetches
    downloaded = follower.meter.totals_by_kind()["fanout-download"].total
    # Re-delivering an already applied epoch is a no-op.
    follower.receive_notification(fleet.hub.ledger[-1])
    fleet.run_until_idle()
    assert follower.stats.fanout_fetches == fetches
    assert follower.stats.suppressed == 1
    assert (follower.meter.totals_by_kind()["fanout-download"].total
            == downloaded)


def test_two_commits_within_one_notification_delay():
    """The first fetch already delivers the second commit's head, so the
    second notification is suppressed — one download, newest content."""
    fleet = Fleet("GoogleDrive", clients=2, seed=0)
    follower = fleet.members[1]
    second = random_content(32 * KB, seed=2)
    commit_as_client0(fleet, random_content(32 * KB, seed=1))
    commit_as_client0(fleet, second)
    fleet.run_until_idle()
    assert follower.folder.get("f.bin").data == second.data
    assert follower.stats.fanout_fetches == 1
    assert follower.stats.suppressed == 1
    assert follower._versions["f.bin"] == 2
