"""Integration-level tests of the sync client engine's behaviours."""

import math
from dataclasses import replace

import pytest

from repro.client import (
    AccessMethod,
    M1,
    M2,
    SyncSession,
    service_profile,
)
from repro.client.engine import PendingChange
from repro.cloud import CloudServer, DedupConfig
from repro.content import random_content
from repro.simnet import LinkSpec, Simulator, mn_link
from repro.units import KB, MB


def session_for(service="GoogleDrive", access=AccessMethod.PC, **kwargs):
    return SyncSession(service, access, **kwargs)


def test_creation_reaches_cloud():
    session = session_for()
    content = random_content(10 * KB, seed=1)
    session.create_file("a.bin", content)
    session.run_until_idle()
    assert session.server.download_content("user1", "a.bin")[0].data \
        == content.data
    assert session.client.stats.files_synced == 1


def test_modification_updates_cloud():
    session = session_for()
    session.create_file("a.bin", random_content(10 * KB, seed=1))
    session.run_until_idle()
    session.modify_random_byte("a.bin", seed=2)
    session.run_until_idle()
    assert session.server.download_content("user1", "a.bin")[0].data == \
        session.folder.get("a.bin").data


def test_ids_client_uses_delta_for_modification():
    session = session_for("Dropbox")
    session.create_file("a.bin", random_content(1 * MB, seed=1))
    session.run_until_idle()
    assert session.client.stats.full_file_syncs == 1
    session.modify_random_byte("a.bin", seed=2)
    session.run_until_idle()
    assert session.client.stats.delta_syncs == 1
    assert session.server.download_content("user1", "a.bin")[0].data == \
        session.folder.get("a.bin").data


def test_delta_traffic_much_smaller_than_full_file():
    """The Figure 4 contrast: IDS vs full-file for a 1-byte edit."""
    ids = session_for("Dropbox")
    ids.create_file("a.bin", random_content(1 * MB, seed=1))
    ids.run_until_idle()
    ids.reset_meter()
    ids.modify_random_byte("a.bin", seed=2)
    ids.run_until_idle()

    full = session_for("GoogleDrive")
    full.create_file("a.bin", random_content(1 * MB, seed=1))
    full.run_until_idle()
    full.reset_meter()
    full.modify_random_byte("a.bin", seed=2)
    full.run_until_idle()

    assert ids.total_traffic < full.total_traffic / 5


def test_full_file_client_resends_whole_file():
    session = session_for("Box")
    session.create_file("a.bin", random_content(1 * MB, seed=1))
    session.run_until_idle()
    session.reset_meter()
    session.modify_random_byte("a.bin", seed=2)
    session.run_until_idle()
    assert session.total_traffic > 1 * MB


def test_deletion_traffic_negligible():
    """Experiment 2: deletion costs < 100 KB regardless of size."""
    session = session_for("OneDrive")
    session.create_file("big.bin", random_content(2 * MB, seed=1))
    session.run_until_idle()
    session.reset_meter()
    session.delete_file("big.bin")
    session.run_until_idle()
    assert session.total_traffic < 100 * KB
    # Fake deletion: the cloud can still roll back to version 1.
    restored = session.server.restore_version("user1", "big.bin", 1)
    assert restored.size == 2 * MB


def test_create_then_delete_before_sync_sends_nothing_heavy():
    session = session_for("GoogleDrive")  # 4.2 s defer holds the create back
    session.create_file("temp.bin", random_content(1 * MB, seed=1))
    session.delete_file("temp.bin")
    session.run_until_idle()
    assert session.total_traffic < 10 * KB


def test_natural_batching_during_upload():
    """Condition 1: updates arriving mid-upload coalesce into one sync."""
    spec = LinkSpec(up_bw=200_000, down_bw=200_000, rtt=0.2)  # slow link
    session = session_for("Box", link_spec=spec)
    session.create_file("f.bin", random_content(0))
    session.run_until_idle()
    session.reset_meter()
    for index in range(10):
        session.append("f.bin", random_content(50 * KB, seed=10 + index))
        session.advance(0.05)
    session.run_until_idle()
    stats = session.client.stats
    assert stats.sync_transactions < 10
    assert max(stats.ops_per_sync) > 1


def test_slow_hardware_batches_more():
    """Condition 2: metadata computation time forces batching (Fig. 8c)."""
    def run(machine):
        session = session_for("Dropbox", machine=machine)
        session.create_file("f.bin", random_content(0))
        session.run_until_idle()
        session.reset_meter()
        for index in range(30):
            session.append("f.bin", random_content(1 * KB, seed=index))
            session.advance(1.0)
        session.run_until_idle()
        return session

    fast = run(M1)
    slow = run(M2)
    assert slow.client.stats.sync_transactions < fast.client.stats.sync_transactions
    assert slow.total_traffic < fast.total_traffic


def test_bds_full_batches_into_one_transaction():
    session = session_for("Dropbox")
    for index in range(20):
        session.create_file(f"b/{index}.bin", random_content(1 * KB, seed=index))
    session.run_until_idle()
    assert session.client.stats.sync_transactions == 1
    assert session.client.stats.files_synced == 20


def _one_byte_edits(files):
    """Traffic of one sync transaction carrying a one-byte edit to each of
    ``files`` 1 MB Dropbox PC files, and how many transactions it took."""
    session = session_for("Dropbox")
    for index in range(files):
        session.create_random_file(f"f{index}.bin", 1 * MB, seed=index)
    session.run_until_idle()
    session.reset_meter()
    transactions = session.client.stats.sync_transactions
    for index in range(files):
        session.modify_random_byte(f"f{index}.bin", seed=100 + index)
    session.run_until_idle()
    for index in range(files):
        path = f"f{index}.bin"
        assert session.server.download_content("user1", path)[0].data \
            == session.folder.get(path).data
    return (session.total_traffic,
            session.client.stats.sync_transactions - transactions)


@pytest.mark.parametrize("files", [2, 4])
def test_co_batched_ids_edits_each_cost_one_edit(files):
    """Regression: full BDS re-shipped every IDS edit of a multi-file
    batch as the whole file (x26 per 1 MB file).  Edits that share one
    transaction must cost exactly what they cost one at a time."""
    single, _ = _one_byte_edits(1)
    traffic, transactions = _one_byte_edits(files)
    assert transactions == 1
    assert traffic == files * single


def test_non_bds_service_syncs_files_individually():
    session = session_for("GoogleDrive")
    for index in range(5):
        session.create_file(f"b/{index}.bin", random_content(1 * KB, seed=index))
    session.run_until_idle()
    # One transaction (they're batched in time by the defer) but each file
    # pays its own full overhead: traffic is ~5x the single-file cost.
    single = session_for("GoogleDrive")
    single.create_file("one.bin", random_content(1 * KB, seed=0))
    single.run_until_idle()
    assert session.total_traffic > 4 * single.total_traffic


def test_dedup_skips_reupload_same_user():
    session = session_for("UbuntuOne")
    content = random_content(512 * KB, seed=1)
    session.create_file("a.bin", content)
    session.run_until_idle()
    first = session.total_traffic
    session.reset_meter()
    session.create_file("copy.bin", content)
    session.run_until_idle()
    assert session.total_traffic < first / 10
    assert session.client.stats.dedup_skipped_units == 1


def test_no_dedup_service_reuploads():
    session = session_for("Box")
    content = random_content(512 * KB, seed=1)
    session.create_file("a.bin", content)
    session.run_until_idle()
    session.reset_meter()
    session.create_file("copy.bin", content)
    session.run_until_idle()
    assert session.total_traffic > 512 * KB


def test_cross_user_dedup_only_when_scoped():
    def pair(service):
        profile = service_profile(service, AccessMethod.PC)
        sim = Simulator()
        server = CloudServer(dedup=profile.dedup,
                             storage_chunk_size=profile.storage_chunk_size)
        alice = SyncSession(profile, sim=sim, server=server, user="alice")
        bob = SyncSession(profile, sim=sim, server=server, user="bob")
        return alice, bob

    content = random_content(512 * KB, seed=2)

    alice, bob = pair("UbuntuOne")  # cross-user full-file dedup
    alice.create_file("f.bin", content)
    alice.run_until_idle()
    bob.create_file("f.bin", content)
    bob.run_until_idle()
    assert bob.total_traffic < 50 * KB

    alice, bob = pair("Dropbox")  # same-user only
    alice.create_file("f.bin", content)
    alice.run_until_idle()
    bob.create_file("f.bin", content)
    bob.run_until_idle()
    assert bob.total_traffic > 512 * KB


@pytest.mark.parametrize("dedup", [DedupConfig.none(),
                                   DedupConfig.block(16 * KB)],
                         ids=["no-dedup", "dedup"])
def test_every_upload_route_stages_units_identically(dedup):
    """_upload_full and a 1-file full-BDS batch share one staging path:
    same (digests, keys, sizes), one negotiation each."""
    profile = replace(service_profile("Dropbox", AccessMethod.PC),
                      dedup=dedup, storage_chunk_size=16 * KB)
    content = random_content(40 * KB, seed=7)
    routes = {
        "upload": lambda client: client._upload_full("a.bin", content),
        "bds": lambda client: client._sync_combined(
            [PendingChange(path="a.bin")]),
    }
    staged, negotiations = {}, {}
    for route, send in routes.items():
        session = SyncSession(profile)
        session.folder.apply_remote("a.bin", content)
        client, server = session.client, session.server
        calls = []
        stage, negotiate = client._stage_units, server.negotiate

        def spy_stage(contents):
            duration, files = stage(contents)
            calls.extend(files)
            return duration, files

        def spy_negotiate(user, digests):
            negotiations[route] = negotiations.get(route, 0) + 1
            return negotiate(user, digests)

        client._stage_units, server.negotiate = spy_stage, spy_negotiate
        send(client)
        (file,) = calls
        staged[route] = (file.digests, file.keys, file.sizes)
        assert server.download_content("user1", "a.bin")[0].data \
            == content.data
    assert len(staged["upload"][0]) == 3
    assert staged["upload"] == staged["bds"]
    assert negotiations == ({route: 1 for route in routes}
                            if dedup.enabled else {})


def test_rename_after_source_recreated_keeps_both_files():
    """Regression: a deferred rename whose *source* path was recreated
    locally used to ship as a metadata-only server move, tombstoning the
    recreated file.  Sequence (distilled from a failing random op run):
    create a → rename a→b → let b sync → rename b→c → recreate b → write c.
    Both b and c must survive on the cloud."""
    session = session_for("UbuntuOne", AccessMethod.PC)
    session.create_file("a.bin", random_content(0, seed=1))
    session.folder.rename("a.bin", "b.bin")
    session.advance(3.5)  # long enough for b.bin to reach the server
    session.folder.rename("b.bin", "c.bin")
    session.create_file("b.bin", random_content(0, seed=2))
    session.write_file("c.bin", random_content(1, seed=3))
    session.run_until_idle()
    for path in ("b.bin", "c.bin"):
        assert session.server.download_content("user1", path)[0].data == \
            session.folder.get(path).data, path


def test_each_uploaded_byte_is_hashed_once_per_side(md5_calls):
    """Dropbox profile, one file that fits one storage unit: the client
    hashes it once (``Content.md5``, which is also the unit's fingerprint),
    the server once (``upload_chunk``'s check), the store not at all — it
    takes the server's digest as the etag.  The first download pays the
    store's read check and the reassembly check; the second pays nothing."""
    size = 300 * KB
    session = session_for("Dropbox")
    session.create_file("a.bin", random_content(size, seed=70))
    session.run_until_idle()
    assert md5_calls == [size, size]
    del md5_calls[:]
    session.download("a.bin")
    assert md5_calls == [size, size]
    session.download("a.bin")
    assert md5_calls == [size, size]


def test_download_restores_content_and_meters_down():
    session = session_for("Dropbox")
    content = random_content(256 * KB, seed=3)
    session.create_file("a.bin", content)
    session.run_until_idle()
    session.reset_meter()
    fetched = session.download("a.bin")
    assert fetched.data == content.data
    assert session.meter.down.payload > 0
    assert session.meter.up.payload == 0


def test_shadow_tracks_synced_state():
    session = session_for("Dropbox")
    session.create_file("a.bin", random_content(64 * KB, seed=1))
    session.run_until_idle()
    session.append("a.bin", random_content(1 * KB, seed=2))
    session.run_until_idle()
    session.append("a.bin", random_content(1 * KB, seed=3))
    session.run_until_idle()
    assert session.client.stats.delta_syncs == 2
    assert session.server.download_content("user1", "a.bin")[0].data == \
        session.folder.get("a.bin").data


def test_update_tracking_matches_folder_events():
    session = session_for()
    session.create_file("a.bin", random_content(100, seed=1))
    session.append("a.bin", random_content(50, seed=2))
    assert session.data_update_bytes == 150


def test_tue_rejects_only_a_negative_denominator():
    session = session_for()
    assert math.isnan(session.tue())    # no traffic against no update
    with pytest.raises(ValueError):
        session.tue(update_size=-1)
