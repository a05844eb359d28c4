"""Tests for the extended file operations: truncate, insert, rename."""

import pytest

from repro.client import AccessMethod, SyncSession
from repro.content import Content, random_content
from repro.fsim import FileOp, MissingFileError, SyncFolder
from repro.simnet import Simulator
from repro.units import KB, MB


def make_folder():
    return SyncFolder(Simulator())


# ---------------------------------------------------------------------------
# folder-level semantics
# ---------------------------------------------------------------------------

def test_truncate_semantics():
    folder = make_folder()
    folder.create("a", random_content(1000, seed=1))
    event = folder.truncate("a", 400)
    assert folder.get("a").size == 400
    assert event.update_bytes == 600
    with pytest.raises(ValueError):
        folder.truncate("a", 401)
    with pytest.raises(ValueError):
        folder.truncate("a", -1)


def test_insert_semantics():
    folder = make_folder()
    folder.create("a", Content(b"helloworld"))
    event = folder.insert("a", 5, Content(b"-X-"))
    assert folder.get("a").data == b"hello-X-world"
    assert event.update_bytes == 3
    with pytest.raises(ValueError):
        folder.insert("a", 99, Content(b"y"))


def test_rename_semantics():
    folder = make_folder()
    content = random_content(100, seed=2)
    folder.create("old", content)
    event = folder.rename("old", "new")
    assert event.op is FileOp.RENAME
    assert event.old_path == "old"
    assert event.update_bytes == 0
    assert not folder.exists("old")
    assert folder.get("new") == content
    with pytest.raises(MissingFileError):
        folder.rename("old", "older")
    folder.create("other", random_content(1))
    with pytest.raises(FileExistsError):
        folder.rename("other", "new")


# ---------------------------------------------------------------------------
# end-to-end sync behaviour
# ---------------------------------------------------------------------------

def test_rename_is_metadata_only_on_the_wire():
    session = SyncSession("Box", AccessMethod.PC)
    session.create_file("a.bin", random_content(1 * MB, seed=1))
    session.run_until_idle()
    session.reset_meter()
    session.folder.rename("a.bin", "b.bin")
    session.run_until_idle()
    assert session.total_traffic < 20 * KB
    assert session.client.stats.renames_synced == 1
    assert session.server.download_content("user1", "b.bin")[0].data == \
        session.folder.get("b.bin").data
    # The old path is tombstoned, not duplicated.
    from repro.cloud import NotFound
    with pytest.raises(NotFound):
        session.server.download_content("user1", "a.bin")


def test_rename_then_modify_syncs_both():
    session = SyncSession("Dropbox", AccessMethod.PC)
    session.create_file("a.bin", random_content(256 * KB, seed=1))
    session.run_until_idle()
    session.reset_meter()
    session.folder.rename("a.bin", "b.bin")
    session.modify_random_byte("b.bin", seed=2)
    session.run_until_idle()
    assert session.server.download_content("user1", "b.bin")[0].data == \
        session.folder.get("b.bin").data
    # Rename stayed cheap and the modification went as a delta.
    assert session.client.stats.delta_syncs == 1
    assert session.total_traffic < 100 * KB


def test_rename_before_first_sync_uploads_under_new_name():
    session = SyncSession("GoogleDrive", AccessMethod.PC)  # 4.2 s defer
    session.create_file("tmp.bin", random_content(64 * KB, seed=1))
    session.folder.rename("tmp.bin", "final.bin")
    session.run_until_idle()
    assert session.server.download_content("user1", "final.bin")[0].data == \
        session.folder.get("final.bin").data
    from repro.cloud import NotFound
    with pytest.raises(NotFound):
        session.server.metadata.head("user1", "tmp.bin")


def test_insert_ships_delta_for_ids_client():
    session = SyncSession("Dropbox", AccessMethod.PC)
    session.create_file("a.bin", random_content(512 * KB, seed=1))
    session.run_until_idle()
    session.reset_meter()
    session.folder.insert("a.bin", 100 * KB, random_content(2 * KB, seed=2))
    session.run_until_idle()
    # rsync's rolling match re-finds the shifted suffix: only ~the insert
    # region (plus boundary blocks) crosses the wire.
    assert session.total_traffic < 120 * KB
    assert session.server.download_content("user1", "a.bin")[0].data == \
        session.folder.get("a.bin").data


def test_truncate_syncs_correctly():
    session = SyncSession("Dropbox", AccessMethod.PC)
    session.create_file("log.bin", random_content(512 * KB, seed=1))
    session.run_until_idle()
    session.folder.truncate("log.bin", 100 * KB)
    session.run_until_idle()
    assert session.server.download_content("user1", "log.bin")[0].data == \
        session.folder.get("log.bin").data
    assert session.server.metadata.head("user1", "log.bin").size == 100 * KB
