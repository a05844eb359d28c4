"""Unit tests for the sync folder (local filesystem simulation)."""

import pytest

from repro.content import Content, random_content
from repro.fsim import FileOp, MissingFileError, SyncFolder
from repro.simnet import Simulator


def make_folder():
    sim = Simulator()
    return sim, SyncFolder(sim)


def test_create_emits_event_with_update_size():
    _, folder = make_folder()
    event = folder.create("a.bin", random_content(100, seed=1))
    assert event.op is FileOp.CREATE
    assert event.size == 100
    assert event.update_bytes == 100


def test_create_existing_rejected():
    _, folder = make_folder()
    folder.create("a", random_content(1))
    with pytest.raises(FileExistsError):
        folder.create("a", random_content(1))


def test_events_carry_sim_time():
    sim, folder = make_folder()
    folder.create("a", random_content(1))
    sim.run_until(7.5)
    event = folder.delete("a")
    assert event.time == 7.5


def test_append_update_bytes_is_tail_only():
    _, folder = make_folder()
    folder.create("a", random_content(1000, seed=1))
    event = folder.append("a", random_content(100, seed=2))
    assert event.update_bytes == 100
    assert event.size == 1100
    assert folder.get("a").size == 1100


def test_modify_random_byte_update_is_one():
    _, folder = make_folder()
    folder.create("a", random_content(1000, seed=1))
    event = folder.modify_random_byte("a", seed=3)
    assert event.update_bytes == 1
    assert event.size == 1000


def test_write_counts_altered_bytes():
    _, folder = make_folder()
    folder.create("a", Content(b"aaaaaaaa"))
    event = folder.write("a", Content(b"aaaabbbb"))
    assert event.update_bytes == 4


def test_write_counts_growth_as_altered():
    _, folder = make_folder()
    folder.create("a", Content(b"aaaa"))
    event = folder.write("a", Content(b"aaaabb"))
    assert event.update_bytes == 2


def test_missing_file_operations_raise():
    _, folder = make_folder()
    with pytest.raises(MissingFileError):
        folder.get("missing")
    with pytest.raises(MissingFileError):
        folder.delete("missing")
    with pytest.raises(MissingFileError):
        folder.write("missing", Content(b"x"))
    with pytest.raises(MissingFileError):
        folder.append("missing", Content(b"x"))


def test_delete_removes_and_emits():
    _, folder = make_folder()
    folder.create("a", random_content(10))
    event = folder.delete("a")
    assert event.op is FileOp.DELETE
    assert not folder.exists("a")


def test_subscribers_see_all_events():
    _, folder = make_folder()
    seen = []
    folder.subscribe(lambda event: seen.append(event.op))
    folder.create("a", random_content(5))
    folder.modify_random_byte("a")
    folder.delete("a")
    assert seen == [FileOp.CREATE, FileOp.MODIFY, FileOp.DELETE]


def test_paths_and_total_bytes():
    _, folder = make_folder()
    folder.create("b", random_content(10))
    folder.create("a", random_content(20))
    assert folder.paths() == ["a", "b"]
    assert folder.total_bytes() == 30
