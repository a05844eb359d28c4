"""End-to-end usage scenarios on one :class:`~repro.client.SyncSession`.

Each scenario drives a session through one pattern the paper's introduction
motivates and returns the data update size (the TUE denominator).
"""

import pytest

from repro.client import AccessMethod, SyncSession
from repro.cloud import NotFound
from repro.content import random_content, text_content
from repro.units import KB, MB


def photo_import(session, count=4, photo_size=256 * KB):
    """Incompressible media, uploaded once and never modified (§4.3)."""
    for index in range(count):
        session.create_file(f"photos/IMG_{index:04d}.jpg",
                            random_content(photo_size, seed=index))
    session.run_until_idle()
    return count * photo_size


def source_tree(session, files=20, mean_size=4 * KB):
    """A tree of small compressible text files dropped in at once (§4.1)."""
    total = 0
    for index in range(files):
        size = mean_size // 2 + (index * 977) % mean_size
        session.create_file(f"src/pkg{index % 12}/mod{index:04d}.py",
                            text_content(size, seed=index))
        total += size
    session.run_until_idle()
    return total


def appending(session, total=32 * KB, chunk=4 * KB, period=1.0,
              path="stream.bin"):
    """The paper's "X KB / X sec" appending primitive (§6)."""
    session.create_file(path, random_content(0))
    session.run_until_idle()
    for index in range(total // chunk):
        session.append(path, random_content(chunk, seed=index))
        session.advance(period)
    session.run_until_idle()
    return total


def collab_editing(session):
    """An author saving a growing document every few seconds (§6)."""
    return appending(session, total=20 * KB, chunk=2 * KB, period=6.0,
                     path="draft.tex")


def log_rotation(session, rotations=2, grow_to=64 * KB, step=16 * KB,
                 period=10.0):
    """A log that grows in bursts and is truncated at each rotation."""
    session.create_file("app.log", random_content(0))
    session.run_until_idle()
    update = 0
    for rotation in range(rotations):
        for index in range(grow_to // step):
            session.append("app.log", random_content(
                step, seed=rotation * 1_000 + index))
            session.advance(period)
        session.folder.truncate("app.log", 0)
        update += 2 * grow_to  # the growth, then its truncation
        session.advance(period)
    session.run_until_idle()
    return update


def mixed_office(session):
    """Documents created, edited, duplicated and renamed, plus a large
    attachment: every §4/§5 mechanism touched once."""
    update = 0
    for index in range(20):
        size = 8 * KB + (index * 3677) % (32 * KB)
        session.create_file(f"docs/report{index:02d}.doc",
                            text_content(size, seed=index))
        update += size
    session.run_until_idle()
    for index in range(0, 20, 2):
        session.modify_random_byte(f"docs/report{index:02d}.doc", seed=index)
        update += 1
        session.advance(30.0)
    session.run_until_idle()
    attachment = random_content(3 * MB, seed=999)
    for path in ("mail/specs.zip", "archive/specs-copy.zip"):  # a duplicate
        session.create_file(path, attachment)
        update += attachment.size
        session.run_until_idle()
    session.folder.rename("docs/report00.doc", "docs/final.doc")
    session.run_until_idle()
    return update


ALL_WORKLOADS = [photo_import, source_tree, collab_editing, appending,
                 log_rotation, mixed_office]
WORKLOAD_IDS = [workload.__name__ for workload in ALL_WORKLOADS]


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=WORKLOAD_IDS)
def test_workload_converges_and_reports_update(workload):
    session = SyncSession("Dropbox", AccessMethod.PC)
    update = workload(session)
    session.run_until_idle()
    assert update > 0
    assert session.total_traffic > 0
    # Every surviving local file is on the cloud byte-for-byte.
    for path in session.folder.paths():
        assert session.server.download_content("user1", path)[0].data == \
            session.folder.get(path).data


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=WORKLOAD_IDS)
def test_workload_deterministic(workload):
    first = SyncSession("Box", AccessMethod.PC)
    second = SyncSession("Box", AccessMethod.PC)
    assert workload(first) == workload(second)
    first.run_until_idle()
    second.run_until_idle()
    assert first.total_traffic == second.total_traffic


def test_photo_import_has_tue_near_one_everywhere():
    """Unmodified media: even full-file services are efficient (§4.3)."""
    session = SyncSession("GoogleDrive", AccessMethod.PC)
    update = photo_import(session, count=3, photo_size=1 * MB)
    session.run_until_idle()
    assert session.total_traffic / update < 1.3


def test_source_tree_separates_bds_from_non_bds():
    def tue(service):
        session = SyncSession(service, AccessMethod.PC)
        update = source_tree(session, files=40)
        session.run_until_idle()
        return session.total_traffic / update

    assert tue("UbuntuOne") < tue("GoogleDrive") / 2


def test_mixed_office_rename_stayed_renamed():
    session = SyncSession("Dropbox", AccessMethod.PC)
    mixed_office(session)
    session.run_until_idle()
    assert session.server.download_content("user1", "docs/final.doc")[0].data
    with pytest.raises(NotFound):
        session.server.download_content("user1", "docs/report00.doc")
