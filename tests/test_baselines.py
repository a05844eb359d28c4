"""Tests for the open-source baseline profiles."""

import pytest

from repro.client import (
    BASELINES,
    RSYNC_LIKE,
    SEAFILE_LIKE,
    SYNCTHING_LIKE,
    AccessMethod,
    SyncSession,
    service_profile,
)
from repro.content import random_content, text_content
from repro.core import Cell, append, measure
from repro.units import KB, MB


@pytest.mark.parametrize("profile", BASELINES, ids=lambda p: p.service)
def test_baseline_converges(profile):
    session = SyncSession(profile)
    content = random_content(300 * KB, seed=1)
    session.create_file("x.bin", content)
    session.run_until_idle()
    assert session.server.download_content("user1", "x.bin")[0].data \
        == content.data
    session.modify_random_byte("x.bin", seed=2)
    session.run_until_idle()
    assert session.server.download_content("user1", "x.bin")[0].data == \
        session.folder.get("x.bin").data


def test_rsync_has_minimal_overhead():
    """rsync's whole raison d'être: near-payload-only transfers."""
    session = SyncSession(RSYNC_LIKE)
    session.create_file("f.bin", random_content(1 * MB, seed=1))
    session.run_until_idle()
    assert session.tue() < 1.10
    commercial = SyncSession("Box", AccessMethod.PC)
    commercial.create_file("f.bin", random_content(1 * MB, seed=1))
    commercial.run_until_idle()
    assert session.total_traffic < commercial.total_traffic


def test_rsync_compresses_text():
    session = SyncSession(RSYNC_LIKE)
    session.create_file("t.txt", text_content(1 * MB, seed=3))
    session.run_until_idle()
    assert session.total_traffic < 0.6 * MB


def test_delta_granularity_ordering_under_frequent_mods():
    """Finer delta blocks → lower TUE on small appends (rsync 8 K beats
    Syncthing's 128 K beats Seafile's 1 M)."""
    tues = {
        profile.service: measure(Cell(profile,
                                      append(2.0, total=128 * KB))).tue
        for profile in BASELINES
    }
    assert tues["RsyncLike"] < tues["SyncthingLike"] <= tues["SeafileLike"]


def test_syncthing_block_dedup_works():
    session = SyncSession(SYNCTHING_LIKE)
    content = random_content(512 * KB, seed=5)
    session.create_file("a.bin", content)
    session.run_until_idle()
    session.reset_meter()
    session.create_file("b.bin", content)
    session.run_until_idle()
    assert session.total_traffic < 64 * KB


def test_baselines_beat_every_commercial_service_on_batch_creation():
    """The novelty critique quantified: the open-source tools already did
    BDS better than most 2014 commercial services."""
    def batch_tue(profile):
        session = SyncSession(profile)
        for index in range(30):
            session.create_file(f"s/{index}.bin",
                                random_content(1 * KB, seed=index))
        session.run_until_idle()
        return session.total_traffic / (30 * KB)

    rsync_tue = batch_tue(RSYNC_LIKE)
    for name in ("GoogleDrive", "OneDrive", "Box", "SugarSync"):
        assert rsync_tue < batch_tue(service_profile(name, AccessMethod.PC))
