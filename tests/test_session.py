"""Tests for the SyncSession facade and its measurement surface."""

import pytest

from repro.client import AccessMethod, M2, SyncSession, service_profile
from repro.content import random_content, text_content
from repro.simnet import LinkSpec, bj_link, mn_link
from repro.units import KB, MB, Mbps


def test_accepts_service_name_or_profile():
    by_name = SyncSession("Dropbox", AccessMethod.PC)
    by_profile = SyncSession(service_profile("Dropbox", AccessMethod.PC))
    assert by_name.profile is by_profile.profile


def test_string_access_method():
    session = SyncSession("Box", "mobile")
    assert session.profile.access is AccessMethod.MOBILE


def test_default_link_is_mn():
    session = SyncSession("Box")
    assert session.link.spec.up_bw == 20 * Mbps


def test_server_configured_from_profile():
    dropbox = SyncSession("Dropbox")
    assert dropbox.server.dedup_config.enabled
    assert dropbox.server.storage_chunk_size == 4 * MB
    box = SyncSession("Box")
    assert not box.server.dedup_config.enabled
    assert box.server.storage_chunk_size is None


def test_convenience_creators():
    session = SyncSession("Box")
    session.create_random_file("r.bin", 10 * KB, seed=1)
    session.create_text_file("t.txt", 10 * KB, seed=2)
    assert session.folder.get("r.bin").size == 10 * KB
    assert session.folder.get("t.txt").size == 10 * KB


def test_reset_meter_clears_traffic_and_updates():
    session = SyncSession("Box")
    session.create_random_file("f.bin", 10 * KB)
    session.run_until_idle()
    assert session.total_traffic > 0
    session.reset_meter()
    assert session.total_traffic == 0
    assert session.data_update_bytes == 0


def test_advance_moves_virtual_time_without_requiring_events():
    session = SyncSession("Box")
    session.advance(100.0)
    assert session.sim.now == 100.0


def test_tue_with_explicit_denominator():
    session = SyncSession("Box")
    session.create_random_file("f.bin", 100 * KB)
    session.run_until_idle()
    assert session.tue(100 * KB) == session.total_traffic / (100 * KB)


def test_machine_affects_timing_not_bytes():
    fast = SyncSession("Box")
    slow = SyncSession("Box", machine=M2)
    for session in (fast, slow):
        session.create_random_file("f.bin", 1 * MB, seed=1)
        session.run_until_idle()
    assert fast.total_traffic == slow.total_traffic
    assert slow.sim.now > fast.sim.now


def test_bj_session_takes_longer_same_bytes():
    near = SyncSession("Box", link_spec=mn_link())
    far = SyncSession("Box", link_spec=bj_link())
    for session in (near, far):
        session.create_random_file("f.bin", 1 * MB, seed=1)
        session.run_until_idle()
    assert near.total_traffic == far.total_traffic
    assert far.sim.now > near.sim.now
