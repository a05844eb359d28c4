"""Failure injection: quota exhaustion mid-workload."""

import pytest

from repro.client import AccessMethod, SyncSession
from repro.cloud import NotFound, QuotaExceeded
from repro.content import random_content
from repro.units import KB, MB


def constrained_session(quota=256 * KB, service="Box"):
    session = SyncSession(service, AccessMethod.PC)
    session.server.accounts.register("user1", quota_bytes=quota)
    return session


def test_over_quota_sync_fails_gracefully():
    session = constrained_session()
    session.create_file("big.bin", random_content(1 * MB, seed=1))
    session.run_until_idle()          # must not raise out of the event loop
    assert session.client.stats.failed_syncs == 1
    assert session.client.failures
    with pytest.raises(NotFound):
        session.server.download_content("user1", "big.bin")
    # The local file is untouched.
    assert session.folder.get("big.bin").size == 1 * MB


def test_client_keeps_working_after_quota_failure():
    session = constrained_session()
    session.create_file("big.bin", random_content(1 * MB, seed=1))
    session.run_until_idle()
    session.create_file("small.bin", random_content(32 * KB, seed=2))
    session.run_until_idle()
    assert session.server.download_content("user1", "small.bin")[0].data
    assert session.client.stats.failed_syncs == 1


def test_orphaned_chunks_reclaimed_by_gc():
    """Chunks uploaded before the failed commit are garbage, and GC frees
    them (the commit never referenced them)."""
    session = constrained_session()
    session.create_file("big.bin", random_content(1 * MB, seed=1))
    session.run_until_idle()
    orphaned = session.server.objects.stored_bytes
    assert orphaned >= 1 * MB
    removed = session.server.collect_garbage()
    assert removed >= 1
    assert session.server.objects.stored_bytes < orphaned


def test_quota_freed_by_deletion_allows_new_upload():
    session = constrained_session(quota=300 * KB)
    session.create_file("first.bin", random_content(200 * KB, seed=1))
    session.run_until_idle()
    session.delete_file("first.bin")
    session.run_until_idle()
    session.create_file("second.bin", random_content(200 * KB, seed=2))
    session.run_until_idle()
    assert session.server.download_content("user1", "second.bin")[0].data
    assert session.client.stats.failed_syncs == 0


def test_account_charge_refund_direct():
    session = constrained_session(quota=100 * KB)
    account = session.server.accounts.get("user1")
    account.charge(90 * KB)
    with pytest.raises(QuotaExceeded):
        account.charge(20 * KB)
    account.refund(50 * KB)
    account.charge(20 * KB)
    assert account.used_bytes == 60 * KB
