"""Cross-module integration scenarios: multi-user, multi-step workflows."""

import pytest

from repro.client import (
    AccessMethod,
    ByteCounterDefer,
    SyncSession,
    service_profile,
)
from repro.cloud import CloudServer, NotFound
from repro.content import random_content, text_content
from repro.simnet import Simulator, mn_link
from repro.units import KB, MB


def shared_cloud(service="Dropbox", users=("alice", "bob")):
    profile = service_profile(service, AccessMethod.PC)
    sim = Simulator()
    server = CloudServer(dedup=profile.dedup,
                         storage_chunk_size=profile.storage_chunk_size)
    return sim, server, [
        SyncSession(profile, sim=sim, server=server, user=user,
                    link_spec=mn_link())
        for user in users
    ]


def test_two_users_namespaces_are_isolated():
    _, server, (alice, bob) = shared_cloud()
    alice.create_file("doc.bin", random_content(10 * KB, seed=1))
    alice.run_until_idle()
    with pytest.raises(NotFound):
        server.download("bob", "doc.bin")
    assert server.download("alice", "doc.bin")


def test_full_lifecycle_create_modify_delete_restore():
    session = SyncSession("Dropbox", AccessMethod.PC)
    original = random_content(512 * KB, seed=1)
    session.create_file("life.bin", original)
    session.run_until_idle()
    session.modify_random_byte("life.bin", seed=2)
    session.run_until_idle()
    modified = session.folder.get("life.bin")
    session.delete_file("life.bin")
    session.run_until_idle()
    server = session.server
    with pytest.raises(NotFound):
        server.download("user1", "life.bin")
    # Roll back to version 2 (the modification) — fake deletion kept it.
    server.restore_version("user1", "life.bin", 2)
    assert server.download("user1", "life.bin") == modified.data
    # Version 1 (the original) is also intact.
    server.restore_version("user1", "life.bin", 1)
    assert server.download("user1", "life.bin") == original.data


def test_many_files_many_operations_consistency():
    """Torture: interleaved creates/modifies/deletes all converge."""
    session = SyncSession("Dropbox", AccessMethod.PC)
    for index in range(12):
        session.create_file(f"d/f{index}.bin",
                            random_content(8 * KB, seed=index))
    session.run_until_idle()
    for index in range(0, 12, 2):
        session.modify_random_byte(f"d/f{index}.bin", seed=50 + index)
    for index in range(1, 12, 4):
        session.delete_file(f"d/f{index}.bin")
    session.run_until_idle()
    for index in range(12):
        path = f"d/f{index}.bin"
        if index % 4 == 1:
            with pytest.raises(NotFound):
                session.server.download("user1", path)
        else:
            assert session.server.download("user1", path) == \
                session.folder.get(path).data


def test_text_files_compressed_end_to_end():
    session = SyncSession("UbuntuOne", AccessMethod.PC)
    content = text_content(1 * MB, seed=3)
    session.create_file("notes.txt", content)
    session.run_until_idle()
    # Wire bytes well below the file size; cloud content still exact.
    assert session.total_traffic < 0.75 * MB
    assert session.server.download("user1", "notes.txt") == content.data


def test_byte_counter_defer_like_uds():
    """The UDS baseline [36]: TUE ≈ 1 under frequent modifications."""
    profile = service_profile("GoogleDrive", AccessMethod.PC).with_defer(
        lambda: ByteCounterDefer(threshold_bytes=256 * KB, flush_timeout=30.0))
    session = SyncSession(profile)
    session.create_file("log.bin", random_content(0))
    session.run_until_idle()
    session.reset_meter()
    for index in range(64):
        session.append("log.bin", random_content(8 * KB, seed=index))
        session.advance(1.0)
    session.run_until_idle()
    tue = session.tue(64 * 8 * KB)
    assert tue < 3.0


def test_meter_direction_sanity_for_upload_heavy_session():
    session = SyncSession("Box", AccessMethod.PC)
    session.create_file("big.bin", random_content(2 * MB, seed=1))
    session.run_until_idle()
    assert session.meter.up.total > session.meter.down.total
    assert session.meter.up.payload == pytest.approx(2 * MB, rel=0.01)


def test_server_storage_accounting_after_dedup():
    sim, server, (alice, bob) = shared_cloud("UbuntuOne")
    content = random_content(1 * MB, seed=9)
    alice.create_file("x.bin", content)
    alice.run_until_idle()
    bob.create_file("x.bin", content)
    bob.run_until_idle()
    # One physical copy; two logical accounts charged.
    assert server.objects.stored_bytes == pytest.approx(1 * MB, rel=0.01)
    assert server.accounts.get("alice").used_bytes == 1 * MB
    assert server.accounts.get("bob").used_bytes == 1 * MB


def test_simulation_time_advances_realistically():
    session = SyncSession("GoogleDrive", AccessMethod.PC)
    session.create_file("f.bin", random_content(1 * MB, seed=1))
    session.run_until_idle()
    # Defer 4.2 s + upload at 20 Mbps (~0.5 s) + handshakes.
    assert 4.2 < session.sim.now < 20.0


def test_every_exported_name_resolves():
    """Each name in a ``repro`` module's ``__all__`` is an attribute of that
    module, so a deleted function cannot stay exported."""
    import importlib
    import pkgutil

    import repro

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    exported = [(module, name) for module in modules
                for name in getattr(module, "__all__", ())]
    assert len(exported) > 300
    assert [(module.__name__, name) for module, name in exported
            if not hasattr(module, name)] == []
