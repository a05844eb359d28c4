"""Property-based state-machine tests: random op sequences, hard invariants.

Whatever sequence of creates/writes/appends/renames/deletes a user throws
at any client, after the simulation drains:

* the cloud's live head state equals the local folder, byte for byte;
* every byte metered is non-negative and payload ≤ total;
* version numbers grow monotonically per path;
* the dedup index never maps one digest to two keys within a scope.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.client import AccessMethod, SyncSession, service_profile
from repro.cloud import NotFound
from repro.content import random_content
from repro.units import KB

SERVICES = ("GoogleDrive", "Dropbox", "UbuntuOne", "Box")

PATHS = ("a.bin", "b.bin", "c.bin")

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["create", "write", "append", "modify", "delete",
                         "rename", "advance"]),
        st.sampled_from(PATHS),
        st.integers(min_value=0, max_value=40),
    ),
    min_size=1, max_size=25,
)


def apply_ops(session: SyncSession, ops) -> None:
    for index, (op, path, arg) in enumerate(ops):
        exists = session.folder.exists(path)
        if op == "create" and not exists:
            session.create_file(path, random_content(arg * KB, seed=index))
        elif op == "write" and exists:
            session.write_file(path, random_content(arg * KB + 1, seed=index))
        elif op == "append" and exists:
            session.append(path, random_content(arg + 1, seed=index))
        elif op == "modify" and exists and session.folder.get(path).size:
            session.modify_random_byte(path, seed=index)
        elif op == "delete" and exists:
            session.delete_file(path)
        elif op == "rename" and exists:
            target = PATHS[(PATHS.index(path) + 1) % len(PATHS)]
            if not session.folder.exists(target):
                session.folder.rename(path, target)
        elif op == "advance":
            session.advance(float(arg) / 4.0)


def check_invariants(session: SyncSession) -> None:
    session.run_until_idle()
    # 1. Convergence: cloud head state == folder state.
    for path in PATHS:
        if session.folder.exists(path):
            assert session.server.download_content("user1", path)[0].data == \
                session.folder.get(path).data, path
        else:
            with pytest.raises(NotFound):
                session.server.download_content("user1", path)
    # 2. Meter sanity.
    meter = session.meter
    assert meter.payload_bytes >= 0
    assert meter.payload_bytes + meter.overhead_bytes == meter.total_bytes
    # 3. Version monotonicity.
    namespace = session.server.metadata._namespaces.get("user1", {})
    for entry in namespace.values():
        numbers = [version.version for version in entry.versions]
        assert numbers == sorted(numbers)
        assert len(set(numbers)) == len(numbers)
    # 4. Dedup index consistency.
    index = session.server.dedup._index
    assert len(set(index.keys())) == len(index)


@pytest.mark.parametrize("service", SERVICES)
@given(ops=op_strategy)
# Shrunk counterexample (committed on failure): a synced file renamed onto
# a deleted path and then deleted again left the rename *source* alive in
# the cloud — the pending rename was swallowed by the deletion and only
# the final path got a tombstone.
@example(ops=[("create", "a.bin", 0), ("create", "c.bin", 0),
              ("advance", "a.bin", 4), ("delete", "a.bin", 0),
              ("rename", "c.bin", 0), ("delete", "a.bin", 0)])
# Shrunk counterexample: a synced file renamed onto a just-deleted synced
# path, which was then itself renamed away, left the first rename's source
# alive in the cloud — the leftover change at the vacated path was never
# flagged deleted, so the orphaned source got no tombstone.
@example(ops=[("create", "a.bin", 0), ("create", "c.bin", 0),
              ("advance", "a.bin", 2), ("delete", "a.bin", 0),
              ("rename", "c.bin", 0), ("rename", "a.bin", 0)])
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_op_sequences_converge(service, ops):
    session = SyncSession(service, AccessMethod.PC)
    apply_ops(session, ops)
    check_invariants(session)


@given(ops=op_strategy)
@settings(max_examples=10, deadline=None)
def test_tue_at_least_payload_ratio(ops):
    """Total traffic always ≥ up-payload: overhead can't be negative."""
    session = SyncSession("OneDrive", AccessMethod.PC)
    apply_ops(session, ops)
    session.run_until_idle()
    assert session.total_traffic >= session.meter.up.payload


@given(st.data())
@settings(max_examples=10, deadline=None)
def test_interleaved_two_users_never_cross(data):
    """Two users on one cloud: operations never leak across namespaces."""
    from repro.cloud import CloudServer
    from repro.simnet import Simulator
    profile = service_profile("UbuntuOne", AccessMethod.PC)
    sim = Simulator()
    server = CloudServer(dedup=profile.dedup)
    alice = SyncSession(profile, sim=sim, server=server, user="alice")
    bob = SyncSession(profile, sim=sim, server=server, user="bob")
    ops_a = data.draw(op_strategy)
    ops_b = data.draw(op_strategy)
    apply_ops(alice, ops_a)
    apply_ops(bob, ops_b)
    alice.run_until_idle()
    for session, other in ((alice, "bob"), (bob, "alice")):
        for path in PATHS:
            if session.folder.exists(path):
                stored, _ = server.download_content(session.client.user,
                                                    path)
                assert stored.data == session.folder.get(path).data
        # No path of one user is visible under the other unless they made it.
        own_paths = set(server.metadata.list_paths(session.client.user))
        assert own_paths == set(session.folder.paths())


@pytest.mark.parametrize("access", [AccessMethod.WEB, AccessMethod.MOBILE])
@given(ops=op_strategy)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_web_and_mobile_clients_converge(access, ops):
    """The non-PC engines survive the same random op sequences."""
    session = SyncSession("Dropbox", access)
    apply_ops(session, ops)
    check_invariants(session)


@given(ops=op_strategy)
@settings(max_examples=8, deadline=None)
def test_baseline_profiles_converge(ops):
    from repro.client import SYNCTHING_LIKE
    session = SyncSession(SYNCTHING_LIKE)
    apply_ops(session, ops)
    check_invariants(session)
