"""Property-based fleet tests: random multi-writer interleavings converge.

Whatever interleaving of writes, renames and deletes 2–4 concurrent
writers throw at one shared folder, after the simulation drains:

* every member holds the identical folder state (path → bytes);
* the six byte-conservation invariants hold on every member's recorder;
* the fan-out invariant holds: per commit epoch, server bytes pushed equal
  the sum of follower bytes received.

Operations are generated blind (they may target missing paths); each
scheduled op checks applicability at its own fire time, so
the *interleaving* — not the generator — decides what races occur.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.content import random_content
from repro.fleet import Fleet
from repro.units import KB

PATHS = ("a.bin", "b.bin", "c.bin")
SERVICES = ("GoogleDrive", "Dropbox")

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "rename", "delete"]),
        st.integers(min_value=0, max_value=3),     # acting member index
        st.sampled_from(PATHS),
        st.integers(min_value=1, max_value=24),    # size in KB / spacing
    ),
    min_size=1, max_size=14,
)


def schedule_ops(fleet, ops):
    """Schedule each op at a staggered time; applicability is checked when
    the op fires, so races come from the interleaving itself."""

    def fire(op, member_index, path, arg, index):
        member = fleet.members[member_index % len(fleet.members)]
        if op == "write":
            if member.folder.exists(path):
                member.folder.write(path,
                                    random_content(arg * KB, seed=index))
            else:
                member.folder.create(path,
                                     random_content(arg * KB, seed=index))
        elif op == "delete":
            if member.folder.exists(path):
                member.folder.delete(path)
        elif op == "rename":
            target = PATHS[(PATHS.index(path) + 1) % len(PATHS)]
            if member.folder.exists(path) \
                    and not member.folder.exists(target):
                member.folder.rename(path, target)

    for index, (op, member_index, path, arg) in enumerate(ops):
        fleet.sim.schedule_at(1.0 + index * float(arg),
                              fire, op, member_index, path, arg, index)


#: Two members move ``c.bin`` onto ``a.bin`` in one window: the second
#: move finds its source already tombstoned by the first.
CONCURRENT_RENAMES = [("write", 0, "a.bin", 1), ("write", 0, "c.bin", 1),
                      ("rename", 0, "a.bin", 1), ("rename", 0, "c.bin", 2),
                      ("rename", 1, "c.bin", 2)]

#: Eleven 1 KB writes, then a 12 KB one: the last op lands while one IDS
#: member's delta is cut against a basis the other has replaced (a write)
#: or tombstoned (a rename).
_WRITES = [("write", 0, "a.bin", 1)] * 11 + [("write", 0, "a.bin", 12)]
STALE_BASIS_RENAME = _WRITES + [("rename", 1, "a.bin", 11)]
STALE_BASIS_WRITE = _WRITES + [("write", 1, "a.bin", 11)]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(service="GoogleDrive", writers=2, seed=0, ops=CONCURRENT_RENAMES)
@example(service="Dropbox", writers=2, seed=0, ops=STALE_BASIS_RENAME)
@example(service="Dropbox", writers=2, seed=0, ops=STALE_BASIS_WRITE)
@given(service=st.sampled_from(SERVICES),
       writers=st.integers(min_value=2, max_value=4),
       seed=st.integers(min_value=0, max_value=2 ** 16),
       ops=op_strategy)
def test_random_interleavings_converge(service, writers, seed, ops):
    fleet = Fleet(service, clients=writers, seed=seed, record=True)
    schedule_ops(fleet, ops)
    fleet.run_until_idle()
    assert fleet.converged(), (
        "members diverged:\n" + "\n".join(
            f"  {member.name}: {sorted(member.folder.paths())}"
            for member in fleet.members))
    # Byte conservation on every member, plus the fan-out balance.
    fleet.audit()


def test_a_rename_whose_source_another_member_moved_still_converges():
    """The losing move uploads its content to the target instead of
    raising ``NotFound`` out of the event loop."""
    fleet = Fleet("GoogleDrive", clients=2, seed=0, record=True)
    schedule_ops(fleet, CONCURRENT_RENAMES)
    fleet.run_until_idle()
    assert fleet.converged()
    assert "c.bin" not in fleet.members[0].folder.paths()
    fleet.audit()


def test_a_delta_whose_basis_another_member_replaced_ships_whole():
    """The server refuses a delta cut against a basis another member has
    replaced or tombstoned; the member ships its version whole instead of
    raising out of the event loop, and ends where a non-IDS fleet does."""
    for ops in (STALE_BASIS_RENAME, STALE_BASIS_WRITE):
        folders = {}
        for service in ("Dropbox", "GoogleDrive"):
            fleet = Fleet(service, clients=2, seed=0, record=True)
            schedule_ops(fleet, ops)
            fleet.run_until_idle()
            assert fleet.converged()
            fleet.audit()
            folder = fleet.members[0].folder
            folders[service] = {path: folder.get(path).md5
                                for path in folder.paths()}
        assert folders["Dropbox"] == folders["GoogleDrive"]
