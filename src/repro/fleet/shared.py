"""Shared-folder fan-out: commit interception, epochs, conflict naming.

A shared folder has one server-side namespace (all members sync as one
``user``) and many writers.  Every commit-shaped server call made by any
member passes through an origin-tagging proxy which, besides forwarding to
the real :class:`~repro.cloud.CloudServer`, announces the change to the
:class:`SharedFolderHub`.  The hub opens a **commit epoch** — a ledger entry
naming the origin, the path/version, and the members to notify — then fans
the notification out to every member except the origin.  Followers meter
what the fan-out costs them; the ledger accumulates the same bytes on the
server side, which is exactly what the ``fanout-conservation`` audit
invariant balances.

Write-write races resolve as deterministic Dropbox-style conflict copies:
``name (conflicted copy of <client>)`` (see :func:`conflict_copy_name`),
while path metadata stays last-writer-wins through the server's append-only
version log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TYPE_CHECKING, Tuple

from ..cloud import CloudServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simnet import Simulator
    from .member import FleetMember

def conflict_copy_name(path: str, member: str,
                       exists: Callable[[str], bool]) -> str:
    """Deterministic Dropbox-style conflict-copy name for ``path``.

    ``"w0/doc.bin"`` conflicted on ``client2`` becomes
    ``"w0/doc (conflicted copy of client2).bin"``; collisions append a
    counter (`` 2``, `` 3``, ...) until the name is free locally.
    """
    directory, sep, filename = path.rpartition("/")
    stem, dot, ext = filename.rpartition(".")
    if not dot or not stem:
        # Extensionless files, and dotfiles whose only dot leads the name:
        # ".gitignore" splits to an empty stem, but the lone leading dot
        # *is* the stem — the marker goes at the end, no extension
        # re-attached (otherwise the copy would be named
        # " (conflicted copy of ...).gitignore").
        stem, suffix = filename, ""
    else:
        suffix = f".{ext}"
    base = f"{directory}{sep}{stem} (conflicted copy of {member})"
    candidate = base + suffix
    counter = 2
    while exists(candidate):
        candidate = f"{base} {counter}{suffix}"
        counter += 1
    return candidate


@dataclass
class FanoutEpoch:
    """One committed change and its fan-out accounting.

    ``pushed_bytes`` accumulates the down-direction bytes the server pushed
    for this epoch — the notification frames plus every follower download
    (including failed attempts, whose bytes are just as real).  The same
    bytes are recorded on the follower side as ``fanout-notification`` span
    attributes, and the audit requires the two views to agree.
    """

    epoch: int
    origin: str
    path: str
    version: int
    kind: str                    # "commit" | "delete" | "rename"
    committed_at: float
    targets: Tuple[str, ...]     # every member but the origin
    old_path: Optional[str] = None   # renames: the vacated path
    old_version: int = 0             # renames: the old path's tombstone
    pushed_bytes: int = 0
    deliveries: int = 0


class SharedFolderHub:
    """Fan-out of one shared folder's commits to its members.

    Members register in index order and are notified in that order on every
    announce — a plain list walk, never set/dict iteration, so the event
    interleaving (and therefore every byte count) is a pure function of the
    seed.
    """

    def __init__(self, sim: "Simulator", server: CloudServer,
                 notification_delay: float = 0.2):
        self.sim = sim
        self.server = server
        #: The one server-side namespace every member syncs as.
        self.user = "shared"
        self.notification_delay = notification_delay
        self.members: List["FleetMember"] = []
        self._by_name: Dict[str, "FleetMember"] = {}
        self.ledger: List[FanoutEpoch] = []

    def register(self, member: "FleetMember") -> None:
        if member.name in self._by_name:
            raise ValueError(f"duplicate fleet member name {member.name!r}")
        self.members.append(member)
        self._by_name[member.name] = member

    def proxy_for(self, origin: str) -> "_OriginTaggingProxy":
        """The server handle a member's SyncClient should talk to."""
        return _OriginTaggingProxy(self.server, self, origin)

    def announce(self, origin: str, path: str, version: int, kind: str,
                 old_path: Optional[str] = None,
                 old_version: int = 0) -> FanoutEpoch:
        """Open a commit epoch and notify every member but the origin."""
        targets = [member for member in self.members
                   if member.name != origin]
        entry = FanoutEpoch(
            epoch=len(self.ledger), origin=origin, path=path, version=version,
            kind=kind, committed_at=self.sim.now,
            targets=tuple(member.name for member in targets),
            old_path=old_path, old_version=old_version)
        self.ledger.append(entry)
        origin_member = self._by_name.get(origin)
        if origin_member is not None:
            # Self-echo suppression: the origin already holds this version.
            origin_member.note_own_commit(entry)
        for member in targets:
            member.receive_notification(entry)
        return entry


class _OriginTaggingProxy:
    """Duck-typed :class:`CloudServer` handed to one member's SyncClient.

    Forwards the whole sync-session API; the four commit-shaped calls
    additionally announce the change to the hub tagged with the member that
    made it, which is what turns a private namespace into a shared folder.
    """

    def __init__(self, server: CloudServer, hub: SharedFolderHub, origin: str):
        self._server = server
        self._hub = hub
        self._origin = origin

    # -- pass-through (no fan-out) ----------------------------------------

    def attach_faults(self, injector) -> None:
        self._server.attach_faults(injector)

    def attach_recorder(self, recorder) -> None:
        self._server.attach_recorder(recorder)

    def set_time(self, now: float) -> None:
        self._server.set_time(now)

    def check_available(self, now=None) -> None:
        self._server.check_available(now)

    def negotiate(self, user, digests):
        return self._server.negotiate(user, digests)

    def resolve(self, user, digest):
        return self._server.resolve(user, digest)

    def upload_chunk(self, user, digest, data):
        return self._server.upload_chunk(user, digest, data)

    def download_content(self, user, path):
        return self._server.download_content(user, path)

    # -- commit-shaped calls (announced) ----------------------------------

    def commit(self, user, path, size, md5, chunk_digests, chunk_keys,
               stored_sizes):
        version = self._server.commit(user, path, size, md5, chunk_digests,
                                      chunk_keys, stored_sizes)
        self._hub.announce(self._origin, path, version.version, "commit")
        return version

    def apply_delta(self, user, path, delta, expected_md5, basis_md5):
        version = self._server.apply_delta(user, path, delta, expected_md5,
                                           basis_md5)
        self._hub.announce(self._origin, path, version.version, "commit")
        return version

    def delete_file(self, user, path):
        version = self._server.delete_file(user, path)
        self._hub.announce(self._origin, path, version.version, "delete")
        return version

    def rename_file(self, user, old_path, new_path):
        version = self._server.rename_file(user, old_path, new_path)
        tombstone = self._server.head_version(user, old_path)
        self._hub.announce(self._origin, new_path, version.version, "rename",
                           old_path=old_path, old_version=tombstone.version)
        return version
