"""One fleet member: a :class:`~repro.client.SyncSession` plus the follower
half of the folder.

A member *is* a session — the same folder, link, meter, channel and client
engine every single-client experiment measures — whose server is the hub's
origin-tagging proxy over the fleet's shared cloud.  What it adds is the
receiving side: hub notifications land here, get a metered notification
frame immediately, and schedule a fetch one notification delay later.
Downloads are serialised per member, because a device has one network
interface: a fetch that finds the member idle applies at once, inside the
fetch event; one that finds it busy waits in the member's FIFO, which
drains one apply at a time, each starting when the previous download ends.
Each delivery is one retry transaction of the session's engine, under its
:class:`~repro.client.RetryPolicy`, exactly as each upload sync is.  A
delivery whose retries run out is tried again one notification delay after
the give-up, so an outage can delay a follower but never leave it stale.

Remote application never echoes: folder mutations go through the silent
``apply_remote``/``remove_remote``/``rename_remote`` paths and the engine's
synced basis is kept consistent via ``absorb_remote``/``drop_remote``/
``move_remote``, so a download can never masquerade as a local update.

Race resolution (deterministic, documented in DESIGN.md):

* remote **commit** over a local pending edit → the local file moves to a
  :func:`~repro.fleet.shared.conflict_copy_name` conflict copy (whose own
  folder event re-queues the edit for upload) and the remote content takes
  the original path;
* remote **delete** under a local pending edit → the edit wins; the member
  forgets the synced basis so its next sync recreates the file;
* remote **rename** against local pending state → conflict copies for the
  edited source/occupied destination, then the move applies (metadata-only
  when the local bytes already match the server head, a download
  otherwise).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, TYPE_CHECKING

from ..client.profiles import ServiceProfile
from ..client.retry import RetriesExhausted, RetryPolicy
from ..client.session import SyncSession
from ..client.strategies.base import Exchange
from ..cloud import NotFound
from ..delta import compute_delta, compute_signature
from ..simnet import FaultSchedule, LinkSpec
from .shared import FanoutEpoch, SharedFolderHub, conflict_copy_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Union

    from ..obs.recorder import TraceRecorder
    from ..simnet import EventDomain, Simulator

    SimLike = Union[Simulator, EventDomain]

#: Wire framing of the small follower-side metadata exchanges.
_FETCH_META_UP = 300
_RENAME_META_UP, _RENAME_META_DOWN = 240, 160
_DELETE_META_UP, _DELETE_META_DOWN = 200, 150
#: A push notification still crosses the wire as a minimal frame when the
#: profile reports no post-commit notify bytes: a follower can only learn of
#: a commit from something the server sends it.
_NOTIFY_FLOOR = 120


@dataclass
class MemberStats:
    """Counters describing one member's follower behaviour."""

    notifications: int = 0
    fanout_fetches: int = 0
    fanout_renames: int = 0
    suppressed: int = 0
    conflicts: int = 0
    fetch_giveups: int = 0


class FleetMember(SyncSession):
    """A participant in one shared folder."""

    def __init__(
        self,
        hub: SharedFolderHub,
        index: int,
        name: str,
        profile: ServiceProfile,
        link_spec: Optional[LinkSpec] = None,
        seed: int = 0,
        fault_schedule: Optional[FaultSchedule] = None,
        recorder: Optional["TraceRecorder"] = None,
        sim: Optional["SimLike"] = None,
    ):
        # The member's scheduling surface is the fleet-global simulator, or
        # this member's :class:`~repro.simnet.EventDomain` when sharded.
        # Each session binds its own injector to the shared schedule (the
        # same failure windows hit the whole fleet) and its own retry seed.
        super().__init__(
            profile, link_spec=link_spec,
            sim=sim if sim is not None else hub.sim,
            server=hub.proxy_for(name), user=hub.user,
            retry=RetryPolicy(seed=seed * 1_000_003 + index),
            faults=fault_schedule, recorder=recorder)
        self.hub = hub
        self.index = index
        self.name = name

        self.stats = MemberStats()
        #: path → newest version this member has locally applied or
        #: originated; the follower's re-download suppression state.
        self._versions: Dict[str, int] = {}
        #: When the member's current download ends; a fetch before then
        #: waits in :attr:`_queue`.
        self._idle_at = 0.0
        #: Deliveries waiting for the interface, oldest first, while a
        #: drain is scheduled at :attr:`_idle_at`; ``None`` otherwise, so
        #: an idle member holds no queue object.
        self._queue: Optional[Deque[FanoutEpoch]] = None
        hub.register(self)

    # -- origin bookkeeping --------------------------------------------------

    def note_own_commit(self, entry: FanoutEpoch) -> None:
        """Record versions this member itself just pushed (no self-echo)."""
        self._versions[entry.path] = max(
            self._versions.get(entry.path, 0), entry.version)
        if entry.old_path is not None:
            self._versions[entry.old_path] = max(
                self._versions.get(entry.old_path, 0), entry.old_version)

    # -- notification intake -------------------------------------------------

    def receive_notification(self, entry: FanoutEpoch) -> None:
        """The server pushes a notification frame at commit time."""
        self.stats.notifications += 1
        down = self.meter.down
        before = down.total
        self.client.channel.notify(max(self.profile.overhead.notify_down,
                                _NOTIFY_FLOOR))
        down_bytes = down.total - before
        entry.pushed_bytes += down_bytes
        if self.recorder is not None:
            now = self.sim.now
            self.recorder.record_span(
                "fanout-notification", "notify", f"fleet:{self.name}",
                now, now, epoch=entry.epoch, origin=entry.origin,
                path=entry.path, member=self.name, down_bytes=down_bytes)
        self.sim.schedule(self.hub.notification_delay,
                          self._fetch_entry, entry)

    def _fetch_entry(self, entry: FanoutEpoch) -> None:
        """Apply ``entry`` now if the member is idle; otherwise queue it
        behind the deliveries already waiting for the interface."""
        if self._queue is not None:
            self._queue.append(entry)
        elif self.sim.now < self._idle_at:
            self._queue = deque((entry,))
            self.sim.schedule_at(self._idle_at, self._drain)
        else:
            self._apply_entry(entry)

    def _drain(self) -> None:
        """The previous download just ended: apply queued deliveries in
        arrival order until one occupies the interface again."""
        queue = self._queue
        while queue:
            self._apply_entry(queue.popleft())
            if queue and self.sim.now < self._idle_at:
                self.sim.schedule_at(self._idle_at, self._drain)
                return
        self._queue = None

    def _apply_entry(self, entry: FanoutEpoch) -> None:
        up, down = self.meter.up, self.meter.down
        up_before = up.total
        down_before = down.total
        self.client.retry_state.begin_transaction()
        try:
            applied, duration = self._apply(entry)
        except RetriesExhausted as error:
            down_bytes = down.total - down_before
            entry.pushed_bytes += down_bytes
            self._give_up(error, down_bytes, entry)
            return
        down_bytes = down.total - down_before
        entry.pushed_bytes += down_bytes
        if not applied:
            self.stats.suppressed += 1
            return
        entry.deliveries += 1
        self.stats.fanout_fetches += 1
        if self.recorder is not None:
            now = self.sim.now
            self.recorder.record_span(
                "fanout-notification", "fetch", f"fleet:{self.name}",
                now, now + duration, epoch=entry.epoch, origin=entry.origin,
                path=entry.path, member=self.name, down_bytes=down_bytes,
                up_bytes=up.total - up_before)
        self._idle_at = self.sim.now + duration

    def _give_up(self, error: RetriesExhausted, down_bytes: int,
                 entry: FanoutEpoch) -> None:
        """A delivery ran out of retries; whatever its attempts burned is
        already metered.  A notification is one-shot, so the member fetches
        ``entry`` again one notification delay after the give-up's wire
        time: otherwise an outage could leave it stale until some later
        commit to the path, and the fleet diverged."""
        self.stats.fetch_giveups += 1
        if self.recorder is not None:
            now = self.sim.now
            self.recorder.record_span(
                "fanout-notification", "give-up", f"fleet:{self.name}",
                now, now, member=self.name, down_bytes=down_bytes,
                error=str(error), epoch=entry.epoch, origin=entry.origin,
                path=entry.path)
        wire_now = self.client.channel.effective_now()
        self.sim.schedule(wire_now - self.sim.now + self.hub.notification_delay,
                          self._fetch_entry, entry)

    # -- remote-change application -------------------------------------------

    def _apply(self, entry: FanoutEpoch):
        if entry.kind == "delete":
            return self._apply_delete(entry)
        if entry.kind == "rename":
            return self._apply_rename(entry)
        return self._apply_commit(entry)

    def _apply_commit(self, entry: FanoutEpoch):
        path = entry.path
        if self._versions.get(path, 0) >= entry.version:
            return False, 0.0
        if self.client.has_pending(path):
            if self.folder.exists(path):
                self._conflict_copy(path, entry, "write-write")
            else:
                # Local pending delete races a remote write: the write wins
                # (the deletion never reached the cloud).
                self.client.discard_pending(path)
                self._note_conflict(entry, "delete-write", path, None)
        return True, self._download(path, entry.version, entry.epoch)

    def _apply_delete(self, entry: FanoutEpoch):
        path = entry.path
        if self._versions.get(path, 0) >= entry.version:
            return False, 0.0
        self._versions[path] = entry.version
        if self.client.has_pending(path) and self.folder.exists(path):
            # Local edit wins over the remote delete: keep the file and its
            # pending upload; the recommit fans the content back out.
            self.client.drop_remote(path)
            self._note_conflict(entry, "delete-edit", path, None)
            return True, 0.0
        self.client.discard_pending(path)
        self.folder.remove_remote(path)
        self.client.drop_remote(path)
        return True, self.client.guarded_exchange(Exchange(
            "delete-sync", up_meta=_DELETE_META_UP,
            down_meta=_DELETE_META_DOWN))

    def _apply_rename(self, entry: FanoutEpoch):
        old, new = entry.old_path, entry.path
        assert old is not None
        changed = False
        duration = 0.0
        if self._versions.get(new, 0) < entry.version:
            if self.client.has_pending(new) and self.folder.exists(new):
                self._conflict_copy(new, entry, "rename-write")
            if self.client.has_pending(old):
                if self.folder.exists(old):
                    # A local edit of the moved file becomes a conflict
                    # copy; the rename itself then applies cleanly.
                    self._conflict_copy(old, entry, "rename-edit")
                else:
                    self.client.discard_pending(old)
                self.client.drop_remote(old)
            head = self.hub.server.head_version(self.hub.user, new)
            if (head is not None and not head.deleted
                    and self.folder.exists(old)
                    and self.folder.get(old).md5 == head.md5):
                # The local bytes are already the server head: apply the
                # move as pure metadata, mirroring the origin's exchange.
                self.folder.rename_remote(old, new)
                self.client.move_remote(old, new)
                duration += self.client.guarded_exchange(Exchange(
                    "fanout-rename", up_meta=_RENAME_META_UP,
                    down_meta=_RENAME_META_DOWN))
                self._versions[new] = max(entry.version, head.version)
                self.stats.fanout_renames += 1
            else:
                duration += self._download(new, entry.version, entry.epoch)
            changed = True
        # The vacated path's tombstone may still need applying locally even
        # when the destination was already up to date.
        if self._versions.get(old, 0) < entry.old_version:
            self._versions[old] = entry.old_version
            if self.folder.exists(old) and not self.client.has_pending(old):
                self.folder.remove_remote(old)
                self.client.drop_remote(old)
                changed = True
        return changed, duration

    def _download(self, path: str, version: int, epoch: int) -> float:
        """Bring ``path`` to the server head, delta-encoded when possible."""
        try:
            content, delivered = self.hub.server.download_content(
                self.hub.user, path)
        except NotFound:
            # Tombstoned between commit and fetch: the deletion's own epoch
            # removes the local copy, so only suppress this version.
            self._versions[path] = max(self._versions.get(path, 0), version)
            return 0.0
        old = self.folder.get(path) if self.folder.exists(path) else None
        as_delta = self.profile.uses_ids and old is not None and old.size > 0
        compression = self.profile.download_compression
        if as_delta:
            signature = compute_signature(old.data, self.profile.delta_block)
            wire = compression.delta_wire_size(
                compute_delta(signature, content.data))
        else:
            wire = compression.wire_size(content)
        duration = self.client.guarded_exchange(Exchange(
            "fanout-delta" if as_delta else "fanout-download",
            up_meta=_FETCH_META_UP, down_payload=wire,
            down_meta=self.profile.overhead.meta_down // 2))
        self.folder.apply_remote(path, content)
        self.client.absorb_remote(path, content)
        # The download delivered the server head, which may already be
        # newer than the notified version (two commits inside one
        # notification delay).  Recording the head lets this one download
        # serve both commits; a later commit has a higher version and its
        # own notification, so nothing newer is ever skipped.
        self._versions[path] = max(version, delivered)
        return duration

    # -- conflict copies -----------------------------------------------------

    def _conflict_copy(self, path: str, entry: FanoutEpoch,
                       flavor: str) -> None:
        """Move the locally-edited file aside under a deterministic name.

        The rename's own folder event re-queues the local edit (the engine
        carries the pending state to the conflict path), and discarding the
        original path's pending entry hands that path to the remote
        content.
        """
        conflict_path = conflict_copy_name(path, self.name,
                                           self.folder.exists)
        self.folder.rename(path, conflict_path)
        self.client.discard_pending(path)
        self._note_conflict(entry, flavor, path, conflict_path)

    def _note_conflict(self, entry: FanoutEpoch, flavor: str, path: str,
                       conflict_path: Optional[str]) -> None:
        self.stats.conflicts += 1
        if self.recorder is not None:
            now = self.sim.now
            self.recorder.record_span(
                "conflict-resolved", flavor, f"fleet:{self.name}", now, now,
                epoch=entry.epoch, origin=entry.origin, path=path,
                conflict_path=conflict_path, member=self.name)
