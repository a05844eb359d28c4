"""One fleet member: a full SyncClient plus the follower half of the folder.

Each member owns the same rig a :class:`~repro.client.SyncSession` would
assemble — folder, link, meter, channel, client engine —
but its engine talks to the cloud through the hub's origin-tagging proxy,
and the member additionally *receives*: hub notifications land here, get a
metered notification frame immediately, and schedule a download one
notification delay later (serialised per member: a device has one network
interface).

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

import random
from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from ..client.engine import SyncClient
from ..client.hardware import M1, MachineProfile
from ..client.profiles import ServiceProfile
from ..client.retry import RetryPolicy
from ..cloud import NotFound, TransientError
from ..content import Content
from ..delta import compute_delta, compute_signature
from ..fsim import SyncFolder
from ..simnet import (
    FaultInjector,
    FaultSchedule,
    Link,
    LinkSpec,
    TrafficMeter,
    TransferInterrupted,
    mn_link,
)
from .shared import EPOCH_BACKFILL, FanoutEpoch, SharedFolderHub, conflict_copy_name

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
    backfilled: int = 0


class FleetMember:
    """A live participant in one shared folder."""

    #: Follower downloads survive faults with a seeded jittered backoff; a
    #: notification is one-shot, so after this many attempts it gives up
    #: (a later epoch for the path will bring the member back in sync).
    MAX_FETCH_ATTEMPTS = 8

    def __init__(
        self,
        hub: SharedFolderHub,
        index: int,
        name: str,
        profile: ServiceProfile,
        machine: MachineProfile = M1,
        link_spec: Optional[LinkSpec] = None,
        seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        fault_schedule: Optional[FaultSchedule] = None,
        recorder: Optional["TraceRecorder"] = None,
        sim: Optional["SimLike"] = None,
    ):
        self.hub = hub
        #: The member's scheduling surface: the fleet-global simulator, or
        #: this member's :class:`~repro.simnet.EventDomain` when sharded.
        self.sim = sim if sim is not None else hub.sim
        self.index = index
        self.name = name
        self.profile = profile
        self.machine = machine
        self.live = True
        self.joined_at = self.sim.now
        self.left_at: Optional[float] = None

        self.link = Link(link_spec or mn_link())
        self.meter = TrafficMeter()
        self.folder = SyncFolder(self.sim)
        self.recorder = recorder
        if recorder is not None:
            recorder.bind_meter(self.meter)
            hub.server.attach_recorder(recorder)
        #: Seed of the per-member fetch-backoff stream; see :attr:`rng`.
        self._rng_seed = seed * 1_000_003 + index
        self._rng: Optional[random.Random] = None
        #: Injectors are stateful, so each member gets its own bound to the
        #: shared schedule; the same failure windows hit the whole fleet.
        self.faults = (FaultInjector(fault_schedule)
                       if fault_schedule is not None else None)
        self.client = SyncClient(
            sim=self.sim, folder=self.folder, server=hub.proxy_for(name),
            profile=profile, machine=machine, link=self.link, meter=self.meter,
            user=hub.user, retry=retry, faults=self.faults, recorder=recorder)
        self.channel = self.client.channel

        self.stats = MemberStats()
        #: path → newest version this member has locally applied or
        #: originated; the follower's re-download suppression state.
        self._versions: Dict[str, int] = {}
        self._busy_until = 0.0
        self._update_bytes = 0
        self.folder.subscribe(self._track_update)
        hub.register(self)

    def _track_update(self, event) -> None:
        self._update_bytes += event.update_bytes

    @property
    def rng(self) -> random.Random:
        """Per-member seeded stream (fetch-backoff jitter): one
        ``random.Random`` per client per REP002, keyed off seed + index.

        Built on first use: only a retried fetch draws from it, so a
        member that never retries holds no Mersenne-Twister state.
        """
        if self._rng is None:
            self._rng = random.Random(self._rng_seed)
        return self._rng

    # -- membership ---------------------------------------------------------

    def leave(self) -> None:
        """Leave the folder: no further notifications, fetches, or uploads."""
        self.live = False
        self.left_at = self.sim.now
        for path in self.client.pending_paths():
            self.client.discard_pending(path)

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
        self.channel.notify(max(self.profile.overhead.notify_down,
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
        if not self.live:
            return
        start = max(self.sim.now, self._busy_until)
        self.sim.schedule_at(start, self._apply_entry, entry)

    def _apply_entry(self, entry: FanoutEpoch) -> None:
        if not self.live:
            return
        up, down = self.meter.up, self.meter.down
        up_before = up.total
        down_before = down.total
        try:
            applied, duration = self._apply(entry)
        except (TransientError, TransferInterrupted) as error:
            # Retries exhausted: whatever the failed attempts burned is on
            # the meter (and in the epoch ledger); a later epoch for this
            # path will re-converge the member.
            self.stats.fetch_giveups += 1
            down_bytes = down.total - down_before
            entry.pushed_bytes += down_bytes
            if self.recorder is not None:
                now = self.sim.now
                self.recorder.record_span(
                    "fanout-notification", "give-up", f"fleet:{self.name}",
                    now, now, epoch=entry.epoch, origin=entry.origin,
                    path=entry.path, member=self.name,
                    down_bytes=down_bytes, error=str(error))
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
        self._busy_until = self.sim.now + duration

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
        duration = self._fanout_exchange(
            up_meta=_DELETE_META_UP, down_meta=_DELETE_META_DOWN,
            kind="delete-sync")
        return True, duration

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
            try:
                head_md5 = self.hub.server.metadata.head(
                    self.hub.user, new).md5
            except NotFound:
                head_md5 = None
            if (head_md5 is not None and self.folder.exists(old)
                    and self.folder.get(old).md5 == head_md5):
                # The local bytes are already the server head: apply the
                # move as pure metadata, mirroring the origin's exchange.
                self.folder.rename_remote(old, new)
                self.client.move_remote(old, new)
                duration += self._fanout_exchange(
                    up_meta=_RENAME_META_UP, down_meta=_RENAME_META_DOWN,
                    kind="fanout-rename")
                self._versions[new] = max(
                    entry.version,
                    self.hub.server.head_version(self.hub.user, new))
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
        server = self.hub.server
        try:
            data = server.download(self.hub.user, path)
        except NotFound:
            # Tombstoned between commit and fetch: the deletion's own epoch
            # removes the local copy, so only suppress this version.
            self._versions[path] = max(self._versions.get(path, 0), version)
            return 0.0
        content = Content(data)
        old = self.folder.get(path) if self.folder.exists(path) else None
        as_delta = self.profile.uses_ids and old is not None and old.size > 0
        if as_delta:
            signature = compute_signature(old.data, self.profile.delta_block)
            delta = compute_delta(signature, content.data)
            literals = b"".join(op.data for op in delta.ops
                                if hasattr(op, "data"))
            wire = (self.profile.download_compression.wire_size(
                Content(literals)) + (delta.wire_size - len(literals)))
        else:
            wire = self.profile.download_compression.wire_size(content)
        duration = self._fanout_exchange(
            up_meta=_FETCH_META_UP, down_payload=wire,
            down_meta=self.profile.overhead.meta_down // 2,
            kind="fanout-delta" if as_delta else "fanout-download")
        self.folder.apply_remote(path, content)
        self.client.absorb_remote(path, content)
        # download() delivered the server head, which may already be newer
        # than the notified version (two commits inside one notification
        # delay).  Recording the head lets this one download serve both
        # commits; a later commit has a higher version and its own
        # notification, so nothing newer is ever skipped.
        self._versions[path] = max(
            version, server.head_version(self.hub.user, path))
        return duration

    def _fanout_exchange(self, kind: str = "fanout-download",
                         **kwargs) -> float:
        """One follower-side exchange, retried under a seeded backoff."""
        duration = 0.0
        attempt = 0
        while True:
            try:
                self.hub.server.check_available(self.channel.effective_now())
                return duration + self.channel.exchange(kind=kind, **kwargs)
            except (TransientError, TransferInterrupted) as error:
                if isinstance(error, TransientError):
                    # A rejected request still burns its framing.
                    error.elapsed = self.channel.error_exchange(
                        kind=kind + "-rejected")
                attempt += 1
                if attempt >= self.MAX_FETCH_ATTEMPTS:
                    raise
                wait = min(0.5 * (2 ** (attempt - 1)), 20.0) \
                    * (0.75 + 0.5 * self.rng.random())
                retry_at = getattr(error, "retry_at", None)
                if retry_at is not None:
                    wait = max(wait, retry_at - self.channel.effective_now())
                if self.recorder is not None:
                    at = self.channel.effective_now()
                    self.recorder.record_span(
                        "retry-attempt", type(error).__name__,
                        f"fleet:{self.name}", at, at + wait,
                        attempt=attempt, wait=wait, error=str(error))
                self.channel.wait(wait)
                duration += getattr(error, "elapsed", 0.0) + wait

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

    # -- join-time catch-up ----------------------------------------------------

    def backfill(self) -> None:
        """Download every live shared path (a client joining mid-run)."""
        server = self.hub.server
        down = self.meter.down
        total = 0.0
        for path in server.metadata.list_paths(self.hub.user):
            before = down.total
            head = server.head_version(self.hub.user, path)
            try:
                total += self._download(path, head, EPOCH_BACKFILL)
            except (TransientError, TransferInterrupted) as error:
                self.stats.fetch_giveups += 1
                if self.recorder is not None:
                    now = self.sim.now
                    self.recorder.record_span(
                        "fanout-notification", "give-up",
                        f"fleet:{self.name}", now, now,
                        epoch=EPOCH_BACKFILL, path=path, member=self.name,
                        down_bytes=down.total - before, error=str(error))
                continue
            self.stats.backfilled += 1
            if self.recorder is not None:
                now = self.sim.now
                self.recorder.record_span(
                    "fanout-notification", "backfill", f"fleet:{self.name}",
                    now, now, epoch=EPOCH_BACKFILL, path=path,
                    member=self.name, down_bytes=down.total - before)
        self._busy_until = self.sim.now + total

    # -- measurement -----------------------------------------------------------

    @property
    def data_update_bytes(self) -> int:
        """This member's accumulated *local* data update size (remote
        applications are silent and never count)."""
        return self._update_bytes

    def traffic_report(self):
        """Per-member :class:`~repro.core.tue.TrafficReport`."""
        from ..core.tue import TrafficReport  # local: core imports client

        return TrafficReport.from_meter(self.meter, self._update_bytes)
