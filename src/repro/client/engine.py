"""The event-driven sync client engine.

This is the client half of a cloud storage service.  It watches a
:class:`~repro.fsim.SyncFolder`, batches pending changes according to the
paper's two *natural batching* conditions (§6.2) plus the profile's defer
policy (§6.1), and pushes updates to a :class:`~repro.cloud.CloudServer`
over a metered :class:`~repro.simnet.Channel`:

* **Condition 1** — a new modification is synced only after the previous
  sync transaction has completely finished;
* **Condition 2** — ... and only after the client has finished computing the
  modified file's metadata (time modelled by the machine profile).

The upload pipeline per file follows the profile's design choices:
dedup negotiation (fingerprints first, content only for misses), rsync delta
for IDS profiles, compression of whatever goes on the wire, and full-file or
chunked transfer for the rest.  All bytes are metered with a payload/overhead
split so TUE and the paper's overhead analyses fall out directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from ..chunking import Chunk, chunk_data
from ..cloud import CloudServer, NotFound, QuotaExceeded, TransientError
from ..cloud.errors import StaleBasis
from ..content import Content
from ..fsim import FileEvent, FileOp, SyncFolder
from ..simnet import (
    Channel,
    FaultInjector,
    Link,
    Simulator,
    TrafficMeter,
    TransferInterrupted,
)
from .defer import DeferPolicy, DeferState
from .hardware import M1, MachineProfile
from .profiles import BdsMode, ServiceProfile
from .retry import RetriesExhausted, RetryPolicy, RetryState
from .strategies.base import (Exchange, FileRecord, SyncStrategy,
                              TransferTally, payload_exchange)
from .strategies.delta import FIXED_DELTA
from .strategies.fullfile import FULL_FILE

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..obs.recorder import TraceRecorder

#: Negotiation wire cost per fingerprint (hex digest + framing).
_NEG_UP_PER_UNIT = 40
_NEG_DOWN_PER_UNIT = 10
_NEG_BASE_UP = 120
_NEG_BASE_DOWN = 60
#: Small metadata exchange for a deletion (attribute change only, §4.2).
_DELETE_META_UP = 420
_DELETE_META_DOWN = 260
#: Auxiliary request/response some protocols issue around a sync.
_POLL = Exchange("poll", up_meta=250, down_meta=250)


@dataclass
class PendingChange:
    """Accumulated not-yet-synced state of one path."""

    path: str
    created: bool = False
    deleted: bool = False
    ops: int = 0
    update_bytes: int = 0
    first_time: float = math.inf
    renamed_from: Optional[str] = None


class StagedFile(NamedTuple):
    """One file whose storage units are in the cloud, ready to commit."""

    content: Content
    digests: List[str]
    keys: List[str]
    sizes: List[int]
    #: Wire (compressed) size of each unit that had to be uploaded.
    unit_wires: List[int]


@dataclass
class SyncRecord:
    """One completed sync transaction (for probes and tests)."""

    start: float
    end: float
    paths: List[str]
    up_payload: int
    total_bytes: int
    ops_batched: int


@dataclass
class ClientStats:
    """Counters describing how the client behaved."""

    events_seen: int = 0
    sync_transactions: int = 0
    files_synced: int = 0
    deletions_synced: int = 0
    renames_synced: int = 0
    full_file_syncs: int = 0
    delta_syncs: int = 0
    cdc_delta_syncs: int = 0
    recon_syncs: int = 0
    dedup_skipped_units: int = 0
    dedup_skipped_bytes: int = 0
    failed_syncs: int = 0
    transient_errors: int = 0
    retries: int = 0
    retry_giveups: int = 0
    #: Full-BDS commits (``bundle-commit``) and the files they carried.
    bundle_commits: int = 0
    bundled_files: int = 0
    batch_sizes: List[int] = field(default_factory=list)
    ops_per_sync: List[int] = field(default_factory=list)


class SyncClient:
    """One device running a service's client, bound to a sync folder."""

    def __init__(
        self,
        sim: Simulator,
        folder: SyncFolder,
        server: CloudServer,
        profile: ServiceProfile,
        machine: MachineProfile = M1,
        link: Optional[Link] = None,
        meter: Optional[TrafficMeter] = None,
        user: str = "user",
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        recorder: Optional["TraceRecorder"] = None,
        strategy: Optional[SyncStrategy] = None,
    ):
        if link is None:
            raise ValueError("a Link is required (use simnet.mn_link()/bj_link())")
        self.sim = sim
        self.folder = folder
        self.server = server
        self.profile = profile
        self.machine = machine
        self.link = link
        self.meter = meter or TrafficMeter()
        self.user = user
        self.recorder = recorder
        self.channel = Channel(sim, link, self.meter, profile.protocol,
                               faults=faults, recorder=recorder)
        self.retry = retry
        #: The policy's mutable side: jitter stream and backoff budget.  Each
        #: sync transaction begins a retry transaction on it, and so does
        #: each delivery a fleet follower applies.
        self.retry_state: Optional[RetryState] = (
            retry.make_state() if retry is not None else None)
        self.defer_policy: DeferPolicy = profile.make_defer()
        #: The sync strategy routing every content transfer (see
        #: :mod:`repro.client.strategies`).  The profile-driven default —
        #: byte-identical to the pre-strategy engine — is the IDS delta
        #: strategy for IDS profiles (it resolves to full-file upload
        #: whenever no non-empty synced basis exists) and full-file
        #: upload for the rest.
        self.strategy: SyncStrategy = strategy if strategy is not None else (
            FIXED_DELTA if profile.uses_ids else FULL_FILE)
        #: Live cost ledger of the strategy transfer in flight, if any.
        self._tally: Optional[TransferTally] = None
        #: Cumulative per-strategy cost vectors, recorder-independent so
        #: untraced runs report identical numbers: name -> TransferTally.
        self.strategy_ledger: Dict[str, TransferTally] = {}
        #: path -> record of its synced version, the basis every strategy
        #: reads; and the record of the version in flight, if any.  At 30
        #: attributes a client's instance dict stops sharing its keys and
        #: grows ~1.3 KB (27 now; see DESIGN.md).
        self._records: Dict[str, FileRecord] = {}
        self._in_flight: Optional[FileRecord] = None

        self._pending: Dict[str, PendingChange] = {}
        self._defer_states: Dict[str, DeferState] = {}
        self._ready_at: Dict[str, float] = {}
        self._compute_busy_until = 0.0
        self._uploading = False
        self._wake = None

        self.stats = ClientStats()
        self.history: List[SyncRecord] = []
        #: (time, message) of syncs abandoned on server-side errors.
        self.failures: List[tuple] = []

        folder.subscribe(self._on_event)

    # -- event intake --------------------------------------------------------

    def _on_event(self, event: FileEvent) -> None:
        self.stats.events_seen += 1
        now = self.sim.now
        change = self._pending.get(event.path)
        if change is None:
            change = PendingChange(path=event.path)
            self._pending[event.path] = change
        change.ops += 1
        change.update_bytes += event.update_bytes
        change.first_time = min(change.first_time, now)
        if event.op is FileOp.DELETE:
            change.deleted = True
        elif event.op is FileOp.RENAME:
            change.deleted = False
            if event.old_path in self._records:
                change.renamed_from = event.old_path
                leftover = self._pending.get(event.old_path)
                if leftover is not None and leftover.renamed_from is not None:
                    # The old path had absorbed a not-yet-synced rename and
                    # is now gone locally: flag it deleted so its orphaned
                    # source still gets a tombstone.
                    leftover.deleted = True
            elif event.old_path in self._pending:
                # Renamed before its creation (or an earlier rename) ever
                # synced: carry the original pending state — including any
                # chained rename source — over to the new path.
                original = self._pending.pop(event.old_path)
                self._ready_at.pop(event.old_path, None)
                change.created = original.created
                change.ops += original.ops
                change.update_bytes += original.update_bytes
                change.renamed_from = original.renamed_from
        else:
            change.deleted = False
            if event.op is FileOp.CREATE and event.path not in self._records:
                change.created = True

        state = self._defer_states.get(event.path)
        if state is None:
            state = self.defer_policy.new_state()
            self._defer_states[event.path] = state
        self.defer_policy.on_update(state, now, event.update_bytes)

        # Condition 2: queue the metadata computation for this update.
        start = max(now, self._compute_busy_until)
        done = start + self.machine.metadata_compute_time(event.size)
        self._compute_busy_until = done
        self._ready_at[event.path] = done
        self.sim.schedule(done - now, self._maybe_sync)

    # -- scheduling ----------------------------------------------------------

    def _eligible_time(self, path: str) -> float:
        """Earliest time this path's pending batch may start syncing."""
        ready = self._ready_at.get(path, 0.0)
        state = self._defer_states.get(path)
        eligible = self.defer_policy.eligible_at(state) if state else 0.0
        return max(ready, eligible)

    def _maybe_sync(self) -> None:
        if self._uploading or not self._pending:
            return
        now = self.sim.now
        tolerance = 1e-9
        batch = [
            path for path in self._pending
            if self._eligible_time(path) <= now + tolerance
        ]
        if not batch:
            next_time = min(self._eligible_time(path) for path in self._pending)
            if self._wake is not None:
                self._wake.cancel()
            self._wake = self.sim.schedule(max(next_time - now, 0.0), self._maybe_sync)
            return

        changes = [self._pending.pop(path) for path in batch]
        for path in batch:
            self._ready_at.pop(path, None)
            state = self._defer_states.get(path)
            if state is not None:
                self.defer_policy.on_sync(state, now)
        self._uploading = True
        try:
            duration = self._sync_batch(changes)
        except QuotaExceeded as error:
            # The account is full: the client surfaces the error, keeps the
            # local file, and stops retrying (real clients badge the file).
            self.stats.failed_syncs += 1
            self.failures.append((self.sim.now, str(error)))
            duration = 0.1
            self._note_abandoned(now, duration, error)
        except (RetriesExhausted, TransientError, TransferInterrupted) as error:
            # A transient failure the client could not (or would not) ride
            # out: the sync transaction is abandoned and recorded.  Whatever
            # bytes the failed attempts burned are already on the meter.
            self.stats.failed_syncs += 1
            self.failures.append((self.sim.now, str(error)))
            duration = max(getattr(error, "elapsed", 0.0), 0.1)
            self._note_abandoned(now, duration, error)
        self.sim.schedule(duration, self._sync_done)

    def _note_abandoned(self, start: float, duration: float,
                        error: Exception) -> None:
        if self.recorder is not None:
            self.recorder.record_span(
                "sync-transaction", "abandoned", "client",
                start, start + duration, error=str(error))

    def _sync_done(self) -> None:
        self._uploading = False
        self._maybe_sync()

    # -- remote-change application (shared folders) ---------------------------
    #
    # A fleet follower applies changes that *other* writers committed.  The
    # folder mutation itself goes through SyncFolder.apply_remote() and
    # friends (no event, no echo upload); these methods keep the engine's
    # synced basis — the path's record — consistent with it.

    def has_pending(self, path: str) -> bool:
        """True when the path has local changes not yet synced up."""
        return path in self._pending

    def discard_pending(self, path: str) -> None:
        """Forget a path's pending local state (its changes were moved to a
        conflict copy, whose own folder event re-queues them)."""
        self._pending.pop(path, None)
        self._defer_states.pop(path, None)
        self._ready_at.pop(path, None)

    def absorb_remote(self, path: str, content: Content) -> None:
        """Adopt remotely-delivered content as the path's synced basis."""
        self._records[path] = FileRecord(content)

    def drop_remote(self, path: str) -> None:
        """Forget a path the cloud deleted from under us."""
        self._records.pop(path, None)

    def move_remote(self, old_path: str, new_path: str) -> None:
        """Apply a remote rename to the synced basis (content unchanged)."""
        if old_path in self._records:
            self._records[new_path] = self._records.pop(old_path)

    # -- sync transactions ------------------------------------------------------

    def _sync_batch(self, changes: List[PendingChange]) -> float:
        start = self.sim.now
        before = self.meter.snapshot()
        self.server.set_time(start)
        if self.retry_state is not None:
            self.retry_state.begin_transaction()
        duration = self.machine.sync_processing_time()

        uploads = [c for c in changes if not c.deleted]
        deletions = [c for c in changes if c.deleted]

        # Renames carry server-side move semantics the combined BDS commit
        # does not express; sync them individually first.
        renames = [c for c in uploads if self._is_pure_rename(c)]
        uploads = [c for c in uploads if c not in renames]
        for change in renames:
            duration += self._sync_one(change)

        bds = self.profile.bds
        if bds.mode is BdsMode.FULL:
            combined = [c for c in uploads if self._combinable(c)]
            if len(combined) > 1:
                uploads = [c for c in uploads if c not in combined]
                duration += self._sync_combined(combined)
        overhead = self.profile.overhead
        share_connection = (bds.mode is not BdsMode.NONE
                            or overhead.batch_connection_reuse)
        for index, change in enumerate(uploads):
            if overhead.connection_per_sync and (
                    index == 0 or not share_connection):
                self.channel.drop_connection()
            lightweight = bds.mode is BdsMode.PARTIAL and index > 0
            in_batch = share_connection and index > 0
            duration += self._sync_one(change, lightweight=lightweight,
                                       in_batch=in_batch)
        for change in deletions:
            duration += self._sync_delete(change)

        delta = self.meter.since(before)
        self.stats.sync_transactions += 1
        self.stats.batch_sizes.append(len(changes))
        self.stats.ops_per_sync.append(sum(c.ops for c in changes))
        self.history.append(SyncRecord(
            start=start, end=start + duration, paths=[c.path for c in changes],
            up_payload=delta.up_payload, total_bytes=delta.total,
            ops_batched=sum(c.ops for c in changes)))
        if self.recorder is not None:
            policy = self.defer_policy.describe()
            for change in changes:
                # The defer window: from the change's first event to the
                # moment its batch started syncing.
                self.recorder.record_span(
                    "defer-window", policy, "client",
                    min(change.first_time, start), start,
                    path=change.path, ops=change.ops,
                    update_bytes=change.update_bytes)
            self.recorder.record_span(
                "sync-transaction", "sync", "client", start, start + duration,
                delta=delta, paths=[c.path for c in changes],
                ops=sum(c.ops for c in changes))
        return duration

    # -- resilient transfers ---------------------------------------------------

    def guarded_exchange(self, *requests: Exchange) -> float:
        """Send server-bound exchanges in order under the retry policy.

        Each request checks server availability first (brownout windows
        reject requests before any payload moves), then runs the exchange;
        network faults surface as :class:`TransferInterrupted` from the
        channel itself.  Without a retry policy the first failure
        propagates and the sync transaction is abandoned by
        :meth:`_maybe_sync`.

        Several requests in one call are one chunked payload, and that is
        where ``RetryPolicy.resumable`` matters: a resumable client picks
        up at the failed request, while a restart-from-zero client
        re-sends every payload byte the call already delivered after each
        failure — metered as pure waste via
        :meth:`~repro.simnet.protocol.Channel.resend_wasted`, since the
        server discards the repeated prefix.
        """
        duration = 0.0
        delivered_wire = 0
        for request in requests:
            failures = 0
            while True:
                try:
                    self.server.check_available(self.channel.effective_now())
                    duration += self.channel.exchange(
                        up_payload=request.up_payload,
                        down_payload=request.down_payload, kind=request.kind,
                        up_meta=request.up_meta, down_meta=request.down_meta)
                    break
                except (TransientError, TransferInterrupted) as error:
                    if self.retry is None:
                        raise
                    if isinstance(error, TransientError):
                        # A rejected request still costs its framing on
                        # the wire.
                        error.elapsed = self.channel.error_exchange(
                            kind=request.kind + "-rejected")
                    failures += 1
                    duration += self._recover(error, failures)
                    if not self.retry.resumable and delivered_wire > 0:
                        # Restart from byte zero: the delivered prefix goes
                        # over the wire again, and the server throws it away.
                        duration += self.channel.resend_wasted(
                            delivered_wire, kind=request.kind + "-restart")
            if self._tally is not None:
                self._tally.note(request.up_payload)
            delivered_wire += request.up_payload
        return duration

    def _recover(self, error: Exception, attempt: int) -> float:
        """Absorb one transient failure: back off, or give up.

        Returns the wall-clock cost of the failed attempt plus the backoff
        wait; raises :class:`RetriesExhausted` once the attempt or backoff
        budget is spent.  Honours the service's Retry-After hint when the
        fault window's end is disclosed (waiting less would only burn more
        rejected requests).
        """
        self.stats.transient_errors += 1
        elapsed = getattr(error, "elapsed", 0.0)
        state = self.retry_state
        assert state is not None and self.retry is not None
        if attempt >= self.retry.max_attempts or state.budget_exhausted():
            self.stats.retry_giveups += 1
            if self.recorder is not None:
                at = self.channel.effective_now()
                self.recorder.record_span(
                    "retry-attempt", "give-up", "client", at, at,
                    attempt=attempt, error=str(error))
            raise RetriesExhausted(
                f"gave up after {attempt} attempt(s): {error}") from error
        wait = state.backoff(attempt)
        retry_at = getattr(error, "retry_at", None)
        if retry_at is not None:
            wait = max(wait, retry_at - self.channel.effective_now())
        if self.recorder is not None:
            at = self.channel.effective_now()
            self.recorder.record_span(
                "retry-attempt", type(error).__name__, "client",
                at, at + wait, attempt=attempt, wait=wait, error=str(error))
        self.channel.wait(wait)
        self.stats.retries += 1
        return elapsed + wait

    # -- single-file sync --------------------------------------------------------

    def _is_pure_rename(self, change: PendingChange) -> bool:
        """True when the change ships as a server-side move: its source is
        synced and the old path no longer exists locally.  A recreated
        source means the move would tombstone the new file, so the change
        must upload as content instead."""
        return (change.renamed_from is not None
                and change.renamed_from in self._records
                and not self.folder.exists(change.renamed_from))

    def _sync_one(self, change: PendingChange, lightweight: bool = False,
                  in_batch: bool = False) -> float:
        """Sync one path's pending state; returns wall-clock duration.

        ``lightweight`` marks a non-first file of a partial-BDS batch (tiny
        per-file overhead); ``in_batch`` marks a non-first file of a plain
        multi-file transaction (shared connection, amortised metadata).
        """
        path = change.path
        try:
            content = self.folder.get(path)
        except KeyError:
            return 0.0  # deleted while queued but not flagged; nothing to do

        overhead = self.profile.overhead

        duration = 0.0
        if self._is_pure_rename(change):
            # Metadata-only move: no content crosses the wire (§4.2's
            # attribute-change pattern applies to renames as well).
            duration = self.guarded_exchange(Exchange(
                "rename", up_meta=_DELETE_META_UP,
                down_meta=_DELETE_META_DOWN))
            try:
                self.server.rename_file(self.user, change.renamed_from, path)
            except NotFound:
                # Another member's move tombstoned the source first: upload
                # the content instead and let the conflict rules settle it.
                del self._records[change.renamed_from]
            else:
                self._records[path] = self._records.pop(change.renamed_from)
                self.stats.renames_synced += 1
                if self._records[path].content.md5 == content.md5:
                    self.stats.files_synced += 1
                    if overhead.notify_down:
                        duration += self.channel.notify(overhead.notify_down)
                    return duration
            # Renamed *and* modified, or the move was refused: sync content.

        try:
            spent, record = self._strategy_transfer(
                change, content, lightweight=lightweight, in_batch=in_batch)
        except StaleBasis as error:
            # Another writer replaced or deleted the delta's basis: ship
            # the content whole and let the conflict rules settle it.
            del self._records[path]
            duration += error.elapsed
            spent, record = self._strategy_transfer(
                change, content, lightweight=lightweight, in_batch=in_batch)
        duration += spent

        if overhead.notify_down:
            duration += self.channel.notify(overhead.notify_down)
        self._records[path] = record
        self.stats.files_synced += 1
        return duration

    def _strategy_transfer(self, change: PendingChange, content: Content,
                           lightweight: bool = False, in_batch: bool = False):
        """Run one transfer through the strategy ``self.strategy`` resolves
        to for this change, under a cost tally; returns ``(duration,
        record)``, the in-flight record the caller promotes to the path's
        record once the commit is acknowledged.  A transfer that dies
        promotes nothing: the path keeps the record of its last version.

        Every strategy-routed transfer emits one ``delta-exchange`` span
        carrying its ``(wire_bytes, round_trips, cpu_units)`` cost vector
        plus the payload ledger the strategy-conservation audit balances
        against the named wire exchanges.  The span is emitted even when
        the transfer dies mid-way (quota, exhausted retries): whatever
        the failed attempt already put on the wire stays explained.
        """
        start = self.sim.now
        before = self.meter.snapshot()
        tally = TransferTally()
        previous = self._tally
        self._tally = tally
        self._in_flight = record = FileRecord(content)
        concrete = self.strategy
        spent = 0.0
        try:
            concrete = self.strategy.resolve(self, change, content)
            spent = concrete.transfer(self, change, content,
                                      lightweight=lightweight,
                                      in_batch=in_batch)
            return spent, record
        finally:
            self._tally = previous
            self._in_flight = record.plans = None
            totals = self.strategy_ledger.setdefault(
                concrete.name, TransferTally())
            totals.payload += tally.payload
            totals.exchanges += tally.exchanges
            totals.cpu_units += tally.cpu_units
            if self.recorder is not None:
                delta = self.meter.since(before)
                self.recorder.record_span(
                    "delta-exchange", concrete.name, "client",
                    start, start + spent,
                    strategy=concrete.name, path=change.path,
                    payload=tally.payload,
                    wire_names=list(concrete.wire_names),
                    wire_bytes=delta.up_total + delta.down_total,
                    round_trips=tally.exchanges,
                    cpu_units=tally.cpu_units)

    def charge_cpu(self, units: int) -> None:
        """Charge strategy computation (bytes processed) to the live tally."""
        if self._tally is not None:
            self._tally.charge_cpu(units)

    def _stage_units(self, contents: Sequence[Content]
                     ) -> Tuple[float, List[StagedFile]]:
        """Put every storage unit of ``contents`` in the cloud: chunk, one
        dedup negotiation covering every unit of every file, then upload
        the missing units and resolve the ones the cloud already holds.

        Returns the negotiation's duration and one :class:`StagedFile` per
        content; the caller ships the staged wire bytes and commits.
        """
        profile = self.profile
        unit_size = profile.storage_chunk_size
        # A content that fits one storage unit is that unit, and its
        # fingerprint is the md5 ``Content`` already caches.
        chunked = [
            chunk_data(content.data, unit_size)
            if unit_size and content.size > unit_size
            else [Chunk(0, 0, content.size, content.md5, content.data)]
            for content in contents]
        digests = [unit.digest for units in chunked for unit in units]
        duration = 0.0
        missing = digests
        if profile.dedup.enabled and digests:
            duration = self.guarded_exchange(Exchange(
                "dedup-negotiation",
                up_meta=_NEG_BASE_UP + _NEG_UP_PER_UNIT * len(digests),
                down_meta=_NEG_BASE_DOWN + _NEG_DOWN_PER_UNIT * len(digests)))
            missing = self.server.negotiate(self.user, digests)
        missing_set = set(missing)
        staged = []
        for content, units in zip(contents, chunked):
            keys, sizes, unit_wires = [], [], []
            for unit in units:
                if unit.digest in missing_set:
                    unit_wires.append(profile.upload_compression.wire_size(
                        Content.with_md5(unit.data, unit.digest)))
                    key = self.server.upload_chunk(self.user, unit.digest,
                                                   unit.data)
                    missing_set.discard(unit.digest)
                else:
                    key = self.server.resolve(self.user, unit.digest)
                    self.stats.dedup_skipped_units += 1
                    self.stats.dedup_skipped_bytes += unit.length
                keys.append(key)
                sizes.append(unit.length)
            staged.append(StagedFile(content, [unit.digest for unit in units],
                                     keys, sizes, unit_wires))
        return duration, staged

    def _commit(self, path: str, staged: StagedFile) -> None:
        content = staged.content
        self.server.commit(self.user, path, content.size, content.md5,
                           staged.digests, staged.keys, staged.sizes)

    def _upload_requests(self, unit_wires: Sequence[int],
                         lightweight: bool = False, in_batch: bool = False
                         ) -> Tuple[List[Exchange], List[Exchange]]:
        """``(polls, upload)`` requests of one full-file upload whose units
        weigh ``unit_wires`` on the wire — what :meth:`_upload_full` sends
        and ``FullFileStrategy`` prices."""
        profile = self.profile
        overhead = profile.overhead
        polls: List[Exchange] = []
        if lightweight:
            meta_up = profile.bds.per_file_bytes
            meta_down = max(profile.bds.per_file_bytes // 4, 60)
        elif in_batch:
            fraction = overhead.batch_meta_fraction
            meta_up = int(overhead.meta_up * fraction)
            meta_down = int(overhead.meta_down * fraction)
        else:
            meta_up = overhead.meta_up
            meta_down = overhead.meta_down
            polls = self.poll_requests()
        if self.retry is not None and len(unit_wires) > 1:
            # Chunked transfer under a retry policy goes one unit per
            # request so a fault costs (at most, if resumable) one unit.
            return polls, [
                payload_exchange(overhead, "upload", wire,
                                 meta_up if index == 0 else 0,
                                 meta_down if index == 0 else 0)
                for index, wire in enumerate(unit_wires)]
        return polls, [payload_exchange(overhead, "upload", sum(unit_wires),
                                        meta_up, meta_down)]

    def _upload_full(self, path: str, content: Content,
                     lightweight: bool = False,
                     in_batch: bool = False) -> float:
        """Full-file (possibly chunked) upload with dedup negotiation."""
        duration, (staged,) = self._stage_units([content])
        polls, upload = self._upload_requests(
            staged.unit_wires, lightweight=lightweight, in_batch=in_batch)
        duration += self.guarded_exchange(*polls)
        duration += self.guarded_exchange(*upload)
        self._commit(path, staged)
        return duration

    def _combinable(self, change: PendingChange) -> bool:
        """True when the upload may ride a full-BDS commit: its path still
        exists, the file is within the profile's size cap, and it is not a
        modification the IDS delta path ships cheaper than the whole file.
        """
        try:
            content = self.folder.get(change.path)
        except KeyError:
            return False
        cap = self.profile.bds.max_file_bytes
        if cap is not None and content.size > cap:
            return False
        record = self._records.get(change.path)
        return not (self.profile.uses_ids and not change.created
                    and record is not None and record.content.size > 0)

    def _sync_combined(self, uploads: List[PendingChange]) -> float:
        """Full BDS: one transaction commits the whole batch (Table 7) —
        one packed payload, one commit exchange with a per-file manifest.

        The per-file cost breakdown is preserved as a ledger on the
        ``bundle-commit`` span so the ``bundle-conservation`` audit can
        balance the batch's wire bytes against per-file attribution.
        """
        overhead = self.profile.overhead
        start = self.sim.now
        duration = self.guarded_exchange(*self.poll_requests())
        paths = [change.path for change in uploads]
        spent, staged = self._stage_units(
            [self.folder.get(path) for path in paths])
        duration += spent
        ledger = [[path, sum(file.unit_wires), file.content.size]
                  for path, file in zip(paths, staged)]
        total_payload = sum(wire for _, wire, _ in ledger)
        manifest_bytes = self.profile.bds.per_file_bytes * len(staged)
        duration += self.guarded_exchange(payload_exchange(
            overhead, "bundle-commit", total_payload,
            meta_up=overhead.meta_up + manifest_bytes))
        # Record the ledger as soon as the bytes are on the wire: even if a
        # later per-file commit fails (quota), every batched wire byte stays
        # explained, which is what bundle-conservation checks.
        if self.recorder is not None:
            self.recorder.record_span(
                "bundle-commit", "bundle", "client", start, start + duration,
                files=len(ledger), payload=total_payload, ledger=ledger)
        for path, file in zip(paths, staged):
            self._commit(path, file)
            self._records[path] = FileRecord(file.content)
            self.stats.files_synced += 1
            self.stats.full_file_syncs += 1
            self.stats.bundled_files += 1
        self.stats.bundle_commits += 1
        if overhead.notify_down:
            duration += self.channel.notify(overhead.notify_down)
        return duration

    def _sync_delete(self, change: PendingChange) -> float:
        """Fake deletion: a tiny attribute-change exchange (§4.2)."""
        targets = []
        if change.path in self._records:
            targets.append(change.path)
        if (change.renamed_from is not None
                and change.renamed_from in self._records
                and not self.folder.exists(change.renamed_from)
                and change.renamed_from not in targets):
            # The deleted path had absorbed a not-yet-synced rename: the
            # cloud still knows the content under the old name (and, when
            # the rename landed on a previously-synced path, under both),
            # so every orphaned name gets its own tombstone.
            targets.append(change.renamed_from)
        if not targets:
            return 0.0  # created and deleted before ever reaching the cloud
        duration = 0.0
        for target in targets:
            duration += self.guarded_exchange(Exchange(
                "delete", up_meta=_DELETE_META_UP,
                down_meta=_DELETE_META_DOWN))
            try:
                self.server.delete_file(self.user, target)
            except NotFound:
                pass
            del self._records[target]
            self.stats.deletions_synced += 1
            self.stats.files_synced += 1
            if self.profile.overhead.notify_down:
                duration += self.channel.notify(self.profile.overhead.notify_down)
        return duration

    def poll_requests(self) -> List[Exchange]:
        """The auxiliary polls this service issues ahead of a sync."""
        return [_POLL] * max(self.profile.overhead.requests_per_sync - 1, 0)

    # -- downloads ------------------------------------------------------------

    def download(self, path: str) -> Content:
        """Fetch a file from the cloud, metering the down-stream traffic.

        Used by Experiment 4's download phase (Table 8 "DN" columns).
        """
        overhead = self.profile.overhead
        if overhead.connection_per_sync:
            self.channel.drop_connection()
        content, _ = self.server.download_content(self.user, path)
        wire = self.profile.download_compression.wire_size(content)
        self.guarded_exchange(Exchange(
            "download", up_meta=400, down_payload=wire,
            down_meta=overhead.meta_down
            + int(overhead.per_byte_factor * wire)))
        return content
