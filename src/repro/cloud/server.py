"""The cloud sync service: dedup negotiation, chunk upload, commits, IDS.

:class:`CloudServer` is the server half of a cloud storage service.  It wires
together the RESTful object store, the chunk mid-layer, the metadata server,
the dedup index, and the account registry, and exposes the sync-session API
the client engine drives:

* :meth:`negotiate` — fingerprint exchange (the dedup protocol);
* :meth:`upload_chunk` / :meth:`resolve` — content transfer or dedup hit;
* :meth:`commit` — append a new file version;
* :meth:`apply_delta` — the IDS mid-layer (GET + apply + PUT + DELETE);
* :meth:`apply_cdc_delta` — the same mid-layer for content-defined chunks;
* :meth:`reconcile` / :meth:`apply_reconciled` — two-round set
  reconciliation against a user-wide CDC chunk index;
* :meth:`download_content`, :meth:`delete_file`, :meth:`restore_version`.

Traffic is *not* metered here: bytes cross the wire in the client engine,
which meters them on its :class:`~repro.simnet.meter.TrafficMeter`.  The
server's job is semantics plus server-side cost accounting (REST ops,
stored bytes) used by the §7 tradeoff analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..chunking import cdc_chunks, fingerprint
from ..content import Content
from ..delta import CdcDelta, Delta, apply_cdc_delta as apply_cdc_stream
from ..delta import apply_delta as apply_rsync_delta
from ..simnet.faults import FaultKind
from .accounts import AccountRegistry
from .dedup import DedupConfig, DedupIndex
from .errors import (IntegrityError, NotFound, RateLimited,
                     ServiceUnavailable, StaleBasis)
from .metadata import FileVersion, MetadataServer
from .midlayer import ChunkStore
from .object_store import ObjectStore
from .packshard import PackShardStore


@dataclass
class ServerStats:
    """Server-side cost counters for tradeoff analyses (§7)."""

    chunks_received: int = 0
    bytes_received: int = 0
    dedup_bytes_saved: int = 0
    delta_applications: int = 0
    cdc_delta_applications: int = 0
    reconciliations: int = 0
    commits: int = 0
    requests_rejected: int = 0
    shards_sealed: int = 0
    shard_compactions: int = 0


class CloudServer:
    """Semantics of one cloud storage service's back end."""

    def __init__(
        self,
        dedup: Optional[DedupConfig] = None,
        storage_chunk_size: Optional[int] = None,
        name: str = "cloud",
        backend: str = "chunk",
    ):
        self.name = name
        self.dedup_config = dedup or DedupConfig.none()
        #: None ⇒ whole files are single REST objects; an int ⇒ files are
        #: split into objects of this size (the Cumulus-style mid-layer).
        self.storage_chunk_size = storage_chunk_size
        self.objects = ObjectStore()
        #: Storage backend behind the mid-layer interface: ``"chunk"`` is
        #: one REST object per chunk (Cumulus-style), ``"packshard"`` packs
        #: units into shard containers (see :mod:`repro.cloud.packshard`).
        self.backend = backend
        if backend == "chunk":
            self.chunks = ChunkStore(self.objects)
        elif backend == "packshard":
            self.chunks = PackShardStore(self.objects)
        else:
            raise ValueError(f"unknown storage backend {backend!r}")
        self.metadata = MetadataServer()
        self.accounts = AccountRegistry()
        self.dedup = DedupIndex(self.dedup_config)
        self.stats = ServerStats()
        self.now = 0.0
        #: Optional fault injector (see :mod:`repro.simnet.faults`): during
        #: its SERVER_UNAVAILABLE / RATE_LIMIT windows the front door answers
        #: every request with a transient error instead of serving it.
        self.faults = None
        #: Per-(user, path) CDC digest index cache for set reconciliation,
        #: keyed by the head version's md5 so an unchanged file is never
        #: re-chunked across reconcile calls.
        self._cdc_index_cache: Dict[Tuple[str, str],
                                    Tuple[str, Dict[str, bytes]]] = {}
        #: Open reconciliation sessions: (user, path) -> (ordered digest
        #: manifest from round 1, digest -> bytes the server already holds).
        self._recon_sessions: Dict[Tuple[str, str],
                                   Tuple[List[str], Dict[str, bytes]]] = {}
        #: Optional trace recorder (duck-typed; see :mod:`repro.obs`).
        #: Server events are logical (dedup hits, brownout rejections) and
        #: carry no meter delta — the client side owns the wire.  With
        #: several sessions against one cloud, the last attached recorder
        #: wins; that only re-homes these zero-byte events.
        self.recorder = None

    def set_time(self, now: float) -> None:
        self.now = now
        self.objects.set_time(now)

    # -- availability (fault injection) --------------------------------------

    def attach_faults(self, injector) -> None:
        """Subject this server to a fault injector's brownout windows."""
        self.faults = injector

    def attach_recorder(self, recorder) -> None:
        """Emit dedup-hit / fault-episode trace events to ``recorder``."""
        self.recorder = recorder

    def check_available(self, now: Optional[float] = None) -> None:
        """Raise the transient error matching any brownout active at ``now``.

        Clients call this at the front of every server-bound request with
        their wire-level clock (which advances within a sync transaction);
        it defaults to the server's own coarser notion of time.
        """
        if self.faults is None:
            return
        time = self.now if now is None else now
        episode = self.faults.server_episode(time)
        if episode is None:
            return
        self.faults.note_server_fault(episode)
        self.stats.requests_rejected += 1
        if self.recorder is not None:
            self.recorder.record_span(
                "fault-episode", episode.kind.value, f"server:{self.name}",
                time, episode.end, rejected=True)
        if episode.kind is FaultKind.RATE_LIMIT:
            raise RateLimited(
                f"{self.name}: request budget exhausted until t={episode.end:.3f}s",
                retry_at=episode.end)
        raise ServiceUnavailable(
            f"{self.name}: service brownout until t={episode.end:.3f}s",
            retry_at=episode.end)

    # -- dedup negotiation ---------------------------------------------------

    def negotiate(self, user: str, digests: Sequence[str]) -> List[str]:
        """Return the digests the client must actually upload.

        With dedup disabled this is all of them; otherwise only those missing
        from the index within the configured scope.
        """
        self.accounts.ensure(user)
        missing = []
        for digest in digests:
            if self.dedup.lookup(user, digest) is None:
                missing.append(digest)
        hits = len(digests) - len(missing)
        if hits and self.recorder is not None:
            self.recorder.record_span(
                "dedup-hit", "negotiate", f"server:{self.name}",
                self.now, self.now, units=len(digests), hits=hits, user=user)
        return missing

    def resolve(self, user: str, digest: str) -> Optional[str]:
        """Chunk key for an already-stored digest within scope (no upload)."""
        return self.dedup.lookup(user, digest)

    # -- content transfer ------------------------------------------------------

    def upload_chunk(self, user: str, digest: str, data: bytes) -> str:
        """Receive one chunk, verify its fingerprint, store it, index it."""
        self.accounts.ensure(user)
        if fingerprint(data) != digest:
            raise IntegrityError("uploaded chunk does not match declared digest")
        existing = self.dedup.lookup(user, digest)
        if existing is not None:
            # Client raced a duplicate past negotiation; don't store twice.
            self.stats.dedup_bytes_saved += len(data)
            if self.recorder is not None:
                self.recorder.record_span(
                    "dedup-hit", "upload-race", f"server:{self.name}",
                    self.now, self.now, units=1, hits=1, user=user)
            return existing
        key = self.chunks.store(data, digest)
        self.dedup.register(user, digest, key)
        self.stats.chunks_received += 1
        self.stats.bytes_received += len(data)
        return key

    # -- commits -----------------------------------------------------------

    def commit(
        self,
        user: str,
        path: str,
        size: int,
        md5: str,
        chunk_digests: Sequence[str],
        chunk_keys: Sequence[str],
        stored_sizes: Sequence[int],
    ) -> FileVersion:
        """Append a new head version referencing already-stored chunks."""
        if len(chunk_digests) != len(chunk_keys):
            raise ValueError("digest/key manifests disagree in length")
        for key in chunk_keys:
            if not self.chunks.exists(key):
                raise NotFound(f"commit references missing chunk {key}")
        account = self.accounts.ensure(user)
        previous_size = 0
        try:
            previous_size = self.metadata.head(user, path).size
        except NotFound:
            pass
        account.refund(previous_size)
        account.charge(size)
        version = self.metadata.commit(
            user, path, size, md5,
            list(chunk_digests), list(chunk_keys), list(stored_sizes), self.now)
        self.stats.commits += 1
        # Durability point: a packed-shard backend seals its open buffers
        # here so committed data is always REST-visible; the chunk backend's
        # flush is a no-op (chunks were PUT eagerly).
        self.chunks.flush()
        self._mirror_shard_stats()
        return version

    # -- the IDS mid-layer ---------------------------------------------------

    def _delta_basis(self, user: str, path: str,
                     basis_md5: str) -> FileVersion:
        """The head a delta cut against ``basis_md5`` applies to, or
        :class:`StaleBasis` when another writer replaced or deleted it."""
        try:
            head = self.metadata.head(user, path)
            if head.md5 == basis_md5:
                return head
        except NotFound:
            pass
        raise StaleBasis(f"{user}:{path}: the delta's basis is no longer "
                         f"the head")

    def apply_delta(self, user: str, path: str, delta: Delta,
                    expected_md5: str, basis_md5: str) -> FileVersion:
        """MODIFY transformed into GET + PUT + DELETE (§4.3).

        The client ships only the rsync delta; the mid-layer GETs the old
        content from REST objects, applies the delta, PUTs the new content,
        and DELETEs stale objects.  Every verb lands in
        ``self.objects.ops`` so the REST amplification is measurable.  The
        head must still be the basis the delta was cut against.
        """
        return self._apply_to_basis(user, path, delta, expected_md5, basis_md5)

    def apply_cdc_delta(self, user: str, path: str, cdelta: CdcDelta,
                        expected_md5: str, basis_md5: str) -> FileVersion:
        """Content-defined-chunk variant of :meth:`apply_delta`.

        Same GET + apply + PUT + DELETE shape and basis precondition; the
        stream references byte ranges of the basis (coalesced CDC chunk
        matches) instead of fixed rsync blocks.
        """
        return self._apply_to_basis(user, path, cdelta, expected_md5, basis_md5)

    def _apply_to_basis(self, user: str, path: str,
                        delta: Union[Delta, CdcDelta], expected_md5: str,
                        basis_md5: str) -> FileVersion:
        """GET the basis head, apply ``delta`` with its own codec, check the
        md5, PUT and commit the result, then DELETE the old version's
        objects that no new version references."""
        cdc = isinstance(delta, CdcDelta)
        head = self._delta_basis(user, path, basis_md5)
        old_data = self.chunks.fetch_many(list(head.chunk_keys))  # GETs
        if cdc:
            new_data = apply_cdc_stream(old_data, delta)
        else:
            new_data = apply_rsync_delta(old_data, delta)
        if fingerprint(new_data) != expected_md5:
            raise IntegrityError(f"{'cdc delta' if cdc else 'delta'} "
                                 f"application produced wrong content")
        if cdc:
            self.stats.cdc_delta_applications += 1
        else:
            self.stats.delta_applications += 1

        chunk_size = self.storage_chunk_size or max(len(new_data), 1)
        digests, keys, sizes = self._store_content(user, new_data, chunk_size)
        new_version = self.commit(
            user, path, len(new_data), expected_md5, digests, keys, sizes)
        self._delete_stale(set(head.chunk_keys))
        return new_version

    # -- set reconciliation ---------------------------------------------------

    def reconcile(self, user: str, path: str,
                  digests: Sequence[str]) -> List[str]:
        """Round 1 of set reconciliation: which CDC chunks must be sent?

        The client describes its new content as an ordered manifest of CDC
        chunk digests; the server answers with the subset it cannot supply
        from *any* of the user's live files.  The manifest and the resolved
        server-side bytes are parked in an open session for
        :meth:`apply_reconciled` (round 2).
        """
        self.accounts.ensure(user)
        index = self._user_cdc_index(user)
        known: Dict[str, bytes] = {}
        missing: Dict[str, None] = {}    # ordered set: first-seen order
        for digest in digests:
            if digest in known:
                continue
            data = index.get(digest)
            if data is None:
                missing[digest] = None
            else:
                known[digest] = data
        self._recon_sessions[(user, path)] = (list(digests), known)
        self.stats.reconciliations += 1
        return list(missing)

    def apply_reconciled(self, user: str, path: str,
                         supplied: Dict[str, bytes],
                         expected_md5: str) -> FileVersion:
        """Round 2 of set reconciliation: splice supplied + known chunks.

        Reconstructs the new content in round-1 manifest order from the
        client's supplied chunks plus the server-resident ones, verifies
        the whole-file digest, and commits like :meth:`apply_delta`.
        """
        try:
            manifest, known = self._recon_sessions.pop((user, path))
        except KeyError:
            raise NotFound(f"no open reconciliation for {user}:{path}")
        for digest, data in supplied.items():
            if fingerprint(data) != digest:
                raise IntegrityError(
                    "reconciled chunk does not match declared digest")
        pieces: List[bytes] = []
        for digest in manifest:
            data = known.get(digest)
            if data is None:
                data = supplied.get(digest)
            if data is None:
                raise IntegrityError(
                    f"reconciliation missing chunk {digest} for {path}")
            pieces.append(data)
        new_data = b"".join(pieces)
        if fingerprint(new_data) != expected_md5:
            raise IntegrityError("reconciliation produced wrong content")

        old_keys: set = set()
        try:
            old_keys = set(self.metadata.head(user, path).chunk_keys)
        except NotFound:
            pass
        chunk_size = self.storage_chunk_size or max(len(new_data), 1)
        digests, keys, sizes = self._store_content(user, new_data, chunk_size)
        new_version = self.commit(
            user, path, len(new_data), expected_md5, digests, keys, sizes)
        if old_keys:
            self._delete_stale(old_keys)
        return new_version

    def _user_cdc_index(self, user: str) -> Dict[str, bytes]:
        """Digest -> bytes over the CDC chunks of the user's live heads.

        Rebuilt lazily per path, cached against the head md5 so repeated
        reconciles only re-chunk files that actually changed.
        """
        index: Dict[str, bytes] = {}
        live_paths = set(self.metadata.list_paths(user))
        for cached_key in [key for key in self._cdc_index_cache
                           if key[0] == user and key[1] not in live_paths]:
            del self._cdc_index_cache[cached_key]
        for a_path in sorted(live_paths):
            head = self.metadata.head(user, a_path)
            cached = self._cdc_index_cache.get((user, a_path))
            if cached is not None and cached[0] == head.md5:
                per_file = cached[1]
            else:
                content = self.chunks.fetch_many(list(head.chunk_keys))
                per_file = {chunk.digest: chunk.data
                            for chunk in cdc_chunks(content)}
                self._cdc_index_cache[(user, a_path)] = (head.md5, per_file)
            index.update(per_file)
        return index

    def _store_content(self, user: str, data: bytes, chunk_size: int):
        """Chunk, dedup, and PUT content server-side (mid-layer internals)."""
        digests: List[str] = []
        keys: List[str] = []
        sizes: List[int] = []
        for offset in range(0, max(len(data), 1), chunk_size):
            piece = data[offset:offset + chunk_size]
            digest = fingerprint(piece)
            key = self.dedup.lookup(user, digest)
            if key is None:
                key = self.chunks.store(piece, digest)
                self.dedup.register(user, digest, key)
            digests.append(digest)
            keys.append(key)
            sizes.append(len(piece))
        return digests, keys, sizes

    def _delete_stale(self, candidate_keys: set) -> None:
        live = self.metadata.live_chunk_keys()
        for key in sorted(candidate_keys - live):
            if self.chunks.exists(key):
                self.chunks.delete(key)
        self._mirror_shard_stats()

    def _mirror_shard_stats(self) -> None:
        """Copy backend counters into ServerStats (packshard only)."""
        stats = getattr(self.chunks, "stats", None)
        if stats is not None:
            self.stats.shards_sealed = stats.containers_sealed
            self.stats.shard_compactions = stats.compactions

    # -- reads, deletes, rollback ---------------------------------------------

    def download_content(self, user: str, path: str) -> Tuple[Content, int]:
        """Reassemble the head version's content (GET per chunk) as a
        :class:`Content` that carries the head digest the reassembly was
        checked against, so nothing downstream hashes the bytes again, with
        the number of the version it is."""
        head = self.metadata.head(user, path)
        data = self.chunks.fetch_many(list(head.chunk_keys))
        if head.md5 and data is not head.verified:
            if fingerprint(data) != head.md5:
                raise IntegrityError(
                    f"{user}:{path} failed reassembly digest check")
            if len(head.chunk_keys) == 1:
                # A joined multi-unit copy is a new object every call:
                # remembering it would only pin a second copy of the file.
                # (The memo is no part of the frozen version's value.)
                object.__setattr__(head, "verified", data)
        content = Content.with_md5(data, head.md5) if head.md5 \
            else Content(data)
        return content, head.version

    def head_version(self, user: str, path: str) -> Optional[FileVersion]:
        """The path's newest metadata entry; None if it was never committed.

        Tombstones count: a deletion *is* a newer version for notification
        ordering, so a rename announces its source's tombstone version.
        """
        try:
            return self.metadata.get_entry(user, path).head
        except NotFound:
            return None

    def delete_file(self, user: str, path: str) -> FileVersion:
        """Fake deletion: tombstone the path, retain every stored version."""
        head = self.metadata.head(user, path)
        self.accounts.get(user).refund(head.size)
        return self.metadata.tombstone(user, path, self.now)

    def rename_file(self, user: str, old_path: str, new_path: str) -> FileVersion:
        """Move a file: a metadata-only commit referencing the same chunks.

        No content moves; the old path gets a tombstone (history preserved)
        and the new path's first version points at the existing chunk keys.
        """
        head = self.metadata.head(user, old_path)
        version = self.metadata.commit(
            user, new_path, head.size, head.md5,
            list(head.chunk_digests), list(head.chunk_keys),
            list(head.stored_sizes), self.now)
        self.metadata.tombstone(user, old_path, self.now)
        return version

    def restore_version(self, user: str, path: str, number: int) -> FileVersion:
        """Version rollback — the recovery feature fake deletion enables."""
        target = self.metadata.version(user, path, number)
        if target.deleted:
            raise NotFound(f"version {number} is a tombstone")
        account = self.accounts.ensure(user)
        try:
            account.refund(self.metadata.head(user, path).size)
        except NotFound:
            pass
        account.charge(target.size)
        return self.metadata.commit(
            user, path, target.size, target.md5,
            list(target.chunk_digests), list(target.chunk_keys),
            list(target.stored_sizes), self.now)

    def purge_history(self, user: str, path: str, keep_last: int = 1) -> int:
        """Cap a path's version history, then GC unreferenced chunks."""
        removed_versions = self.metadata.purge_history(user, path, keep_last)
        if removed_versions:
            self.collect_garbage()
        return removed_versions

    def collect_garbage(self) -> int:
        """Remove stored units no version references; returns count.

        Delegates to the backend: the chunk store pays a paginated LIST
        plus one DELETE per dead object, while the packed-shard store
        resolves garbage through its in-memory manifests and reclaims via
        compaction.
        """
        removed = self.chunks.collect_garbage(self.metadata.live_chunk_keys())
        self._mirror_shard_stats()
        return removed
