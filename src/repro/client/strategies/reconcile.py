"""Set reconciliation: trade an extra round trip for near-minimal bytes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from ...content import Content
from .base import Exchange, FileRecord, SyncStrategy, payload_exchange

#: Round-1 sketch framing: a compact digest list up, a hit bitmap down.
SKETCH_BASE_BYTES = 16
SKETCH_PER_DIGEST_BYTES = 8
BITMAP_BASE_BYTES = 16


@dataclass
class _ReconPlan:
    """Client-side picture of one reconciliation before any byte moves."""

    digests: List[str]          #: ordered CDC chunk manifest of the new file
    pieces: Dict[str, bytes]    #: digest -> chunk bytes (first occurrence)
    missing: List[str]          #: chunks the mirrored server index lacks


class SetReconcileStrategy(SyncStrategy):
    """Two-round chunk-set reconciliation against the user's whole cloud.

    Round 1 ships a digest sketch of the new file's CDC chunks
    (``recon-sketch``); the server answers with the subset absent from
    *every* live file the user stores.  Round 2 uploads only those chunks
    (``recon-upload``).  Unlike the delta strategies this needs no synced
    record of the same path, so it works on created files — it wins big
    when a "new" file is mostly a clone of existing content, and loses a
    round trip plus the sketch when content is genuinely fresh.

    Chunking parameters are pinned to the library defaults because the
    server's reconciliation index uses them; the planner mirrors that
    index from the chunk lists of the client's own synced records (exact
    for a single-writer session, which a test pins).  Digests on the wire
    are the hex of the chunk lists' MD5s.
    """

    name = "set-reconcile"
    wire_names = ("recon-sketch", "recon-upload")

    def applicable(self, client: Any, change: Any, content: Any) -> bool:
        return content.size > 0

    def _build_plan(self, client: Any, basis: Optional[FileRecord],
                    target: FileRecord) -> _ReconPlan:
        mirror = {digest for record in client._records.values()
                  for _, _, digest in record.chunks()}
        data = target.content.data
        digests: List[str] = []
        pieces: Dict[str, bytes] = {}
        missing: List[str] = []     # each distinct digest once, first-seen
        for offset, length, digest in target.chunks():
            hexdigest = digest.hex()
            digests.append(hexdigest)
            if hexdigest not in pieces:
                pieces[hexdigest] = data[offset:offset + length]
                if digest not in mirror:
                    missing.append(hexdigest)
        return _ReconPlan(digests, pieces, missing)

    def cpu_units(self, client: Any, change: Any, content: Any) -> int:
        # Chunking the new file plus mirroring the server's index over
        # every synced record — the planner's real work.
        return content.size + sum(record.content.size
                                  for record in client._records.values())

    def describe(self, client: Any, change: Any, content: Any,
                 server: Any = None) -> Iterable[Exchange]:
        path = change.path
        plan = self._plan(client, path, content)
        count = len(plan.digests)
        yield from client.poll_requests()
        yield Exchange(
            "recon-sketch",
            up_meta=SKETCH_BASE_BYTES + SKETCH_PER_DIGEST_BYTES * count,
            down_meta=BITMAP_BASE_BYTES + (count + 7) // 8)
        # The server's answer is authoritative; the plan's mirror is only
        # a prediction (they agree in single-writer sessions).
        missing = plan.missing if server is None else server.reconcile(
            client.user, path, plan.digests)
        blob = b"".join(plan.pieces[digest] for digest in missing)
        yield payload_exchange(
            client.profile.overhead, "recon-upload",
            client.profile.upload_compression.wire_size(Content(blob)))
        if server is not None:
            server.apply_reconciled(
                client.user, path,
                {digest: plan.pieces[digest] for digest in missing},
                content.md5)
            client.stats.recon_syncs += 1
