"""Set reconciliation: trade an extra round trip for near-minimal bytes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List

from ...chunking import cdc_spans, fingerprint
from ...content import Content
from .base import Exchange, SyncStrategy, payload_exchange

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
    shadow of the same path, so it works on created files — it wins big
    when a "new" file is mostly a clone of existing content, and loses a
    round trip plus the sketch when content is genuinely fresh.

    Chunking parameters are pinned to the library defaults because the
    server's reconciliation index uses them; the planner mirrors that
    index from the client's own synced shadows (exact for a single-writer
    session, which a test pins).
    """

    name = "set-reconcile"
    wire_names = ("recon-sketch", "recon-upload")

    def applicable(self, client: Any, change: Any, content: Any) -> bool:
        return content.size > 0

    def _build_plan(self, client: Any, path: str, old: Any,
                    content: Any) -> _ReconPlan:
        digests: List[str] = []
        pieces: Dict[str, bytes] = {}
        for offset, length in cdc_spans(content.data):
            piece = content.data[offset:offset + length]
            digest = fingerprint(piece)
            digests.append(digest)
            pieces.setdefault(digest, piece)
        mirror = set()
        for basis in client._shadow.values():
            if basis.size == 0:
                continue
            for offset, length in cdc_spans(basis.data):
                mirror.add(fingerprint(basis.data[offset:offset + length]))
        # ``pieces`` holds each distinct digest once, in first-seen order.
        missing = [digest for digest in pieces if digest not in mirror]
        return _ReconPlan(digests, pieces, missing)

    def cpu_units(self, client: Any, change: Any, content: Any) -> int:
        # Chunking the new file plus mirroring the server's index over
        # every synced shadow — the planner's real work.
        return content.size + sum(c.size for c in client._shadow.values())

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
