"""Delta strategies: ship an edit stream against the path's synced record."""

from __future__ import annotations

from typing import Any, Iterable, Optional, Tuple

from ...delta import DEFAULT_BLOCK_SIZE, chunk_list_delta, compute_delta
from .base import Exchange, FileRecord, SyncStrategy, payload_exchange


class DeltaStrategy(SyncStrategy):
    """One wire shape for every delta codec: auxiliary polls, then a single
    payload exchange carrying the stream (literals compressed with the
    profile's upload codec), applied server-side against the stored basis.

    Subclasses supply the codec (:meth:`_encode`), the exchange kind
    (``wire_names``) and the server-side application (:meth:`_apply`).
    """

    def applicable(self, client: Any, change: Any, content: Any) -> bool:
        basis = client._records.get(change.path)
        return (not change.created
                and basis is not None
                and basis.content.size > 0)

    def _encode(self, client: Any, basis: FileRecord,
                target: FileRecord) -> Any:
        raise NotImplementedError

    def _apply(self, client: Any, path: str, delta: Any, md5: str) -> None:
        raise NotImplementedError

    def _build_plan(self, client: Any, basis: FileRecord,
                    target: FileRecord) -> Tuple[Any, int]:
        delta = self._encode(client, basis, target)
        return delta, client.profile.upload_compression.delta_wire_size(delta)

    def cpu_units(self, client: Any, change: Any, content: Any) -> int:
        return client._records[change.path].content.size + content.size

    def describe(self, client: Any, change: Any, content: Any,
                 server: Any = None) -> Iterable[Exchange]:
        delta, payload = self._plan(client, change.path, content)
        yield from client.poll_requests()
        yield payload_exchange(client.profile.overhead, self.wire_names[0],
                               payload)
        if server is not None:
            self._apply(client, change.path, delta, content.md5)


class FixedBlockDeltaStrategy(DeltaStrategy):
    """rsync fixed-block delta — the extracted IDS transfer path: the basis
    record's signature at the profile's delta block, rolling-checksum
    delta, application through the IDS mid-layer."""

    name = "fixed-delta"
    wire_names = ("delta-sync",)

    def basis_block_size(self, profile: Any) -> Optional[int]:
        return profile.delta_block or DEFAULT_BLOCK_SIZE

    def _encode(self, client: Any, basis: FileRecord,
                target: FileRecord) -> Any:
        signature = basis.signature(self.basis_block_size(client.profile))
        return compute_delta(signature, target.content.data)

    def _apply(self, client: Any, path: str, delta: Any, md5: str) -> None:
        client.server.apply_delta(client.user, path, delta, md5,
                                  client._records[path].content.md5)
        client.stats.delta_syncs += 1


class CdcDeltaStrategy(DeltaStrategy):
    """Whole-chunk delta cut by the gear-hash CDC chunker at the library's
    default parameters: insertions shift boundaries instead of defeating
    them, but copy references are costlier per match (12 bytes vs rsync's
    5) — exactly the tradeoff Experiment 11 sweeps."""

    name = "cdc-delta"
    wire_names = ("cdc-delta",)

    def _encode(self, client: Any, basis: FileRecord,
                target: FileRecord) -> Any:
        return chunk_list_delta(basis.chunks(), basis.content.size,
                                target.content.data, target.chunks())

    def _apply(self, client: Any, path: str, delta: Any, md5: str) -> None:
        client.server.apply_cdc_delta(client.user, path, delta, md5,
                                      client._records[path].content.md5)
        client.stats.cdc_delta_syncs += 1


#: Shared stateless instance backing the engine's default IDS route.
FIXED_DELTA = FixedBlockDeltaStrategy()
