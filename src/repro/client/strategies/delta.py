"""Delta strategies: ship an edit stream against the synced shadow copy."""

from __future__ import annotations

from typing import Any, Iterable, Optional, Tuple

from ...content import Content
from ...delta import DEFAULT_BLOCK_SIZE, compute_cdc_delta, compute_delta
from .base import Exchange, SyncStrategy, payload_exchange


class DeltaStrategy(SyncStrategy):
    """One wire shape for every delta codec: auxiliary polls, then a single
    payload exchange carrying the stream (literals compressed with the
    profile's upload codec), applied server-side against the stored basis.

    Subclasses supply the codec (:meth:`_encode`), the exchange kind
    (``wire_names``) and the server-side application (:meth:`_apply`).
    """

    def applicable(self, client: Any, change: Any, content: Any) -> bool:
        path = change.path
        return (not change.created
                and path in client._shadow
                and client._shadow[path].size > 0)

    def _encode(self, client: Any, path: str, old: Any, content: Any) -> Any:
        raise NotImplementedError

    def _apply(self, client: Any, path: str, delta: Any, md5: str) -> None:
        raise NotImplementedError

    def _build_plan(self, client: Any, path: str, old: Any,
                    content: Any) -> Tuple[Any, int]:
        delta = self._encode(client, path, old, content)
        literals = b"".join(
            op.data for op in delta.ops if hasattr(op, "data"))
        wire_literals = client.profile.upload_compression.wire_size(
            Content(literals))
        return delta, wire_literals + (delta.wire_size - len(literals))

    def cpu_units(self, client: Any, change: Any, content: Any) -> int:
        return client._shadow[change.path].size + content.size

    def describe(self, client: Any, change: Any, content: Any,
                 server: Any = None) -> Iterable[Exchange]:
        delta, payload = self._plan(client, change.path, content)
        yield from client.poll_requests()
        yield payload_exchange(client.profile.overhead, self.wire_names[0],
                               payload)
        if server is not None:
            self._apply(client, change.path, delta, content.md5)


class FixedBlockDeltaStrategy(DeltaStrategy):
    """rsync fixed-block delta — the extracted IDS transfer path: signature
    from the (cached) basis at the profile's delta block, rolling-checksum
    delta, application through the IDS mid-layer."""

    name = "fixed-delta"
    wire_names = ("delta-sync",)

    def basis_block_size(self, profile: Any) -> Optional[int]:
        return profile.delta_block or DEFAULT_BLOCK_SIZE

    def _encode(self, client: Any, path: str, old: Any, content: Any) -> Any:
        signature = client._basis_signature(
            path, old, self.basis_block_size(client.profile))
        return compute_delta(signature, content.data)

    def _apply(self, client: Any, path: str, delta: Any, md5: str) -> None:
        client.server.apply_delta(client.user, path, delta, md5)
        client.stats.delta_syncs += 1


class CdcDeltaStrategy(DeltaStrategy):
    """Whole-chunk delta cut by the gear-hash CDC chunker at the library's
    default parameters: insertions shift boundaries instead of defeating
    them, but copy references are costlier per match (12 bytes vs rsync's
    5) — exactly the tradeoff Experiment 11 sweeps."""

    name = "cdc-delta"
    wire_names = ("cdc-delta",)

    def _encode(self, client: Any, path: str, old: Any, content: Any) -> Any:
        return compute_cdc_delta(old.data, content.data)

    def _apply(self, client: Any, path: str, delta: Any, md5: str) -> None:
        client.server.apply_cdc_delta(client.user, path, delta, md5)
        client.stats.cdc_delta_syncs += 1


#: Shared stateless instance backing the engine's default IDS route.
FIXED_DELTA = FixedBlockDeltaStrategy()
