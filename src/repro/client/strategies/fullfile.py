"""Full-file upload — the extracted pre-strategy default transfer path."""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ...chunking import chunk_data
from ...content import Content
from .base import Exchange, StrategyEstimate, SyncStrategy


class FullFileStrategy(SyncStrategy):
    """Ship the whole (compressed, possibly chunked) file.

    Sends through the engine's ``_upload_full`` so the dedup negotiation,
    chunked-transfer, and resilient-retry behaviour stay byte-identical
    with the pre-refactor client — the differential battery pins this.
    Where those leave the bytes predictable, :meth:`describe` prices the
    very requests ``_upload_full`` builds (``_upload_requests``).
    """

    name = "full-file"
    wire_names = ("upload",)

    def applicable(self, client: Any, change: Any, content: Any) -> bool:
        return True

    def cpu_units(self, client: Any, change: Any, content: Any) -> int:
        return content.size

    def describe(self, client: Any, change: Any, content: Any,
                 server: Any = None) -> Iterable[Exchange]:
        profile = client.profile
        unit_size = profile.storage_chunk_size or max(content.size, 1)
        polls, upload = client._upload_requests([
            profile.upload_compression.wire_size(
                Content.with_md5(unit.data, unit.digest))
            for unit in chunk_data(content.data, unit_size)])
        return polls + upload

    def transfer(self, client: Any, change: Any, content: Any,
                 lightweight: bool = False, in_batch: bool = False) -> float:
        client.charge_cpu(self.cpu_units(client, change, content))
        duration = client._upload_full(
            change.path, content, lightweight=lightweight, in_batch=in_batch)
        client.stats.full_file_syncs += 1
        return duration

    def estimate(self, client: Any, change: Any,
                 content: Any) -> Optional[StrategyEstimate]:
        if client.profile.dedup.enabled or client.retry is not None:
            # Negotiation outcomes and per-unit retry framing depend on
            # server/fault state the planner does not model; refuse to
            # promise exactness rather than guess.
            return None
        return super().estimate(client, change, content)


#: Shared stateless instance — the engine's default full-file route and
#: every strategy's fallback when it is not applicable.
FULL_FILE = FullFileStrategy()
