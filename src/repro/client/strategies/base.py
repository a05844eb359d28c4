"""The pluggable sync-strategy contract (see DESIGN.md).

A :class:`SyncStrategy` owns the *content transfer* step of a single-file
sync: everything between the engine's routing decision and the post-sync
basis bookkeeping.  The engine stays responsible for batching, renames,
deletions, notification, and the per-path :class:`FileRecord` every
strategy reads its basis from; the strategy decides what crosses the wire
and through which exchanges.

The contract has three legs:

* :meth:`SyncStrategy.describe` states the transfer once, as the ordered
  :class:`Exchange` requests it makes (auxiliary polls included);
* :meth:`SyncStrategy.transfer` sends that description through the
  client's guarded exchange and :meth:`SyncStrategy.estimate` prices the
  same description through ``Channel.estimate_exchange`` *without*
  touching the wire — so the estimate is byte-exact under quiescent
  conditions (warm connection, no faults) by construction, which is what
  lets the adaptive selector dominate every static choice;
* every transfer reports a ``(wire_bytes, round_trips, cpu_units)`` cost
  vector through a ``delta-exchange`` span, whose ``payload`` ledger the
  ``strategy-conservation`` audit invariant balances against the named
  wire exchanges.

Strategies never import the engine: they duck-type on the client object
(`client.profile`, ``client.guarded_exchange``, ``client.server``, …)
so this package stays import-cycle-free, like the recorder protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from ...cloud.errors import StaleBasis
from ...delta import CdcChunk, FileSignature, cdc_chunk_list, compute_signature


class Exchange(NamedTuple):
    """One request/response a transfer makes: the unit that is both priced
    (``Channel.estimate_exchange``) and sent (``Channel.exchange``)."""

    kind: str
    up_payload: int = 0
    up_meta: int = 0
    down_meta: int = 0
    down_payload: int = 0


def payload_exchange(overhead: Any, kind: str, payload: int,
                     meta_up: Optional[int] = None,
                     meta_down: Optional[int] = None) -> Exchange:
    """The standard metadata+payload request: ``payload`` wrapped in the
    service's per-byte framing plus its per-sync metadata (``meta_up`` /
    ``meta_down`` override the profile's for batched or per-unit sends)."""
    up = overhead.meta_up if meta_up is None else meta_up
    down = overhead.meta_down if meta_down is None else meta_down
    return Exchange(kind, payload,
                    up + int(overhead.per_byte_factor * payload), down)


class FileRecord:
    """What the client knows about one version of a path, derived at most
    once — the shape of a sync client's ``state.db`` row.

    It holds the ``Content`` (with the md5 that caches), plus a fixed-block
    signature and a CDC chunk list, each built on first use.  The engine
    keeps one record per synced path and one for the version in flight;
    a record is replaced when its path's synced version changes and
    dropped with the path, so nothing derived here outlives its version.
    """

    __slots__ = ("content", "plans", "_signature", "_chunks")

    def __init__(self, content: Any):
        self.content = content
        #: strategy name -> (basis record, plan) while this version is in
        #: flight (see :meth:`SyncStrategy._plan`), else ``None``.
        self.plans: Optional[Dict[str, tuple]] = None
        self._signature: Optional[FileSignature] = None
        self._chunks: Optional[List[CdcChunk]] = None

    def signature(self, block_size: int) -> FileSignature:
        """The rsync signature of this version at ``block_size``."""
        if self._signature is None or self._signature.block_size != block_size:
            self._signature = compute_signature(self.content.data, block_size)
        return self._signature

    def chunks(self) -> List[CdcChunk]:
        """``(offset, length, md5 digest)`` of this version's CDC chunks at
        the library defaults (the server's reconciliation index uses them)."""
        if self._chunks is None:
            self._chunks = cdc_chunk_list(self.content.data)
        return self._chunks


@dataclass
class TransferTally:
    """Model-side ledger of one strategy transfer.

    ``payload`` accumulates the ``up_payload`` of every *successful*
    exchange the transfer issued (the meter's payload column for the same
    bytes); ``exchanges`` counts them (the transfer's round trips);
    ``cpu_units`` is the strategy's own computation charge, in bytes
    processed.  The engine emits these on the ``delta-exchange`` span even
    when the transfer dies mid-way, so partially-metered transfers stay
    balanced under the strategy-conservation audit.
    """

    payload: int = 0
    exchanges: int = 0
    cpu_units: int = 0

    def note(self, up_payload: int) -> None:
        self.payload += int(up_payload)
        self.exchanges += 1

    def charge_cpu(self, units: int) -> None:
        self.cpu_units += max(int(units), 0)


@dataclass(frozen=True)
class StrategyEstimate:
    """Predicted cost vector of one transfer, before any byte moves.

    ``up_bytes``/``down_bytes`` are total wire bytes (payload plus every
    overhead the channel would meter, handshakes excluded — those are
    connection-lifecycle costs identical across strategies);
    ``round_trips`` counts request/response exchanges; ``cpu_units`` is
    the bytes the strategy would have to process locally.
    """

    up_bytes: int
    down_bytes: int
    round_trips: int
    cpu_units: int

    @property
    def wire_bytes(self) -> int:
        return self.up_bytes + self.down_bytes


class SyncStrategy:
    """Base class: one way to move a file's new content to the cloud."""

    #: Stable identifier; also the ``delta-exchange`` span name.
    name = "strategy"
    #: Exchange kinds this strategy routes payload through.  The
    #: strategy-conservation audit balances the span ledger against wire
    #: spans with exactly these names, so a strategy that invents a new
    #: exchange kind must list it here.
    wire_names: Tuple[str, ...] = ()

    def applicable(self, client: Any, change: Any, content: Any) -> bool:
        """Can this strategy carry this change at all?"""
        raise NotImplementedError

    def describe(self, client: Any, change: Any, content: Any,
                 server: Any = None) -> Iterable[Exchange]:
        """The transfer's :class:`Exchange` requests, in wire order.

        ``server`` is ``None`` while the description is only being priced
        and the live cloud while it is being sent: a strategy asks it for
        whatever answer its later requests depend on, and applies the
        result once the last request has landed.
        """
        raise NotImplementedError

    def cpu_units(self, client: Any, change: Any, content: Any) -> int:
        """Bytes the strategy processes locally to plan this transfer."""
        raise NotImplementedError

    def transfer(self, client: Any, change: Any, content: Any,
                 lightweight: bool = False, in_batch: bool = False) -> float:
        """Move the content; returns wall-clock duration (seconds), which
        a :class:`StaleBasis` refusal carries as its ``elapsed``."""
        client.charge_cpu(self.cpu_units(client, change, content))
        duration = 0.0
        try:
            for request in self.describe(client, change, content,
                                         client.server):
                duration += client.guarded_exchange(request)
        except StaleBasis as error:
            error.elapsed = duration
            raise
        return duration

    def estimate(self, client: Any, change: Any,
                 content: Any) -> Optional[StrategyEstimate]:
        """Exact cost prediction, or ``None`` when one cannot be promised
        (e.g. dedup negotiation or retry chunking makes bytes depend on
        server state the planner does not model)."""
        up = down = trips = 0
        for request in self.describe(client, change, content):
            request_up, request_down = client.channel.estimate_exchange(
                up_payload=request.up_payload, up_meta=request.up_meta,
                down_meta=request.down_meta,
                down_payload=request.down_payload)
            up += request_up
            down += request_down
            trips += 1
        return StrategyEstimate(up, down, trips,
                                self.cpu_units(client, change, content))

    def resolve(self, client: Any, change: Any, content: Any) -> "SyncStrategy":
        """The concrete strategy that will carry this change.

        Static strategies answer themselves when applicable and fall back
        to full-file upload otherwise; the adaptive selector overrides
        this with its scoring pass.
        """
        if self.applicable(client, change, content):
            return self
        from .fullfile import FULL_FILE
        return FULL_FILE

    def basis_block_size(self, profile: Any) -> Optional[int]:
        """Fixed block size this strategy reads the basis signature at, or
        ``None`` when it reads no signature."""
        return None

    # -- shared helpers ---------------------------------------------------

    def _plan(self, client: Any, path: str, content: Any) -> Any:
        """This strategy's plan for shipping ``content`` to ``path``, built
        at most once per transfer.

        The adaptive selector estimates every candidate before picking
        one; the plans sit on the in-flight record of ``content``, so the
        winner does not redo its (delta / chunking) work when it transfers
        and every candidate reads one chunking of the new version.  The
        in-flight record serves only the ``Content`` object it was made
        for, and a slot only the basis record it was planned against, so
        a stale plan can never be replayed against different bytes; the
        engine drops the in-flight record when its transfer ends.
        """
        basis = client._records.get(path)
        target = client._in_flight
        if target is None or target.content is not content:
            target = client._in_flight = FileRecord(content)
        plans = target.plans
        if plans is None:
            plans = target.plans = {}
        slot = plans.get(self.name)
        if slot is None or slot[0] is not basis:
            slot = plans[self.name] = (
                basis, self._build_plan(client, basis, target))
        return slot[1]

    def _build_plan(self, client: Any, basis: Optional[FileRecord],
                    target: FileRecord) -> Any:
        raise NotImplementedError
