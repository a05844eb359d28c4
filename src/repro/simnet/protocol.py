"""Transport and application-protocol cost model (TCP + TLS + HTTP).

Every commercial client the paper measures speaks HTTPS to its cloud.  The
overhead traffic the paper isolates in Experiment 1 ("TCP/HTTP(S) connection
setup and maintenance, metadata delivery, etc.") is reproduced here as an
explicit cost model:

* TCP handshake — 3 segments, one RTT before first byte;
* TLS handshake — ~1.2 KB up / ~3.8 KB down, two more RTTs;
* HTTP request/response framing per exchange;
* per-packet TCP/IP headers and the reverse ACK stream (via
  :mod:`repro.simnet.link`);
* connection reuse with an idle timeout, so rapid syncs share a connection
  while widely spaced syncs pay the handshake again.

We deliberately do not model congestion control; the paper's TUE effects
depend on serialisation delay and RTT counts, not on slow-start dynamics
(documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, NamedTuple, Optional,
                    Sequence, Tuple)

from .clock import Simulator
from .faults import FaultInjector, TransferInterrupted
from .link import MSS, Link
from .meter import Direction, TrafficMeter

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..obs.recorder import TraceRecorder


@dataclass
class ProtocolCosts:
    """Byte/RTT costs of the HTTPS stack, tunable per service profile."""

    tcp_handshake_up: int = 2 * 66      # SYN + final ACK
    tcp_handshake_down: int = 66        # SYN-ACK
    tls_handshake_up: int = 1_200       # ClientHello + key exchange
    tls_handshake_down: int = 3_800     # ServerHello + certificate chain
    handshake_rtts: float = 3.0         # TCP (1) + TLS (2)
    request_header: int = 450           # HTTP request line + headers + TLS framing
    response_header: int = 350
    exchange_rtts: float = 1.0          # request→response turnaround
    idle_timeout: float = 55.0          # keep-alive window before re-handshake
    use_tls: bool = True
    #: TCP initial congestion window, segments (slow start restarts after
    #: idle periods, which sync workloads hit constantly).
    initial_cwnd: int = 10
    #: Upload-queue RTT inflation ("bufferbloat"): every protocol round trip
    #: issued while the uplink queue drains waits behind it.  Real and large
    #: on low-bandwidth residential uplinks like the paper's BJ vantage point.
    queue_inflation: float = 6.0
    #: How long the client takes to notice a dead link (RTO-style timeout)
    #: when a fault-injection blackout swallows its traffic.
    fault_detect_timeout: float = 1.0


class _WirePlan(NamedTuple):
    """Packetisation of one request/response (see ``Channel._wire_plan``)."""

    up_wire: int     #: application bytes: payload + HTTP framing + metadata
    down_wire: int
    up_hdr: int      #: per-packet TCP/IP headers of the upstream bytes
    up_retx: int     #: expected retransmitted bytes
    down_retx: int
    gross_up: int    #: wire + headers + retransmissions the sender serialises
    gross_down: int
    up_total: int    #: metered upstream: ``gross_up`` + ACKs of the reply
    down_total: int


class Channel:
    """One client's HTTPS channel to the cloud, metered end to end.

    All sync traffic flows through :meth:`exchange`; the channel transparently
    (re-)establishes its connection, meters every byte on the shared
    :class:`TrafficMeter`, and returns the wall-clock duration of the exchange
    so the caller can schedule completion events.
    """

    def __init__(self, sim: Simulator, link: Link, meter: TrafficMeter,
                 costs: Optional[ProtocolCosts] = None,
                 faults: Optional[FaultInjector] = None,
                 recorder: Optional["TraceRecorder"] = None):
        self.sim = sim
        self.link = link
        self.meter = meter
        self.costs = costs or ProtocolCosts()
        self.faults = faults
        #: Optional trace recorder (duck-typed; see repro.obs).  Every wire
        #: event emits exactly one span so the conservation audit can match
        #: span deltas against meter totals byte for byte.
        self.recorder = recorder
        self._connected_until: float = -1.0
        #: End time of the latest exchange — lets fault lookups see time
        #: advance *within* a sync transaction, whose exchanges all run at
        #: one frozen ``sim.now``.
        self._busy_until: float = 0.0
        self.handshake_count = 0
        self.exchange_count = 0

    # -- intra-transaction time ------------------------------------------

    def effective_now(self) -> float:
        """Wire-level current time: the simulator clock, advanced past any
        exchanges already performed in the current sync transaction.

        Without a fault injector this is exactly ``sim.now``, preserving the
        historical (and calibrated) keep-alive behaviour byte for byte.
        """
        if self.faults is None:
            return self.sim.now
        return max(self.sim.now, self._busy_until)

    def wait(self, seconds: float) -> None:
        """Advance the wire clock without traffic (retry backoff sleeps)."""
        self._busy_until = self.effective_now() + max(seconds, 0.0)

    # -- connection management -------------------------------------------

    def _ensure_connection(self, now: float) -> float:
        """Meter a handshake if the keep-alive window lapsed; return its duration."""
        if now <= self._connected_until:
            return 0.0
        costs = self.costs
        up = costs.tcp_handshake_up
        down = costs.tcp_handshake_down
        if costs.use_tls:
            up += costs.tls_handshake_up
            down += costs.tls_handshake_down
        self.handshake_count += 1
        duration = (
            self.link.round_trip_time(costs.handshake_rtts)
            + self.link.transfer_time(up, upstream=True)
            + self.link.transfer_time(down, upstream=False)
        )
        self._settle("connect", "handshake", now, now, now + duration,
                     [(Direction.UP, 0, up, 0), (Direction.DOWN, 0, down, 0)],
                     None if self.recorder is None else
                     dict(op="handshake", up_bytes=up, down_bytes=down))
        return duration

    def _settle(self, span_kind: str, name: str, at: float, start: float,
                end: float, flows: Sequence[Tuple[Direction, int, int, int]],
                attrs: Optional[Dict[str, Any]]) -> None:
        """The epilogue every wire op shares.

        Meters the op's ``(direction, payload, overhead, wasted)`` flows
        at time ``at``, emits its one span carrying exactly that meter
        delta and ``attrs``, and advances the wire clock and keep-alive
        window to ``end``.  Callers build ``attrs`` only when a recorder
        is attached (``None`` otherwise): an unrecorded wire op builds no
        span attributes.
        """
        recorder = self.recorder
        meter = self.meter
        before = meter.snapshot() if recorder is not None else None
        for direction, payload, overhead, wasted in flows:
            meter.record(at, direction, payload, overhead, name, wasted)
        if recorder is not None:
            recorder.record_span(span_kind, name, "channel", start, end,
                                 delta=meter.since(before), **attrs)
        self._busy_until = end
        self._connected_until = end + self.costs.idle_timeout

    # -- exchanges ---------------------------------------------------------

    def _wire_plan(self, up_payload: int, down_payload: int, up_meta: int,
                   down_meta: int, loss_rate: Optional[float]) -> _WirePlan:
        """Packetise one request/response: HTTP framing, per-packet
        headers, the reverse ACK streams and the expected retransmissions
        at ``loss_rate`` (``None``: the link's own rate).  The single
        statement of that arithmetic: :meth:`exchange` meters it,
        :meth:`estimate_exchange` reports it.
        """
        up_wire = up_payload + self.costs.request_header + up_meta
        down_wire = down_payload + self.costs.response_header + down_meta
        up_hdr, up_acks = self.link.wire_cost(up_wire)
        down_hdr, down_acks = self.link.wire_cost(down_wire)
        up_retx = self.link.retransmit_overhead(up_wire + up_hdr, loss_rate)
        down_retx = self.link.retransmit_overhead(down_wire + down_hdr,
                                                  loss_rate)
        gross_up = up_wire + up_hdr + up_retx
        gross_down = down_wire + down_hdr + down_retx
        return _WirePlan(up_wire, down_wire, up_hdr, up_retx, down_retx,
                         gross_up, gross_down,
                         gross_up + down_acks, gross_down + up_acks)

    def exchange(
        self,
        up_payload: int = 0,
        down_payload: int = 0,
        kind: str = "exchange",
        extra_rtts: float = 0.0,
        up_meta: int = 0,
        down_meta: int = 0,
    ) -> float:
        """Perform one HTTP exchange and return its duration in seconds.

        ``up_payload``/``down_payload`` are file-content bytes (metered as
        payload).  ``up_meta``/``down_meta`` are service metadata bytes
        (indexes, JSON envelopes) metered as overhead on top of the fixed
        HTTP framing.  ``extra_rtts`` models additional protocol round trips
        (e.g. chunked commit protocols).

        With a fault injector attached, loss bursts inflate the expected
        retransmissions and a blackout overlapping the transfer aborts it:
        the bytes already sent are metered as wasted traffic and
        :class:`TransferInterrupted` is raised for the client's retry policy.
        """
        start = self.effective_now()
        duration = self._ensure_connection(start)
        costs = self.costs

        # Loss: expected retransmissions add overhead bytes and recovery
        # RTTs.  An active loss burst raises the loss rate for this exchange.
        loss_rate: Optional[float] = None
        if self.faults is not None:
            boost = self.faults.loss_boost(start)
            if boost > 0.0:
                loss_rate = min(self.link.spec.loss_rate + boost, 0.95)
        plan = self._wire_plan(up_payload, down_payload, up_meta, down_meta,
                               loss_rate)

        up_transfer = self.link.transfer_time(plan.gross_up, upstream=True)
        down_transfer = self.link.transfer_time(plan.gross_down,
                                                upstream=False)
        rtts = (costs.exchange_rtts + extra_rtts
                + self._slow_start_rtts(plan.up_wire)
                + self.link.recovery_rtts(plan.up_wire + plan.up_hdr,
                                          loss_rate=loss_rate))
        # Bufferbloat: round trips issued during the upload wait behind the
        # uplink queue, so each effective RTT stretches by the residual
        # serialisation delay.
        queue_delay = costs.queue_inflation * up_transfer
        duration += (
            up_transfer + down_transfer
            + self.link.round_trip_time(rtts) + queue_delay
        )

        if self.faults is not None:
            episode = self.faults.interrupting_blackout(start, start + duration)
            if episode is not None:
                raise self._interrupt(start, duration, episode, kind,
                                      plan.gross_up, plan.gross_down)

        # Forward bytes (payload split out) + reverse ACK streams.  The
        # retransmitted portion is real wire traffic but delivers nothing
        # new, so it is tagged as the record's wasted component.
        self._settle(
            "exchange", kind, start, start, start + duration,
            [(Direction.UP, up_payload, plan.up_total - up_payload,
              plan.up_retx),
             (Direction.DOWN, down_payload, plan.down_total - down_payload,
              plan.down_retx)],
            None if self.recorder is None else dict(
                op="exchange", up_payload=up_payload,
                down_payload=down_payload, up_wire=plan.up_wire,
                down_wire=plan.down_wire, up_retx=plan.up_retx,
                down_retx=plan.down_retx))
        self.exchange_count += 1
        return duration

    def estimate_exchange(self, up_payload: int = 0, down_payload: int = 0,
                          up_meta: int = 0, down_meta: int = 0):
        """Exact ``(up_total, down_total)`` wire bytes :meth:`exchange`
        would meter for these inputs, without performing it.

        Reads the same :meth:`_wire_plan` the exchange meters, at the base
        link's loss rate — i.e. assuming a warm connection and no active
        fault episode.  This is the planning primitive the adaptive
        sync-strategy selector scores candidates with.
        """
        plan = self._wire_plan(up_payload, down_payload, up_meta, down_meta,
                               None)
        return plan.up_total, plan.down_total

    def _interrupt(self, start: float, duration: float, episode,
                   kind: str, gross_up: int, gross_down: int) -> TransferInterrupted:
        """Abort an exchange swallowed by a blackout; meter the waste."""
        costs = self.costs
        fail_at = max(episode.start, start)
        progress = (fail_at - start) / duration if duration > 0 else 0.0
        sent_up = int(gross_up * progress)
        sent_down = int(gross_down * progress)
        mid_transfer = sent_up > 0 or sent_down > 0
        if not mid_transfer:
            # The connection attempt ran straight into the outage: only the
            # unanswered SYN retries cross the wire.
            sent_up = costs.tcp_handshake_up
        detect = min(costs.fault_detect_timeout, max(episode.end - fail_at, 0.0))
        elapsed = (fail_at - start) + detect
        flows = [(Direction.UP, 0, sent_up, sent_up)]
        if sent_down:
            flows.append((Direction.DOWN, 0, sent_down, sent_down))
        self._settle("exchange", kind + "-aborted", fail_at, start,
                     start + elapsed, flows,
                     None if self.recorder is None else
                     dict(op="aborted", sent_up=sent_up, sent_down=sent_down))
        self._connected_until = -1.0  # the blackout killed the connection
        if self.recorder is not None:
            self.recorder.record_span(
                "fault-episode", "blackout", "channel", fail_at, episode.end,
                wasted=sent_up + sent_down, mid_transfer=mid_transfer)
        self.faults.note_abort(sent_up + sent_down, mid_transfer)
        return TransferInterrupted(
            f"link blackout at t={fail_at:.3f}s aborted {kind!r}",
            elapsed=elapsed, retry_at=episode.end, wasted=sent_up + sent_down)

    def error_exchange(self, kind: str = "rejected") -> float:
        """A request the service refuses outright (503/429, no body).

        The request/response framing still crosses the wire; all of it is
        failure-induced, so the whole exchange is metered as wasted.
        """
        start = self.effective_now()
        duration = self._ensure_connection(start)
        # Bare request/response framing; no retransmission is modelled for
        # a refusal.
        framing = self._wire_plan(0, 0, 0, 0, loss_rate=0.0)
        up_bytes, down_bytes = framing.up_total, framing.down_total
        duration += (self.link.transfer_time(up_bytes, upstream=True)
                     + self.link.transfer_time(down_bytes, upstream=False)
                     + self.link.round_trip_time(self.costs.exchange_rtts))
        self._settle(
            "exchange", kind, start, start, start + duration,
            [(Direction.UP, 0, up_bytes, up_bytes),
             (Direction.DOWN, 0, down_bytes, down_bytes)],
            None if self.recorder is None else
            dict(op="rejected", up_wire=framing.up_wire,
                 down_wire=framing.down_wire))
        return duration

    def resend_wasted(self, wire_bytes: int, kind: str = "restart") -> float:
        """Re-send ``wire_bytes`` that were already delivered once.

        Used by restart-from-zero clients: after a mid-file failure, every
        chunk delivered before the failure is pushed again.  The repeat
        delivers no new data, so it is metered entirely as wasted overhead.
        """
        if wire_bytes <= 0:
            return 0.0
        start = self.effective_now()
        duration = self._ensure_connection(start)
        hdr, acks = self.link.wire_cost(wire_bytes)
        gross_up = wire_bytes + hdr
        up_transfer = self.link.transfer_time(gross_up, upstream=True)
        duration += (up_transfer * (1.0 + self.costs.queue_inflation)
                     + self.link.round_trip_time(1.0))
        self._settle(
            "exchange", kind, start, start, start + duration,
            [(Direction.UP, 0, gross_up, gross_up),
             (Direction.DOWN, 0, acks, acks)],
            None if self.recorder is None else
            dict(op="restart", wire_bytes=wire_bytes))
        return duration

    def _slow_start_rtts(self, wire_bytes: int) -> float:
        """Extra round trips spent growing the congestion window from cold.

        Sync transactions are separated by idle periods long enough for the
        congestion window to reset, so every exchange restarts slow start.
        """
        segments = -(-wire_bytes // MSS) if wire_bytes > 0 else 0
        cwnd = max(self.costs.initial_cwnd, 1)
        rounds = 0
        while segments > cwnd:
            segments -= cwnd
            cwnd *= 2
            rounds += 1
        return float(rounds)

    def notify(self, nbytes: int, kind: str = "notification") -> float:
        """Server→client push (sync notifications, status updates)."""
        hdr, acks = self.link.wire_cost(nbytes)
        start = self.effective_now()
        duration = self.link.transfer_time(nbytes + hdr, upstream=False) \
            + self.link.round_trip_time(0.5)
        flows = [(Direction.DOWN, 0, nbytes + hdr, 0)]
        if acks:
            flows.append((Direction.UP, 0, acks, 0))
        self._settle("exchange", kind, start, start, start + duration, flows,
                     None if self.recorder is None else
                     dict(op="notification", nbytes=nbytes))
        return duration

    def drop_connection(self) -> None:
        """Force the next exchange to pay a fresh handshake."""
        self._connected_until = -1.0
