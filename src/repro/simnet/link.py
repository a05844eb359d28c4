"""Client↔cloud link model: bandwidth, latency, and packetisation.

The paper characterises each vantage point by two numbers — peak upload
bandwidth (measured by uploading a large file under Wireshark) and RTT
(measured with ping) — and tunes both with a Netfilter proxy.  This module
reproduces that abstraction: a :class:`Link` with up/down bandwidth and RTT
(one :class:`LinkSpec` per measurement cell stands in for the proxy), plus a
TCP-style packetisation model that converts application bytes into wire
bytes (payload + per-packet header overhead) and transfer time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..units import Mbps

#: Ethernet/IP/TCP framing charged per packet (IP 20 + TCP 20 + link ~14).
PER_PACKET_HEADER = 54
#: TCP maximum segment size used to packetise payloads.
MSS = 1460
#: Size of a bare ACK segment on the wire.
ACK_SIZE = 54 + 12  # header + timestamp option
#: Segments covered by one delayed ACK.
SEGMENTS_PER_ACK = 2


@dataclass
class LinkSpec:
    """Static description of a network path.

    ``up_bw`` / ``down_bw`` are bits per second; ``rtt`` is seconds;
    ``loss_rate`` is the packet loss probability, modelled in expectation
    (deterministic retransmission overhead and recovery delay) so
    experiments stay exactly repeatable.
    """

    up_bw: float
    down_bw: float
    rtt: float
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.up_bw <= 0 or self.down_bw <= 0:
            raise ValueError("bandwidth must be positive")
        if self.rtt < 0:
            raise ValueError("rtt must be non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")

    def with_loss(self, loss_rate: float) -> "LinkSpec":
        return replace(self, loss_rate=loss_rate)


def mn_link(rtt: float = 0.060) -> LinkSpec:
    """The paper's Minnesota vantage point: ~20 Mbps, RTT ∈ (42, 77) ms."""
    return LinkSpec(up_bw=20 * Mbps, down_bw=20 * Mbps, rtt=rtt)


def bj_link() -> LinkSpec:
    """The paper's Beijing vantage point: ~1.6 Mbps, RTT ∈ (200, 480) ms."""
    return LinkSpec(up_bw=1.6 * Mbps, down_bw=1.6 * Mbps, rtt=0.340)


def lte_link() -> LinkSpec:
    """A cellular (LTE) profile: asymmetric 8/24 Mbps, 120 ms RTT, 0.5% loss.

    Not one of the paper's two wired vantage points — added for the sync
    strategy sweeps (Experiment 11), where nonzero base loss makes wire
    bytes, not just duration, differ per link.
    """
    return LinkSpec(up_bw=8 * Mbps, down_bw=24 * Mbps, rtt=0.120,
                    loss_rate=0.005)


def packetize(payload_bytes: int) -> Tuple[int, int, int]:
    """Split an application payload into (packets, header_overhead, ack_bytes).

    ``header_overhead`` is charged in the payload's direction; ``ack_bytes``
    is the reverse-direction ACK stream generated by the receiver.
    """
    if payload_bytes < 0:
        raise ValueError("payload must be non-negative")
    if payload_bytes == 0:
        return 0, 0, 0
    packets = -(-payload_bytes // MSS)  # ceil division
    header_overhead = packets * PER_PACKET_HEADER
    acks = -(-packets // SEGMENTS_PER_ACK)
    return packets, header_overhead, acks * ACK_SIZE


class Link:
    """A meterable network path between one client and the cloud."""

    def __init__(self, spec: LinkSpec):
        self.spec = spec

    # -- timing ----------------------------------------------------------

    def transfer_time(self, wire_bytes: int, upstream: bool) -> float:
        """Serialisation time for ``wire_bytes`` in one direction."""
        bandwidth = self.spec.up_bw if upstream else self.spec.down_bw
        return wire_bytes * 8.0 / bandwidth

    def round_trip_time(self, round_trips: float = 1.0) -> float:
        return self.spec.rtt * round_trips

    # -- loss model ----------------------------------------------------------

    def retransmit_overhead(self, wire_bytes: int,
                            loss_rate: Optional[float] = None) -> int:
        """Expected retransmitted bytes for a transfer of ``wire_bytes``.

        ``loss_rate`` overrides the link's own rate (used by fault-injection
        loss bursts).  The expectation is rounded up so any nonzero loss on a
        nonzero transfer reports at least one retransmitted byte — plain
        ``int()`` truncation made small (single-packet) transfers on lossy
        links report zero overhead.
        """
        loss = self.spec.loss_rate if loss_rate is None else loss_rate
        if loss <= 0.0 or wire_bytes <= 0:
            return 0
        packets = -(-wire_bytes // MSS)
        mean_packet = wire_bytes / packets
        # Each loss costs one resent packet (plus its headers, charged by
        # the caller's packetisation of the extra bytes).
        return math.ceil(loss / (1.0 - loss) * packets * mean_packet)

    def recovery_rtts(self, wire_bytes: int,
                      loss_rate: Optional[float] = None) -> float:
        """Expected extra round trips spent in loss recovery, at most 8."""
        loss = self.spec.loss_rate if loss_rate is None else loss_rate
        if loss <= 0.0 or wire_bytes <= 0:
            return 0.0
        packets = -(-wire_bytes // MSS)
        return min(loss * packets, 8.0)

    # -- wire byte accounting ---------------------------------------------

    @staticmethod
    def wire_cost(payload_bytes: int) -> Tuple[int, int]:
        """(forward_wire_overhead, reverse_ack_bytes) for a payload.

        The forward payload itself is *not* included — callers meter it as
        payload so the payload/overhead split stays visible.
        """
        _, header_overhead, ack_bytes = packetize(payload_bytes)
        return header_overhead, ack_bytes
