"""Simulated network substrate: event loop, links, protocol costs, metering.

This package replaces the paper's physical measurement rig — real clients on
real networks captured with Wireshark, shaped by a Netfilter proxy — with a
deterministic discrete-event equivalent (see DESIGN.md, "Substitutions").
"""

from .clock import (
    CalendarEventQueue,
    Event,
    HeapEventQueue,
    SimulationError,
    Simulator,
    make_event_queue,
)
from .domains import (
    DomainMessage,
    DomainScheduler,
    EventDomain,
    verify_domain_protocol,
)
from .faults import (
    FaultEpisode,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    FaultStats,
    TransferInterrupted,
)
from .link import (
    ACK_SIZE,
    MSS,
    PER_PACKET_HEADER,
    Link,
    LinkSpec,
    bj_link,
    lte_link,
    mn_link,
    packetize,
)
from .meter import Direction, MeterSnapshot, TrafficMeter, TrafficRecord, TrafficTotals
from .protocol import Channel, ProtocolCosts

__all__ = [
    "ACK_SIZE",
    "CalendarEventQueue",
    "Channel",
    "DomainMessage",
    "DomainScheduler",
    "EventDomain",
    "HeapEventQueue",
    "Direction",
    "Event",
    "FaultEpisode",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "FaultStats",
    "TransferInterrupted",
    "Link",
    "LinkSpec",
    "MSS",
    "MeterSnapshot",
    "PER_PACKET_HEADER",
    "ProtocolCosts",
    "SimulationError",
    "Simulator",
    "TrafficMeter",
    "TrafficRecord",
    "TrafficTotals",
    "bj_link",
    "lte_link",
    "make_event_queue",
    "mn_link",
    "packetize",
    "verify_domain_protocol",
]
