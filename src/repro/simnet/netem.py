"""Network emulation — the paper's Netfilter/Iptables proxy, in simulation.

The paper interposes "a pair of packet filters in the communication channel
between the client and the cloud" to tune bandwidth (up to 20 Mbps) and
latency in either direction (§3.2).  :class:`NetworkEmulator` provides the
same control surface for a simulated :class:`~repro.simnet.link.Link`: set
bandwidth/latency immediately or schedule changes at future virtual times,
with bounds checking that mirrors the physical rig's limits.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..units import Mbps
from .clock import Simulator
from .link import Link


class NetworkEmulator:
    """Adjusts a link's bandwidth and RTT, now or at scheduled times."""

    def __init__(self, sim: Simulator, link: Link, max_bandwidth: float = 20 * Mbps):
        self.sim = sim
        self.link = link
        self.max_bandwidth = max_bandwidth
        #: (time, up_bw, down_bw, rtt) history of applied settings.
        self.history: List[Tuple[float, float, float, float]] = []
        self._snapshot()

    def _snapshot(self) -> None:
        spec = self.link.spec
        self.history.append((self.sim.now, spec.up_bw, spec.down_bw, spec.rtt))

    def set_bandwidth(self, up_bw: Optional[float] = None,
                      down_bw: Optional[float] = None) -> None:
        """Clamp and apply new bandwidth(s), like the proxy's rate limiter."""
        spec = self.link.spec
        new_up = spec.up_bw if up_bw is None else up_bw
        new_down = spec.down_bw if down_bw is None else down_bw
        if new_up <= 0 or new_down <= 0:
            raise ValueError("bandwidth must be positive")
        self.link.spec = spec.with_bandwidth(
            up_bw=min(new_up, self.max_bandwidth),
            down_bw=min(new_down, self.max_bandwidth),
        )
        self._snapshot()

    def set_latency(self, rtt: float) -> None:
        """Apply a new round-trip time."""
        if rtt < 0:
            raise ValueError("rtt must be non-negative")
        self.link.spec = self.link.spec.with_rtt(rtt)
        self._snapshot()

    def set_loss(self, loss_rate: float) -> None:
        """Apply a packet loss rate (expected-value retransmission model)."""
        self.link.spec = self.link.spec.with_loss(loss_rate)
        self._snapshot()

    def schedule_latency(self, delay: float, rtt: float) -> None:
        self.sim.schedule(delay, self.set_latency, rtt)
