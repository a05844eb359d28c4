"""Fleet-level traffic accounting: member reports and fan-out amplification.

A fleet's TUE differs from a single session's: the numerator is every byte
any member moved (uploads *and* the fan-out downloads the cloud pushed to
the other N-1 members), while the denominator is only the *local* data
updates members actually made.  As collaborator count N grows, each commit
is paid for roughly N times — the TUE(N) amplification the collaboration
experiment sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..core.tue import TrafficReport, tue


@dataclass(frozen=True)
class MemberReport:
    """One member's traffic plus its follower-side counters."""

    name: str
    traffic: TrafficReport
    notifications: int
    fanout_fetches: int
    suppressed: int
    conflicts: int

    @property
    def tue(self) -> float:
        return self.traffic.tue


@dataclass(frozen=True)
class FleetReport:
    """Whole-fleet accounting for one shared-folder run."""

    service: str
    clients: int
    members: Tuple[MemberReport, ...]
    commit_epochs: int
    fanout_pushed_bytes: int
    conflicts: int

    @property
    def update_bytes(self) -> int:
        """Σ local data updates across members (the TUE denominator)."""
        return int(sum(member.traffic.data_update_size
                       for member in self.members))

    @property
    def traffic_bytes(self) -> int:
        """Σ sync traffic across members (the TUE numerator)."""
        return int(sum(member.traffic.total for member in self.members))

    @property
    def tue(self) -> float:
        return tue(self.traffic_bytes, self.update_bytes)

    def amplification(self, baseline: "FleetReport") -> float:
        """TUE(N) / TUE(baseline) — the fan-out amplification factor."""
        base = baseline.tue
        mine = self.tue
        if math.isnan(base) or math.isnan(mine) or base == 0:
            return math.nan
        return mine / base
