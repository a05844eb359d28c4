"""Deterministic fault injection: loss bursts, blackouts, server brownouts.

The paper's BJ vantage point (1.6 Mbps, 200–480 ms RTT) shows how sync
traffic efficiency degrades on bad networks, but real bad networks do more
than stretch RTTs: links flap, packets are lost in bursts, and servers
answer 503/429 during brownouts.  Each such failure forces the client to
retransmit — traffic that inflates TUE without delivering any new data.

This module supplies the failure side of that story in a fully deterministic
way.  A :class:`FaultSchedule` is a seeded, pre-drawn list of
:class:`FaultEpisode` windows; :meth:`FaultSchedule.thin` scales the fault
*rate* by keeping the subset of episodes whose pre-drawn uniform coordinate
falls below the rate.  Thinning is monotone — ``thin(r1).episodes`` is a
subset of ``thin(r2).episodes`` whenever ``r1 <= r2`` — so sweeping the rate
can only ever add failures, which keeps TUE-vs-rate curves monotone by
construction.

A :class:`FaultInjector` binds a schedule to the live rig: the
:class:`~repro.simnet.protocol.Channel` consults it for loss bursts and
mid-transfer blackouts, and the :class:`~repro.cloud.CloudServer` consults
it for availability windows.  Recovery (backoff, retries, resume-or-restart)
lives on the client side, in :mod:`repro.client.retry`.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple


class FaultKind(enum.Enum):
    """What kind of failure an episode injects."""

    #: Elevated packet loss for the episode's duration (severity = loss rate).
    LOSS_BURST = "loss-burst"
    #: Total link outage: transfers in flight abort, new ones cannot start.
    BLACKOUT = "blackout"
    #: The service answers every request with 503 for the window.
    SERVER_UNAVAILABLE = "server-unavailable"
    #: The service answers every request with 429 for the window.
    RATE_LIMIT = "rate-limit"


#: Episode kinds the network layer (Channel) reacts to.
NETWORK_KINDS = (FaultKind.LOSS_BURST, FaultKind.BLACKOUT)
#: Episode kinds the cloud layer (CloudServer) reacts to.
SERVER_KINDS = (FaultKind.SERVER_UNAVAILABLE, FaultKind.RATE_LIMIT)


class TransferInterrupted(RuntimeError):
    """A wire transfer aborted mid-flight (link blackout).

    ``elapsed`` is the wall-clock time the client spent before noticing the
    failure; ``retry_at`` is the earliest virtual time a retry can succeed
    (the blackout's end); ``wasted`` is how many bytes crossed the wire for
    nothing and were metered as failure-induced traffic.
    """

    def __init__(self, message: str, elapsed: float = 0.0,
                 retry_at: Optional[float] = None, wasted: int = 0):
        super().__init__(message)
        self.elapsed = elapsed
        self.retry_at = retry_at
        self.wasted = wasted


@dataclass(frozen=True)
class FaultEpisode:
    """One failure window on the virtual timeline."""

    start: float
    duration: float
    kind: FaultKind
    #: Loss rate for LOSS_BURST episodes; unused (1.0) for hard outages.
    severity: float = 1.0
    #: Pre-drawn uniform coordinate used by rate thinning.
    draw: float = 0.0

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ValueError("episodes need start >= 0 and duration > 0")
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError("severity must be in [0, 1]")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active_at(self, time: float) -> bool:
        return self.start <= time < self.end

    def overlaps(self, start: float, end: float) -> bool:
        """Does this episode intersect the half-open interval [start, end)?"""
        return self.start < end and start < self.end


class FaultSchedule:
    """An immutable, time-sorted list of fault episodes."""

    def __init__(self, episodes: Iterable[FaultEpisode] = ()):
        self.episodes: Tuple[FaultEpisode, ...] = tuple(
            sorted(episodes, key=lambda e: (e.start, e.end)))

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon: float,
        mean_interval: float = 30.0,
        mean_duration: float = 3.0,
    ) -> "FaultSchedule":
        """Draw a reproducible episode schedule over ``[0, horizon)``.

        Episode starts follow a Poisson process of intensity
        ``1/mean_interval``; durations are exponential with ``mean_duration``;
        kinds are drawn 45 % blackout, 25 % 503, 15 % 429 and 15 % loss
        burst (a 0.3 loss rate on top of the link's own).  Every random
        draw comes from one ``random.Random(seed)``, so identical arguments
        always produce the identical schedule.  Each episode also records a
        ``draw`` coordinate so :meth:`thin` can scale the rate monotonically.
        """
        if horizon <= 0 or mean_interval <= 0 or mean_duration <= 0:
            raise ValueError("horizon, mean_interval, mean_duration must be positive")
        kinds = [FaultKind.BLACKOUT, FaultKind.SERVER_UNAVAILABLE,
                 FaultKind.RATE_LIMIT, FaultKind.LOSS_BURST]
        mass = [0.45, 0.25, 0.15, 0.15]
        rng = random.Random(seed)
        episodes: List[FaultEpisode] = []
        clock = rng.expovariate(1.0 / mean_interval)
        while clock < horizon:
            duration = max(rng.expovariate(1.0 / mean_duration), 1e-3)
            kind = rng.choices(kinds, weights=mass)[0]
            severity = 0.3 if kind is FaultKind.LOSS_BURST else 1.0
            episodes.append(FaultEpisode(
                start=clock, duration=duration, kind=kind,
                severity=severity, draw=rng.random()))
            clock += rng.expovariate(1.0 / mean_interval)
        return cls(episodes)

    def thin(self, rate: float) -> "FaultSchedule":
        """Keep episodes with ``draw < rate`` — the fault-rate dial.

        ``rate=0`` gives an empty schedule, ``rate=1`` the full one, and the
        kept sets are nested in ``rate`` (monotone thinning).
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        return FaultSchedule(e for e in self.episodes if e.draw < rate)

    def __len__(self) -> int:
        return len(self.episodes)

    def __iter__(self):
        return iter(self.episodes)

    # -- queries ----------------------------------------------------------

    def active_at(self, time: float,
                  kinds: Optional[Sequence[FaultKind]] = None) -> Optional[FaultEpisode]:
        """The first episode (of the given kinds) covering ``time``."""
        for episode in self.episodes:
            if episode.start > time:
                break
            if episode.active_at(time) and (kinds is None or episode.kind in kinds):
                return episode
        return None

    def first_overlapping(self, start: float, end: float,
                          kinds: Optional[Sequence[FaultKind]] = None) -> Optional[FaultEpisode]:
        """The earliest episode (of the given kinds) intersecting [start, end)."""
        for episode in self.episodes:
            if episode.start >= end:
                break
            if episode.overlaps(start, end) and (kinds is None or episode.kind in kinds):
                return episode
        return None


@dataclass
class FaultStats:
    """Counters describing what the injector actually did to a run."""

    blackout_aborts: int = 0
    connect_failures: int = 0
    loss_bursts_hit: int = 0
    server_unavailable: int = 0
    rate_limited: int = 0
    wasted_bytes_injected: int = 0


class FaultInjector:
    """Binds a :class:`FaultSchedule` to the live measurement rig.

    The injector itself is passive — it only answers "is there a fault at
    time t?" and records statistics.  The channel and the cloud server call
    in at the appropriate points; the client's retry policy decides what
    happens next.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self.stats = FaultStats()

    # -- network-side queries (used by Channel) ---------------------------

    def loss_boost(self, time: float) -> float:
        """Extra packet-loss probability from a loss burst active at ``time``."""
        episode = self.schedule.active_at(time, kinds=(FaultKind.LOSS_BURST,))
        if episode is None:
            return 0.0
        self.stats.loss_bursts_hit += 1
        return episode.severity

    def interrupting_blackout(self, start: float, end: float) -> Optional[FaultEpisode]:
        """The blackout (if any) that aborts a transfer spanning [start, end)."""
        return self.schedule.first_overlapping(
            start, end, kinds=(FaultKind.BLACKOUT,))

    # -- server-side queries (used by CloudServer) ------------------------

    def server_episode(self, time: float) -> Optional[FaultEpisode]:
        """The brownout window (503/429) active at ``time``, if any."""
        return self.schedule.active_at(time, kinds=SERVER_KINDS)

    # -- bookkeeping ------------------------------------------------------

    def note_abort(self, wasted: int, mid_transfer: bool) -> None:
        if mid_transfer:
            self.stats.blackout_aborts += 1
        else:
            self.stats.connect_failures += 1
        self.stats.wasted_bytes_injected += wasted

    def note_server_fault(self, episode: FaultEpisode) -> None:
        if episode.kind is FaultKind.RATE_LIMIT:
            self.stats.rate_limited += 1
        else:
            self.stats.server_unavailable += 1
