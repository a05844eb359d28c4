"""High-level facade: one user, one device, one service, one wire.

:class:`SyncSession` assembles the full measurement rig the paper uses per
experiment — simulator, link, cloud server, sync folder, client
engine, traffic meter — and exposes the file operations and the TUE readout.

Sessions can share a ``sim`` and a ``server`` to model several users or
devices against one cloud (cross-user dedup, Experiment 5).
Fleet members (:class:`~repro.fleet.FleetMember`) are sessions over a
shared server, which add the follower half of a shared folder.
"""

from __future__ import annotations

from typing import Optional, Union

from ..cloud import CloudServer
from ..content import Content, random_content, text_content
from ..fsim import SyncFolder
from ..obs.recorder import TraceRecorder, session_recorder
from ..simnet import (
    FaultInjector,
    FaultSchedule,
    Link,
    LinkSpec,
    Simulator,
    TrafficMeter,
    mn_link,
)
from .engine import SyncClient
from .hardware import M1, MachineProfile
from .profiles import AccessMethod, ServiceProfile, service_profile
from .retry import RetryPolicy
from .strategies.base import SyncStrategy


class SyncSession:
    """Everything needed to run one client against a (possibly shared) cloud."""

    def __init__(
        self,
        profile: Union[ServiceProfile, str],
        access: AccessMethod = AccessMethod.PC,
        machine: MachineProfile = M1,
        link_spec: Optional[LinkSpec] = None,
        sim: Optional[Simulator] = None,
        server: Optional[CloudServer] = None,
        user: str = "user1",
        retry: Optional[RetryPolicy] = None,
        faults: Optional[Union[FaultInjector, FaultSchedule]] = None,
        recorder: Optional[TraceRecorder] = None,
        strategy: Optional[SyncStrategy] = None,
    ):
        if isinstance(profile, str):
            profile = service_profile(profile, access)
        self.profile = profile
        self.sim = sim or Simulator()
        self.link = Link(link_spec or mn_link())
        self.server = server or CloudServer(
            dedup=profile.dedup,
            storage_chunk_size=profile.storage_chunk_size,
            name=profile.name,
            backend=profile.storage_backend,
        )
        if isinstance(faults, FaultSchedule):
            faults = FaultInjector(faults)
        self.faults = faults
        if faults is not None:
            self.server.attach_faults(faults)
        self.folder = SyncFolder(self.sim)
        self.meter = TrafficMeter()
        # Tracing is opt-in: explicit recorder, else the ambient hub
        # installed by ``obs.recording()``; None means not recording and
        # costs one ``is None`` check per wire event downstream.
        if recorder is None:
            recorder = session_recorder(f"{profile.name}/{user}")
        self.recorder = recorder
        if recorder is not None:
            recorder.bind_meter(self.meter)
            self.server.attach_recorder(recorder)
        self.client = SyncClient(
            sim=self.sim, folder=self.folder, server=self.server,
            profile=profile, machine=machine, link=self.link,
            meter=self.meter, user=user, retry=retry, faults=faults,
            recorder=recorder, strategy=strategy,
        )
        self._update_bytes = 0
        self.folder.subscribe(self._track_update)

    def _track_update(self, event) -> None:
        self._update_bytes += event.update_bytes

    # -- file operations (forwarded to the sync folder) ---------------------

    def create_file(self, path: str, content: Content):
        return self.folder.create(path, content)

    def create_random_file(self, path: str, size: int, seed: int = 0):
        """Create a "highly compressed" (incompressible) file."""
        return self.folder.create(path, random_content(size, seed=seed))

    def create_text_file(self, path: str, size: int, seed: int = 0):
        """Create an Experiment 4 style compressible text file."""
        return self.folder.create(path, text_content(size, seed=seed))

    def write_file(self, path: str, content: Content):
        return self.folder.write(path, content)

    def append(self, path: str, extra: Content):
        return self.folder.append(path, extra)

    def modify_random_byte(self, path: str, seed: int = 0):
        return self.folder.modify_random_byte(path, seed=seed)

    def delete_file(self, path: str):
        return self.folder.delete(path)

    def download(self, path: str) -> Content:
        return self.client.download(path)

    # -- time ---------------------------------------------------------------

    def run_until_idle(self, max_time: Optional[float] = None) -> float:
        """Drain the simulation: all pending syncs (and defer timers) fire.

        Returns the final virtual time, like
        :meth:`~repro.simnet.Simulator.run_until_idle`.
        """
        return self.sim.run_until_idle(max_time=max_time)

    def advance(self, seconds: float) -> float:
        """Run the simulation forward by a fixed amount of virtual time."""
        return self.sim.run_until(self.sim.now + seconds)

    # -- measurement -----------------------------------------------------------

    @property
    def data_update_bytes(self) -> int:
        """Accumulated *data update size* (the TUE denominator)."""
        return self._update_bytes

    @property
    def total_traffic(self) -> int:
        """Total sync traffic in bytes, both directions (TUE numerator)."""
        return self.meter.total_bytes

    @property
    def wasted_traffic(self) -> int:
        """Failure-induced bytes: retransmissions, aborted sends, re-sends."""
        return self.meter.wasted_bytes

    @property
    def useful_traffic(self) -> int:
        """Total traffic minus the failure-induced component."""
        return self.meter.useful_bytes

    def traffic_report(self, update_size: Optional[int] = None):
        """Full :class:`~repro.core.tue.TrafficReport` for this session."""
        from ..core.tue import TrafficReport  # local: core imports client

        denominator = self._update_bytes if update_size is None else update_size
        return TrafficReport.from_meter(self.meter, denominator)

    def tue(self, update_size: Optional[int] = None) -> float:
        """Traffic Usage Efficiency (Eq. 1)."""
        from ..core.tue import tue  # local: core imports client

        denominator = self._update_bytes if update_size is None else update_size
        return tue(self.meter.total_bytes, denominator)

    def reset_meter(self) -> None:
        """Zero the traffic meter (e.g. between UP and DN phases)."""
        self.meter.reset()
        self._update_bytes = 0
        if self.recorder is not None:
            # Close the accounting epoch: spans recorded so far are no
            # longer reflected in the meter totals.
            self.recorder.note_reset(self.sim.now)

    def audit(self) -> None:
        """Run the conservation audit over this session's trace.

        Raises :class:`~repro.obs.AuditViolation` on the first broken
        invariant; requires the session to have been created with a
        recorder (explicit or ambient via ``obs.recording()``).
        """
        from ..obs import audit  # local: obs is optional here

        if self.recorder is None:
            raise ValueError(
                "session has no recorder — construct it inside "
                "obs.recording() or pass recorder= explicitly")
        audit(recorder=self.recorder)
