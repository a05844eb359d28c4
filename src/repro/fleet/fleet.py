"""Fleet assembly: N concurrent sync clients over one shared folder.

:class:`Fleet` is the collaboration-scale counterpart of
:class:`~repro.client.session.SyncSession`: one seeded
:class:`~repro.simnet.Simulator` (a ``heapq`` event loop keyed by
``(time, seq)`` — the global scheduler), one
:class:`~repro.cloud.CloudServer`, one :class:`~repro.fleet.shared.
SharedFolderHub`, and per-member links/meters/engines.  Everything the run
does — notification interleaving, retry jitter, conflict-copy naming — is a
pure function of the constructor arguments, so ``Fleet(..., seed=S)`` is
byte-identical across reruns at any client count.

``domains=D`` shards the same simulation into ``D`` independently
schedulable event domains (a :class:`~repro.simnet.DomainScheduler`):
members are placed ``index % D``, each domain owns its members' queues,
and commit fan-out crosses domains as epoch-stamped messages.  Because
every event is stamped from one global epoch counter, the sharded run is
byte-identical to the ``domains=1`` run — same traffic totals, same span
streams, same rendered report (pinned by the differential tests in
``tests/test_fleet_sharded.py``).

Client churn composes with the rest: :meth:`Fleet.join` mid-run spawns a
member that backfills current server state, :meth:`FleetMember.leave`
drops a member out of all future fan-outs, and a
:class:`~repro.simnet.FaultSchedule` applies the same failure windows to
every member plus the server front door.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from ..client.hardware import M1, MachineProfile
from ..client.profiles import AccessMethod, ServiceProfile, service_profile
from ..client.retry import RetryPolicy
from ..cloud import CloudServer
from ..content import Content, random_content
from ..obs.recorder import TraceHub, current_hub, session_recorder
from ..simnet import (
    DomainScheduler,
    FaultInjector,
    FaultSchedule,
    LinkSpec,
    Simulator,
)
from ..units import KB
from .member import FleetMember
from .report import FleetReport, MemberReport
from .shared import SharedFolderHub


class Fleet:
    """N clients of one service collaborating on one shared folder."""

    def __init__(
        self,
        profile: Union[str, ServiceProfile],
        access: AccessMethod = AccessMethod.PC,
        clients: int = 2,
        machine: MachineProfile = M1,
        link_spec: Optional[LinkSpec] = None,
        seed: int = 0,
        notification_delay: float = 0.2,
        user: str = "shared",
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultSchedule] = None,
        record: bool = False,
        domains: int = 1,
    ):
        if clients < 1:
            raise ValueError(f"a fleet needs at least one client "
                             f"(got {clients})")
        if isinstance(profile, str):
            profile = service_profile(profile, access)
        self.profile = profile
        self.machine = machine
        self.link_spec = link_spec
        self.seed = seed
        self.retry = retry
        self.faults = faults

        #: ``domains > 1`` shards the fleet into that many independently
        #: schedulable event domains (members placed ``index % domains``);
        #: every event is stamped from one global epoch counter, so the run
        #: is byte-identical to the single-queue run at any domain count.
        if domains < 1:
            raise ValueError(f"need at least one event domain (got {domains})")
        self.domains = domains
        if domains == 1:
            self.sim: Union[Simulator, DomainScheduler] = Simulator()
        else:
            self.sim = DomainScheduler(
                domains,
                trace_messages=record or current_hub() is not None)
        self.server = CloudServer(
            dedup=profile.dedup,
            storage_chunk_size=profile.storage_chunk_size,
            name=profile.name,
            backend=profile.storage_backend)
        self.server_faults: Optional[FaultInjector] = None
        if faults is not None:
            self.server_faults = FaultInjector(faults)
            self.server.attach_faults(self.server_faults)
        self.hub = SharedFolderHub(self.sim, self.server, user=user,
                                   notification_delay=notification_delay)
        #: An ambient recording context (``with recording(...)``) wins; the
        #: ``record`` flag otherwise stands up a private hub so audits can
        #: run without the caller managing one.
        self.trace_hub: Optional[TraceHub] = None
        if record and current_hub() is None:
            self.trace_hub = TraceHub()
        for _ in range(clients):
            self._spawn()

    # -- membership ---------------------------------------------------------

    @property
    def members(self) -> List[FleetMember]:
        return self.hub.members

    def live_members(self) -> List[FleetMember]:
        return self.hub.live_members()

    def _recorder(self, name: str):
        label = f"{self.profile.name}/{name}"
        if self.trace_hub is not None:
            return self.trace_hub.new_recorder(label)
        return session_recorder(label)

    def _spawn(self, name: Optional[str] = None) -> FleetMember:
        index = len(self.hub.members)
        name = name or f"client{index}"
        # Pure algorithmic placement (shard = f(UID)): join-order index
        # alone decides the domain, so churn keeps placement deterministic.
        sim = (self.sim.domain_for(index)
               if isinstance(self.sim, DomainScheduler) else self.sim)
        return FleetMember(
            hub=self.hub, index=index, name=name, profile=self.profile,
            machine=self.machine, link_spec=self.link_spec, seed=self.seed,
            retry=self.retry, fault_schedule=self.faults,
            recorder=self._recorder(name), sim=sim)

    def join(self, name: Optional[str] = None) -> FleetMember:
        """A client joins mid-run and backfills current shared state."""
        member = self._spawn(name)
        member.backfill()
        return member

    # -- execution ----------------------------------------------------------

    def run_until_idle(self, max_time: float = 1e7) -> float:
        return self.sim.run_until_idle(max_time)

    # -- inspection ---------------------------------------------------------

    def folder_state(self, member: FleetMember) -> Dict[str, str]:
        """path → md5 of one member's current folder (comparison key)."""
        return {path: member.folder.get(path).md5
                for path in member.folder.paths()}

    def converged(self) -> bool:
        """All live members hold identical folder state."""
        live = self.live_members()
        if len(live) < 2:
            return True
        reference = self.folder_state(live[0])
        return all(self.folder_state(member) == reference
                   for member in live[1:])

    def report(self) -> FleetReport:
        members = tuple(
            MemberReport(
                name=member.name, live=member.live,
                joined_at=member.joined_at,
                traffic=member.traffic_report(),
                notifications=member.stats.notifications,
                fanout_fetches=member.stats.fanout_fetches,
                suppressed=member.stats.suppressed,
                conflicts=member.stats.conflicts,
                backfilled=member.stats.backfilled,
            )
            for member in self.hub.members)
        return FleetReport(
            service=self.profile.name,
            clients=len(self.hub.members),
            members=members,
            commit_epochs=len(self.hub.ledger),
            fanout_pushed_bytes=int(sum(entry.pushed_bytes
                                        for entry in self.hub.ledger)),
            conflicts=int(sum(member.stats.conflicts
                              for member in self.hub.members)),
        )

    def audit(self) -> None:
        """Verify conservation plus the fan-out invariant; raise on failure.

        Requires the fleet to have been recording (``record=True`` or an
        ambient hub).
        """
        from ..obs import audit

        recorders = [member.recorder for member in self.hub.members
                     if member.recorder is not None]
        for recorder in recorders:
            audit(recorder=recorder)
        ledgers: Dict[str, Any] = {"ledger": self.hub.ledger,
                                   "recorders": recorders}
        if isinstance(self.sim, DomainScheduler):
            ledgers["scheduler"] = self.sim
        audit(**ledgers)


def schedule_writer_workload(
    fleet: Fleet,
    writers: int,
    files_per_writer: int = 2,
    file_size: int = 64 * KB,
    spacing: float = 20.0,
    seed: int = 0,
) -> int:
    """Stagger seeded file creations across the first ``writers`` members,
    from t = 1 s.

    Writes are spaced far enough apart (default 20 s against a 0.2 s
    notification delay) that each commit fans out fully before the next
    lands — the conflict-free regime the collaboration sweep measures.
    Returns the total bytes of data update scheduled.
    """
    if writers > len(fleet.members):
        raise ValueError(
            f"workload wants {writers} writers but fleet has "
            f"{len(fleet.members)} members")
    total = 0
    for round_index in range(files_per_writer):
        for index in range(writers):
            member = fleet.members[index]
            content = random_content(
                file_size, seed=seed * 100_003 + index * 1_000
                + round_index + 1)
            at = 1.0 + (round_index * writers + index) * spacing
            # Schedule through the member's own handle so a sharded fleet
            # keeps each writer's kickoff in the writer's domain.
            member.sim.schedule_at(at, member.folder.create,
                                   f"w{index}/doc{round_index}.bin", content)
            total += file_size
    return total
