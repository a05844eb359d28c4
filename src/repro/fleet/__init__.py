"""Fleet-scale shared-folder simulation on the deterministic scheduler.

Many concurrent :class:`~repro.client.SyncClient`s — each with its own
link, meter, and seeded RNG stream — interleave against one
:class:`~repro.cloud.CloudServer` through a single global event queue.
Commits fan out to collaborators, write-write races resolve as
deterministic conflict copies.
"""

from .fleet import Fleet, schedule_writer_workload
from .member import FleetMember, MemberStats
from .report import FleetReport, MemberReport
from .shared import FanoutEpoch, SharedFolderHub, conflict_copy_name

__all__ = [
    "FanoutEpoch",
    "Fleet",
    "FleetMember",
    "FleetReport",
    "MemberReport",
    "MemberStats",
    "SharedFolderHub",
    "conflict_copy_name",
    "schedule_writer_workload",
]
