"""Experiment 9's rig: a shared-folder fleet, one writer count at a time.

Every single-session experiment is a :class:`~repro.core.cell.Cell`; the
fleet does not fit one, since its traffic is a fan-out over many clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..client import AccessMethod
from ..simnet import LinkSpec, mn_link
from ..units import KB

@dataclass(frozen=True)
class CollaborationCell:
    """One (service, writer-count) point of the collaboration sweep."""

    service: str
    writers: int
    clients: int
    update_bytes: int
    traffic_bytes: int
    conflicts: int
    tue: float
    amplification: float


def run_collaboration(
    service: str,
    access: AccessMethod = AccessMethod.PC,
    writers: int = 2,
    clients: Optional[int] = None,
    files_per_writer: int = 2,
    file_size: int = 64 * KB,
    seed: int = 9,
    link_spec: Optional[LinkSpec] = None,
):
    """One fleet run: ``writers`` active writers among ``clients`` members.

    ``clients`` defaults to ``writers`` (every member writes), the paper's
    symmetric-collaboration shape.  Returns the :class:`~repro.fleet.
    FleetReport`.
    """
    from ..fleet import Fleet, schedule_writer_workload

    fleet = Fleet(service, access=access, clients=clients or writers,
                  link_spec=link_spec or mn_link(), seed=seed)
    schedule_writer_workload(fleet, writers=writers,
                             files_per_writer=files_per_writer,
                             file_size=file_size, seed=seed)
    fleet.run_until_idle()
    return fleet.report()


def experiment9_collaboration(
    services: Sequence[str] = ("GoogleDrive", "OneDrive", "SugarSync"),
    writer_counts: Sequence[int] = (1, 2, 4, 8, 16),
    **kwargs,
) -> Dict[str, List["CollaborationCell"]]:
    """TUE(N) vs. collaborator count N — the fan-out amplification sweep.

    Each commit is paid for roughly N times (one upload plus N-1 follower
    downloads) while the data-update denominator grows only with the writes
    themselves, so for the no-dedup, no-batching PC profiles TUE(N) is
    strictly increasing in N.  The ``amplification`` column normalises each
    point against the same service's N=1 run.
    """
    out: Dict[str, List[CollaborationCell]] = {}
    for service in services:
        baseline = None
        cells: List[CollaborationCell] = []
        for writers in writer_counts:
            report = run_collaboration(service, writers=writers, **kwargs)
            if baseline is None:
                baseline = report
            cells.append(CollaborationCell(
                service=report.service,
                writers=writers,
                clients=report.clients,
                update_bytes=report.update_bytes,
                traffic_bytes=report.traffic_bytes,
                conflicts=report.conflicts,
                tue=report.tue,
                amplification=report.amplification(baseline),
            ))
        out[service] = cells
    return out
