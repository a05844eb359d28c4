"""Experiment 9's rig: a shared-folder fleet, one writer count at a time.

Every single-session experiment is a :class:`~repro.core.cell.Cell`; the
fleet does not fit one, since its traffic is a fan-out over many clients.
"""

from __future__ import annotations

from typing import Optional

from ..client import AccessMethod
from ..simnet import LinkSpec, mn_link
from ..units import KB


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

