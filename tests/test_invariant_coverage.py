"""Every conservation invariant runs on a production path.

Each row of ``repro.obs.INVARIANTS`` is wrapped with a counter, then only
the real entry points are driven, at tiny scale: ``SyncSession.audit``,
``audit_hub``, ``Fleet.audit`` (one queue and two event domains),
``replay_all(..., audit=True)`` with and without a pool, and
the Experiment 10 cell.  Every row must be evaluated, and with every input
it reads — a row a caller never feeds, or feeds only half of, fails
here.  Calling a row directly does not count: that is how an invariant
stays an orphan while its unit tests pass.
"""

import dataclasses
import importlib

import pytest

from repro.client import AccessMethod, SyncSession
from repro.core import Cell, backend_profile, churn, measure
from repro.fleet import Fleet, schedule_writer_workload
from repro.obs import TraceHub, audit_hub, recording
from repro.trace import ReplayPool, generate_trace, replay_all
from repro.units import KB

# ``repro.obs.audit`` the attribute is the function; the table lives in
# the module of the same name.
audit_module = importlib.import_module("repro.obs.audit")

#: A CROSS_USER dedup profile, whose units the whole trace must see: the
#: pooled replay audits the report its worker priced over the full trace.
CROSS_USER_SERVICE = "UbuntuOne"


#: A row no entry point feeds: the test must report it, which proves a
#: real row left unfed would be reported the same way.
SEEDED_ORPHAN = audit_module.Invariant("seeded-orphan", ("widget",),
                                       lambda widget: [])


@pytest.fixture
def evaluated(monkeypatch):
    """Row name -> the set of input names it was evaluated with, over the
    real table plus :data:`SEEDED_ORPHAN`."""
    rows = audit_module.INVARIANTS + (SEEDED_ORPHAN,)
    seen = {row.name: set() for row in rows}

    def counted(row):
        def check(**inputs):
            seen[row.name].update(inputs)
            return row.check(**inputs)
        return dataclasses.replace(row, check=check)

    monkeypatch.setattr(audit_module, "INVARIANTS",
                        tuple(counted(row) for row in rows))
    return seen


def drive_production_paths():
    hub = TraceHub()
    with recording(hub=hub):
        session = SyncSession("Dropbox", AccessMethod.PC)
    session.create_random_file("a.bin", 16 * KB, seed=1)
    session.run_until_idle()
    session.audit()
    audit_hub(hub)

    for domains in (1, 2):
        fleet = Fleet("GoogleDrive", clients=3, seed=7, record=True,
                      domains=domains)
        schedule_writer_workload(fleet, writers=2, file_size=16 * KB, seed=7)
        fleet.run_until_idle()
        fleet.audit()

    trace = generate_trace(scale=0.005, seed=7)
    replay_all(trace, services=[CROSS_USER_SERVICE], audit=True)
    with ReplayPool(trace, workers=2) as pool:
        replay_all(services=[CROSS_USER_SERVICE], pool=pool, audit=True)

    measure(Cell(backend_profile("object"), churn("paper", 4)))


def test_every_invariant_runs_with_every_input(evaluated):
    drive_production_paths()
    starved = {}
    for row in audit_module.INVARIANTS:
        wanted = set(row.inputs)
        if evaluated[row.name] != wanted:
            starved[row.name] = sorted(wanted - evaluated[row.name])
    # row -> the inputs no production path gave it
    assert starved == {"seeded-orphan": ["widget"]}
