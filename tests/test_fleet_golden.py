"""Golden conformance: rendered fleet tables match committed outputs exactly.

These freeze the *rendered text* of the fleet reports for fixed seeds —
header layout, size formatting, and above all :func:`~repro.reporting.
fmt_tue`'s nan/inf conventions (a pure follower renders ``inf``, an idle
fleet renders ``—``).  A formatting regression anywhere in the reporting
stack fails these with a readable diff.

Regenerate after an intentional change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_fleet_golden.py
"""

import os
from pathlib import Path

from repro.core import run_collaboration
from repro.fleet import Fleet, schedule_writer_workload
from repro.reporting import fmt_tue, render_table
from repro.units import KB, fmt_size

GOLDEN = Path(__file__).parent / "golden"


def check_golden(name: str, text: str) -> None:
    path = GOLDEN / name
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    assert path.read_text() == text, (
        f"rendered output diverged from {path.name}; regenerate with "
        f"REGEN_GOLDEN=1 if the change is intentional")


def render_member_table(fleet) -> str:
    report = fleet.report()
    rows = [
        [member.name, fmt_size(int(member.traffic.total)),
         fmt_size(int(member.traffic.data_update_size)),
         fmt_tue(member.tue), str(member.notifications),
         str(member.fanout_fetches), str(member.conflicts)]
        for member in report.members
    ]
    rows.append(["fleet", fmt_size(report.traffic_bytes),
                 fmt_size(report.update_bytes), fmt_tue(report.tue),
                 "", "", str(report.conflicts)])
    return render_table(
        ["Member", "Traffic", "Update", "TUE", "Notifs", "Fetches",
         "Conflicts"], rows,
        title=f"Fleet — {report.service}, {report.clients} clients")


def test_member_table_with_pure_followers():
    # One writer, two followers: the followers' TUE column must render inf.
    fleet = Fleet("GoogleDrive", clients=3, seed=5)
    schedule_writer_workload(fleet, writers=1, file_size=32 * KB, seed=5)
    fleet.run_until_idle()
    check_golden("fleet_members.txt", render_member_table(fleet) + "\n")


def test_member_table_idle_fleet_renders_nan_as_dash():
    # Nothing ever happens: zero traffic over zero update is nan ⇒ "—".
    fleet = Fleet("Dropbox", clients=2, seed=5)
    fleet.run_until_idle()
    check_golden("fleet_idle.txt", render_member_table(fleet) + "\n")


def test_collaboration_sweep_table():
    # TUE(N): one fleet run per writer count, each normalised against the
    # same service's one-writer run, as the fleet entry reads it.
    rows = []
    for service in ("GoogleDrive", "SugarSync"):
        first = None
        for writers in (1, 2, 4):
            report = run_collaboration(service, writers=writers,
                                       file_size=32 * KB)
            if first is None:
                first = report
            rows.append([
                report.service, str(writers),
                fmt_size(report.update_bytes), fmt_size(report.traffic_bytes),
                fmt_tue(report.tue), fmt_tue(report.amplification(first)),
            ])
    text = render_table(
        ["Service", "Writers", "Update", "Traffic", "TUE", "Amplification"],
        rows, title="Experiment 9 — TUE(N) vs. collaborator count")
    check_golden("experiment9.txt", text + "\n")
