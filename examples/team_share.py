#!/usr/bin/env python3
"""Team sharing: the multi-device fan-out behind the ISP traffic asymmetry.

The paper's §1 analysis of the ISP-level Dropbox trace found 2.8 MB inbound
(client→cloud) but 5.18 MB outbound (cloud→client) per sync — because every
upload fans out to the user's other devices and collaborators.  This example
reproduces that asymmetry: one laptop edits a shared design document while a
desktop and a phone follow it, on an incremental-sync service vs. a
full-file one.

Run:  python examples/team_share.py
"""

from repro.content import random_content
from repro.fleet import Fleet
from repro.reporting import render_table
from repro.simnet import Direction
from repro.units import MB, fmt_size

EDITS = 20


def run_fleet(service: str, followers: int = 2) -> Fleet:
    fleet = Fleet(service, clients=1 + followers)
    editor = fleet.members[0]
    editor.folder.create("design.sketch", random_content(2 * MB, seed=1))
    fleet.run_until_idle()
    for index in range(EDITS):
        editor.folder.modify_random_byte("design.sketch", seed=10 + index)
        fleet.sim.run_until(fleet.sim.now + 30.0)
    fleet.run_until_idle()
    assert fleet.converged(), "followers must hold the final document"
    return fleet


def delta_downloads(member) -> int:
    return sum(1 for record in member.meter.records
               if record.kind == "fanout-delta"
               and record.direction is Direction.DOWN)


def main():
    rows = []
    for service in ("Dropbox", "GoogleDrive"):
        fleet = run_fleet(service)
        editor, *followers = fleet.members
        up = editor.meter.total_bytes
        down = sum(follower.meter.total_bytes for follower in followers)
        rows.append([service, fmt_size(up), fmt_size(down),
                     f"{down / up:.2f}", str(delta_downloads(followers[0]))])
    print(render_table(
        ["Service", "Inbound (edit device)", "Outbound (2 followers)",
         "Out/In", "Delta downloads per follower"],
        rows,
        title=f"One 2 MB document, {EDITS} one-byte edits, 2 follower devices"))
    print("\nOutbound exceeds inbound once changes fan out — the ISP-trace "
          "asymmetry of §1.\nDropbox's followers pull rsync deltas; Google "
          "Drive's re-download the full 2 MB per edit.")


if __name__ == "__main__":
    main()
