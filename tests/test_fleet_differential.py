"""Differential: a 1-client fleet is byte-identical to a bare SyncClient.

The fleet layer must be pure plumbing when there is nobody to fan out to:
a single-member fleet's traffic report and wire-level span stream must
match, field for field and span for span, the same workload driven through
a directly-assembled :class:`~repro.client.SyncClient` — over every service
profile and both link presets.  Any divergence means the origin-tagging
proxy or the hub changed observable behaviour, not just added fan-out.
"""

import pytest

from repro.client import M1, SyncClient, all_profiles
from repro.cloud import CloudServer
from repro.content import random_content, text_content
from repro.fleet import Fleet
from repro.fsim import SyncFolder
from repro.obs import TraceHub
from repro.simnet import (
    Link,
    Simulator,
    TrafficMeter,
    bj_link,
    mn_link,
)
from repro.units import KB

ALL = all_profiles()
LINKS = [("mn", mn_link), ("bj", bj_link)]


def drive_workload(sim, folder):
    """The shared scripted workload: create, edit, rename, create text."""
    sim.schedule_at(1.0, folder.create, "docs/a.bin",
                    random_content(24 * KB, seed=1))
    sim.schedule_at(30.0, folder.modify_random_byte, "docs/a.bin", 2)
    sim.schedule_at(60.0, folder.rename, "docs/a.bin", "docs/b.bin")
    sim.schedule_at(90.0, folder.create, "notes.txt",
                    text_content(8 * KB, seed=3))


def span_stream(recorder):
    return [(span.kind, span.name, span.source, span.start, span.end,
             span.delta, dict(span.attrs)) for span in recorder.spans]


def report_fields(report):
    return (report.up_payload, report.up_overhead, report.down_payload,
            report.down_overhead, report.data_update_size, report.up_wasted,
            report.down_wasted)


def run_fleet(profile, link_spec):
    fleet = Fleet(profile, clients=1, link_spec=link_spec, seed=0,
                  record=True)
    drive_workload(fleet.sim, fleet.members[0].folder)
    fleet.run_until_idle()
    member = fleet.members[0]
    return report_fields(member.traffic_report()), span_stream(member.recorder)


def run_direct(profile, link_spec):
    """The same rig FleetMember assembles, minus the hub."""
    sim = Simulator()
    server = CloudServer(dedup=profile.dedup,
                         storage_chunk_size=profile.storage_chunk_size,
                         name=profile.name)
    link = Link(link_spec)
    meter = TrafficMeter()
    folder = SyncFolder(sim)
    hub = TraceHub()
    recorder = hub.new_recorder(f"{profile.name}/client0")
    recorder.bind_meter(meter)
    server.attach_recorder(recorder)
    update = [0]
    folder.subscribe(lambda event: update.__setitem__(
        0, update[0] + event.update_bytes))
    SyncClient(sim=sim, folder=folder, server=server, profile=profile,
               machine=M1, link=link, meter=meter, user="shared",
               recorder=recorder)
    drive_workload(sim, folder)
    sim.run_until_idle(1e7)
    from repro.core.tue import TrafficReport
    return (report_fields(TrafficReport.from_meter(meter, update[0])),
            span_stream(recorder))


@pytest.mark.parametrize("link_name,link_factory", LINKS,
                         ids=[name for name, _ in LINKS])
@pytest.mark.parametrize("profile", ALL, ids=lambda p: p.name)
def test_one_client_fleet_matches_bare_client(profile, link_name,
                                              link_factory):
    fleet_report, fleet_spans = run_fleet(profile, link_factory())
    direct_report, direct_spans = run_direct(profile, link_factory())
    assert fleet_report == direct_report
    assert fleet_spans == direct_spans
