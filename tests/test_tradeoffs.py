"""Tests for the §7 cost vector: a cell's reading and its CPU model."""

import pytest

from repro.artifacts import ARTIFACTS, bench_args
from repro.content import random_content, text_content
from repro.core import cell, cpu_seconds, measure
from repro.units import KB


def small_workload(session, mark):
    session.create_file("doc.txt", text_content(256 * KB, seed=1))
    session.create_file("img.jpg", random_content(256 * KB, seed=2))


def modification_workload(session, mark):
    session.create_file("f.bin", random_content(512 * KB, seed=1))
    session.run_until_idle()
    for index in range(5):
        session.modify_random_byte("f.bin", seed=index)
        session.run_until_idle()


def costs(service, recipe):
    measured = cell(service, recipe)
    reading = measure(measured)
    return reading, cpu_seconds(measured, reading)


def test_cost_report_fields_populate():
    reading, (client_cpu, server_cpu) = costs("Dropbox", small_workload)
    assert reading.traffic > 0
    assert reading.stored_bytes > 0
    assert reading.logical_bytes == 512 * KB
    assert reading.rest.total_ops() > 0
    assert client_cpu > 0
    assert server_cpu > 0
    assert reading.update_bytes == 512 * KB
    assert reading.tue == pytest.approx(reading.traffic / (512 * KB))


def test_ids_trades_cpu_and_rest_ops_for_traffic():
    """The §7 double-edged sword: IDS saves traffic, costs server work."""
    ids, _ = costs("Dropbox", modification_workload)
    full, _ = costs("Box", modification_workload)
    assert ids.update_bytes == 512 * KB + 5
    assert ids.traffic < full.traffic / 3
    # The IDS mid-layer turns each MODIFY into GET + PUT + DELETE.
    assert ids.rest.total_ops() > full.rest.total_ops()


def test_compression_trades_client_cpu_for_traffic():
    compressing, (compressing_cpu, _) = costs("UbuntuOne", small_workload)
    plain, (plain_cpu, _) = costs("Box", small_workload)
    assert compressing.traffic < plain.traffic
    assert compressing_cpu > plain_cpu


def test_storage_efficiency_reflects_dedup():
    def duplicate_workload(session, mark):
        content = random_content(256 * KB, seed=9)
        session.create_file("a.bin", content)
        session.create_file("b.bin", content)

    deduping, _ = costs("UbuntuOne", duplicate_workload)
    plain, _ = costs("Box", duplicate_workload)
    assert deduping.logical_bytes / deduping.stored_bytes > 1.8
    assert plain.logical_bytes / plain.stored_bytes == pytest.approx(
        1.0, abs=0.05)


def test_tradeoff_rows_sort_by_traffic():
    entry = next(entry for entry in ARTIFACTS
                 if entry.name == "ablation-tradeoffs")
    args = bench_args(entry)
    readings = entry.run(args)
    text = entry.render(args, readings)["ablation_tradeoffs"]
    names = [line.split("/")[0] for line in text.splitlines()[3:]]
    assert sorted(names) == sorted(readings)
    traffics = [readings[name].traffic for name in names]
    assert traffics == sorted(traffics)
