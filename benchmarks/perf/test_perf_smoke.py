"""Smoke test of the harness itself: ``pytest benchmarks/perf``.

Not collected by tier-1 (``testpaths = ["tests"]``).  It measures nothing:
it checks that every workload and metric BENCHMARK.json declares is
produced, that a wrong output is counted as a failure, and that the span
tree adds up.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run as perf  # noqa: E402

SPEC = perf.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def program():
    return perf.load_program()[0]


@pytest.fixture(scope="module")
def smoke_output():
    """Every workload at smoke size, through the real command line."""
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0.1"],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert child.returncode == 0, child.stderr
    with open(perf.OUT / "result.json") as handle:
        return child.stdout, json.load(handle), elapsed


def test_smoke_sizes_are_quick(smoke_output):
    assert smoke_output[2] < 20.0


def test_every_declared_name_is_printed_and_well_formed(smoke_output):
    stdout, collected, _ = smoke_output
    for name in WORKLOADS:
        assert f"== {name} " in stdout
        result = collected["workloads"][name]["result"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {
            metric["name"] for metric in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s", stdout, re.M)
    for entry in (SPEC["workloads"] + SPEC["end_to_end"]
                  + SPEC["per_layer"]):
        assert NAME.match(entry["name"]), entry["name"]
    stamp = collected["host"]
    for key in ("nproc", "affinity", "loadavg_at_start", "platform",
                "python", "numpy", "commit", "seed", "pool_workers"):
        assert key in stamp


def test_a_result_file_compares_clean_against_itself(smoke_output):
    rows = compare.compare(smoke_output[1], smoke_output[1], SPEC)
    assert {row["verdict"] for row in rows} <= {"ok", "unresolved",
                                                "identical"}
    assert not any(row["verdict"] == "REGRESSION" for row in rows)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_a_sound_span_tree(name):
    run = perf.run_one(name, seed=3, seconds=0.1, trace=1, smoke=True)
    assert run["result"]["correct"], run
    assert list(run["result"]["metrics"]) == [
        metric["name"] for metric in SPEC["per_layer"]]
    assert run["result"]["metrics"]["bench.trace_overhead_ratio"]["value"] > 0

    with open(perf.ROOT / run["detail"]["spans_file"]) as handle:
        spans = [json.loads(line) for line in handle]
    by_id = {span["id"]: span for span in spans}
    children = {}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            children.setdefault(span["parent"], []).append(span)

    def self_time(span):
        inside = sorted(children.get(span["id"], []),
                        key=lambda child: child["start"])
        for earlier, later in zip(inside, inside[1:]):
            assert earlier["end"] <= later["start"]     # siblings never overlap
        own = (span["end"] - span["start"]
               - sum(child["end"] - child["start"] for child in inside))
        assert own >= 0
        return own

    def subtree(span):
        return self_time(span) + sum(
            subtree(child) for child in children.get(span["id"], []))

    roots = [span for span in spans if span["parent"] is None]
    assert {span["name"] for span in roots} == {"setup", "pass"}
    for root in roots:
        assert subtree(root) == pytest.approx(root["end"] - root["start"])


def test_watched_simulator_sees_every_event(program):
    run = perf.run_one("fleet-fanout", seed=3, seconds=0.1, trace=1,
                       smoke=True)
    size = program.SIZES["smoke"]["fleet-fanout"]
    fleet = program.FleetFanout(3, size)._build()
    events = 0
    while fleet.sim.step():
        events += 1
    assert run["result"]["metrics"]["simnet.clock.events"]["value"] == events


def test_a_digest_mismatch_is_a_failure(program):
    class Drifting(program.TraceGen):
        """Generates a different trace on every pass after the warm-up."""

        def run_pass(self, tracer):
            self.seed += 1
            return super().run_pass(tracer)

    run = perf.run_one("trace-gen", seed=3, seconds=0.1, trace=0, smoke=True,
                       workload_cls=Drifting)
    assert not run["result"]["correct"]
    assert run["result"]["failed"] > 0
    assert run["detail"]["failed_share"] > 0


def test_a_bad_download_is_a_failure(program):
    class Corrupting(program.SyncCreate):
        def _one_session(self, profile, tracer):
            rig, downloads = super()._one_session(profile, tracer)
            downloads[0] = program.Content(b"!" + downloads[0].data[1:])
            return rig, downloads

    run = perf.run_one("sync-create", seed=3, seconds=0.1, trace=0,
                       smoke=True, workload_cls=Corrupting)
    assert not run["result"]["correct"]
    assert run["detail"]["failed_share"] > 0
