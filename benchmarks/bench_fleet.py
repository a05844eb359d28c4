"""Fleet scheduler throughput: events/sec vs. concurrent client count.

The fleet layer (`repro.fleet`) interleaves every client's wire events
through one logical event queue, so its cost is the scheduler's — this
bench measures how many simulator events per second the queue sustains as
the fleet grows, and how far client count can scale before a fixed
workload's wall time degrades.  The queue is a ``heapq`` keyed by
``(time, seq)`` (since PR 21; DESIGN.md "Parallel mechanisms" holds this
bench's 100k-client point on it and on the calendar queue it replaced): a
fan-out burst — every commit lands N-1 same-time notifications — costs
O(log n) per event, and the fleet cancels almost nothing, so lazy deletion
leaves no tombstones to wade through.

Each sweep point builds a fleet of N clients (a small fixed set of writers;
everyone else follows), schedules the standard writer workload, then steps
the simulator by hand under ``time.perf_counter`` so the figure is *queue
events per second*, not Python import noise.  Two checks run on the way:

* **determinism** — every point runs twice and must produce identical
  traffic totals;
* **sharded byte-parity** — at the points named in ``PARITY_POINTS`` the
  same fleet also runs sharded into 4 event domains
  (:class:`~repro.simnet.DomainScheduler`), and its full report *and* the
  rendered per-member table must equal the single-queue run byte for byte.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py              # full sweep
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke      # CI guard

The full sweep (up to 100,000 clients) regenerates the committed
``BENCH_fleet.json``; ``--smoke`` runs a tiny sweep plus one sharded parity
point at 1,000 clients and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

if __package__ is None and __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fleet import Fleet, schedule_writer_workload
from repro.reporting import render_fleet_members
from repro.units import KB

CLIENT_SWEEP = (2, 10, 50, 100, 250, 1_000, 10_000, 100_000)
#: Sweep points that additionally run sharded (domains=4) and must match
#: the single-queue run byte for byte.
PARITY_POINTS = frozenset({1_000, 100_000})
PARITY_DOMAINS = 4
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"


def workload_for(clients: int):
    """(writers, files_per_writer): lighter commits at fleet scale so the
    figure stays *events per second*, not minutes of md5 per point."""
    if clients > 1_000:
        return min(2, clients), 1
    return min(4, clients), 2


def run_point(clients: int, seed: int, service: str = "GoogleDrive",
              domains: int = 1):
    """One timed fleet run; returns (events, seconds, fleet, report)."""
    fleet = Fleet(service, clients=clients, seed=seed, domains=domains)
    writers, files_per_writer = workload_for(clients)
    schedule_writer_workload(fleet, writers=writers,
                             files_per_writer=files_per_writer,
                             file_size=16 * KB, seed=seed)
    events = 0
    start = time.perf_counter()
    while fleet.sim.step():
        events += 1
    seconds = time.perf_counter() - start
    return events, seconds, fleet, fleet.report()


def check_parity(clients: int, seed: int, base_report) -> dict:
    """Run the same point sharded; byte-compare against the global queue."""
    _, _, fleet, report = run_point(clients, seed, domains=PARITY_DOMAINS)
    identical = (report == base_report
                 and render_fleet_members(report)
                 == render_fleet_members(base_report))
    if not identical:
        raise AssertionError(
            f"sharded fleet diverged from the global queue at {clients} "
            f"clients ({PARITY_DOMAINS} domains)")
    return {
        "domains": PARITY_DOMAINS,
        "identical": True,
        "cross_messages": fleet.sim.cross_messages,
    }


def sweep(client_counts, seed: int, parity_points=PARITY_POINTS) -> dict:
    points = []
    for clients in client_counts:
        events, seconds, fleet, report = run_point(clients, seed)
        _, _, _, report2 = run_point(clients, seed)
        if report != report2:
            raise AssertionError(
                f"fleet run not deterministic at {clients} clients")
        if not fleet.converged():
            raise AssertionError(f"fleet failed to converge at "
                                 f"{clients} clients")
        writers, files_per_writer = workload_for(clients)
        rate = events / seconds if seconds else 0.0
        point = {
            "clients": clients,
            "events": events,
            "seconds": round(seconds, 3),
            "events_per_sec": round(rate, 1),
            "traffic_bytes": report.traffic_bytes,
            "workload": {"writers": writers,
                         "files_per_writer": files_per_writer},
            "determinism": "verified",
        }
        if clients in parity_points:
            point["sharded_parity"] = check_parity(clients, seed, report)
        points.append(point)
        parity = ("  [sharded parity OK]"
                  if "sharded_parity" in point else "")
        print(f"  {clients:6d} clients: {events:7d} events in "
              f"{seconds:6.2f}s = {rate:,.0f} events/s{parity}")
    return {
        "bench": "fleet_scheduler_throughput",
        "seed": seed,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "peak_clients": max(point["clients"] for point in points),
        "events_per_sec": max(point["events_per_sec"] for point in points),
        "note": ("single-threaded by design: the global (time, seq) order is "
                 "the determinism contract; events/sec is the heapq "
                 "queue's pop+dispatch rate including fan-out notification "
                 "work.  Points marked sharded_parity also ran split into "
                 "4 event domains and matched the single-queue run byte for "
                 "byte (report and rendered member table)."),
        "points": points,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep plus one 1k-client sharded parity "
                             "point; asserts determinism/convergence/parity, "
                             "writes no JSON (CI uses this)")
    parser.add_argument("--clients", type=int, nargs="+",
                        default=list(CLIENT_SWEEP))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    if args.smoke:
        sweep([2, 8, 1_000], args.seed, parity_points=frozenset({1_000}))
        print("smoke sweep OK (determinism, convergence, and sharded "
              "byte-parity verified)")
        return 0

    results = sweep(args.clients, args.seed)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
