"""Parallel replay scaling: files/sec and speedup vs. worker count.

The ROADMAP's north star is replaying millions-of-user traces "as fast as
the hardware allows"; this bench quantifies how close the sharded replay
engine (`repro.trace.ReplayPool`) gets.  For each trace scale it times the
sequential estimator, then — per worker count — forks **one** persistent
pool and replays every profile through it (the `replay_all` shape: the
fork cost is paid once, not per profile), verifies the results are
**byte-identical** (canonical JSON of the full report, per-user dicts
included), and writes the sweep to ``BENCH_replay.json`` at the repo root.

Two profiles bracket the sharding protocol:

* ``Dropbox/pc`` — SAME_USER block dedup + IDS + compression + BDS: the
  embarrassingly-parallel case (shards never talk);
* ``UbuntuOne/pc`` — CROSS_USER full-file dedup: every shard retains
  first-occurrence candidates and the two-phase merge settles the
  contested ones through a packed winner table on the settle message.

Usage::

    PYTHONPATH=src python benchmarks/bench_replay.py             # full sweep
    PYTHONPATH=src python benchmarks/bench_replay.py --smoke     # CI guard

The full sweep (scales 1 and 5) regenerates the committed
``BENCH_replay.json``; ``--smoke`` runs a small-scale sweep, asserts
parity, and writes nothing.  Speedup is hardware-bound, so the bench
refuses to stamp a ``speedup`` claim when ``os.cpu_count() == 1``: on a
single-core host every parallel run measures protocol overhead only, and
the JSON carries ``overhead_ratio`` entries plus an explicit annotation
instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

if __package__ is None and __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.client import AccessMethod, service_profile
from repro.trace import ReplayPool, generate_trace, replay_trace

PROFILES = ("Dropbox", "UbuntuOne")
WORKER_SWEEP = (1, 2, 4, 8)
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_replay.json"


def canonical(report) -> str:
    """Byte-exact serialisation: field order and dict order included."""
    return json.dumps(asdict(report))


def multicore_host() -> bool:
    return (os.cpu_count() or 1) > 1


def sweep_scale(scale: float, seed: int, workers=WORKER_SWEEP) -> dict:
    start = time.perf_counter()
    trace = generate_trace(scale=scale, seed=seed)
    generation_seconds = time.perf_counter() - start
    entry = {
        "scale": scale,
        "files": len(trace),
        "generation_seconds": round(generation_seconds, 3),
        "results": {},
    }
    claim_speedup = multicore_host()
    profiles = [service_profile(service, AccessMethod.PC)
                for service in PROFILES]
    references = {}
    for profile in profiles:
        start = time.perf_counter()
        sequential = replay_trace(trace, profile, seed=seed)
        sequential_seconds = time.perf_counter() - start
        references[profile.name] = (canonical(sequential), sequential_seconds)
        entry["results"][profile.name] = {
            "sequential_seconds": round(sequential_seconds, 3),
            "sequential_files_per_sec": round(
                len(trace) / sequential_seconds, 1),
            "parity": "byte-identical",
            "workers": [],
        }

    for count in workers:
        start = time.perf_counter()
        with ReplayPool(trace, workers=count) as pool:
            fork_seconds = time.perf_counter() - start
            for profile in profiles:
                reference, sequential_seconds = references[profile.name]
                start = time.perf_counter()
                parallel = pool.replay(profile, seed=seed)
                seconds = time.perf_counter() - start
                if canonical(parallel) != reference:
                    raise AssertionError(
                        f"parallel replay diverged from sequential: "
                        f"{profile.name}, workers={count}, scale={scale}")
                run = {
                    "workers": count,
                    "fork_seconds": round(fork_seconds, 3),
                    "seconds": round(seconds, 3),
                    "files_per_sec": round(len(trace) / seconds, 1),
                }
                if claim_speedup:
                    run["speedup"] = round(sequential_seconds / seconds, 2)
                else:
                    # One core: a "speedup" here would be a lie — the run
                    # can only measure sharding/merge overhead.
                    run["overhead_ratio"] = round(
                        seconds / sequential_seconds, 2)
                entry["results"][profile.name]["workers"].append(run)

    for profile in profiles:
        runs = entry["results"][profile.name]["workers"]
        label = "speedup" if claim_speedup else "overhead"
        print(f"  {profile.name}: sequential "
              f"{references[profile.name][1]:.2f}s "
              f"({len(trace) / references[profile.name][1]:,.0f} files/s); "
              + ", ".join(
                  f"{r['workers']}w "
                  + (f"{r['speedup']:.2f}x" if claim_speedup
                     else f"{r['overhead_ratio']:.2f}x {label}")
                  for r in runs))
    return entry


def run_sweep(scales, seed: int, workers=WORKER_SWEEP) -> dict:
    cpu_count = os.cpu_count()
    results = {
        "bench": "replay_parallel_scaling",
        "seed": seed,
        "host": {
            "cpu_count": cpu_count,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "scales": [],
    }
    if multicore_host():
        results["note"] = (
            "one persistent ReplayPool per worker count, reused across "
            "profiles (the replay_all shape); speedup is wall-clock vs. "
            "the sequential estimator on this host")
    else:
        results["note"] = (
            "single-core host: speedup claims suppressed — parallel runs "
            "measure sharding/merge protocol overhead only "
            "(overhead_ratio = parallel seconds / sequential seconds)")
    for scale in scales:
        print(f"scale {scale:g}:")
        results["scales"].append(sweep_scale(scale, seed, workers))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small-scale parity/speed sanity run; writes "
                             "no JSON (CI uses this)")
    parser.add_argument("--scales", type=float, nargs="+", default=[1.0, 5.0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    print(f"effective cpu_count: {os.cpu_count()}")
    if args.smoke:
        run_sweep([0.02], args.seed, workers=(1, 4))
        print("smoke sweep OK (parity verified at workers 1 and 4)")
        return 0

    results = run_sweep(args.scales, args.seed)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
