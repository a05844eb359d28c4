"""One measurement spine: every workload, every metric, one command.

    python3 benchmarks/perf/run.py                      # all workloads
    python3 benchmarks/perf/run.py --traced             # per-layer metrics
    python3 benchmarks/perf/run.py --workload sync-edit --seed 7 \
        --seconds 10 --trace 0                          # one run, as CI calls it

With ``--workload`` this process *is* the run: it sets up, measures for
``--seconds``, checks outputs, prints every metric by name with its unit and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
Without it, each workload runs that way in a fresh child process, one at a
time (so ``peak_rss_mb`` and ``import repro`` are paid per workload), and the
collected results land in ``benchmarks/perf/out/``.

Host time and simulated time are different things.  ``ops_per_s``,
``setup_s`` and ``peak_rss_mb`` are host numbers: noisy, bounded in
BENCHMARK.json.  ``tue``, ``sim_digest`` and every count are simulated
numbers: exact for a seed, and a change that only speeds the simulator up
must leave them identical.  See README.md for the glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
TRAJECTORY = HERE / "trajectory.jsonl"

#: Set-ups per run (``setup_s`` is their median) and the fewest timed passes
#: a run may report a median of, as (standard, smoke).
SETUP_REPEATS = (3, 1)
MIN_PASSES = (3, 2)
#: Untraced passes a traced run times to have a base for its overhead ratio.
BASE_PASSES = 3


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def load_program() -> Tuple[Any, float]:
    """Import the workloads against this checkout's ``src/``; the seconds
    that takes are the ``import repro`` part of ``setup_s``."""
    start = time.perf_counter()
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} "
                         f"is missing")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads, time.perf_counter() - start


def quartiles(values: List[float]) -> Dict[str, Any]:
    q1, median, q3 = (statistics.quantiles(values, n=4)
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def host_stamp(seed: int) -> Dict[str, Any]:
    import numpy
    commit = git("rev-parse", "HEAD") or "unknown"
    if git("status", "--porcelain"):
        commit += "+dirty"      # measured tree = that commit plus local edits
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
    }


def cpu_seconds() -> float:
    """CPU this process and the workers it has reaped have used."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


class Checks:
    """Attempted and failed, over ops and output checks alike."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def add_pass(self, summary, reference) -> None:
        # Every op is attempted; an op can only be shown to have failed
        # through an output check, and the digest is one more check.
        self.add(summary.ops + summary.attempted + 1,
                 summary.failed + int(summary.digest != reference.digest))


# -- one run ------------------------------------------------------------------

def timed_pass(workload, tracer) -> Tuple[Any, float]:
    gc.collect()
    start = time.perf_counter()
    raw = workload.run_pass(tracer)
    return raw, time.perf_counter() - start


def measure_end_to_end(workload_cls, seed: int, size: Dict[str, Any],
                       seconds: float, smoke: bool,
                       import_s: float) -> Tuple[Dict, Dict, Checks]:
    from tracing import NULL_TRACER
    checks = Checks()

    # Set-up, several times over: import (paid once) + inputs + warm-up pass.
    setups: List[float] = []
    workload = None
    for _ in range(SETUP_REPEATS[smoke]):
        if workload is not None:
            workload.close()
        gc.collect()
        start = time.perf_counter()
        workload = workload_cls(seed, size)
        workload.setup(NULL_TRACER)
        raw = workload.run_pass(NULL_TRACER)
        setups.append(import_s + time.perf_counter() - start)
        reference = workload.summarise(raw)
        raw = None
        checks.add_pass(reference, reference)

    rates: List[float] = []
    raw = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(rates) < MIN_PASSES[smoke]:
        raw, elapsed = timed_pass(workload, NULL_TRACER)
        summary = workload.summarise(raw)
        raw = None      # the previous pass's output is dropped before the next
        rates.append(summary.ops / elapsed)
        checks.add_pass(summary, reference)

    checks.add(*workload.verify(reference))
    workers = getattr(workload, "workers", None)
    workload.close()    # reaps pool workers, so RUSAGE_CHILDREN sees them
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": peak_kb / 1024,
        "tue": reference.tue,
    }
    detail = {
        "size": size,
        "ops_per_pass": reference.ops,
        "ops_per_s": quartiles(rates),
        "setup_s": dict(quartiles(setups), import_s=import_s),
        "peak_rss_mb": metrics["peak_rss_mb"],
        "tue": reference.tue,
        "sim_digest": reference.digest,
        "failed_share": checks.failed / checks.attempted,
    }
    if workers is not None:
        detail["pool_workers"] = workers
    return metrics, detail, checks


def measure_layers(workload_cls, seed: int, size: Dict[str, Any], smoke: bool,
                   names: List[str]) -> Tuple[Dict, Dict, Checks]:
    from tracing import NULL_TRACER, Tracer
    checks = Checks()
    tracer = Tracer()

    workload = workload_cls(seed, size)
    with tracer.span("setup"):
        workload.setup(tracer)
    raw, _ = timed_pass(workload, NULL_TRACER)      # warm-up
    reference = workload.summarise(raw)
    checks.add_pass(reference, reference)
    base = []
    for _ in range(BASE_PASSES if not smoke else 1):
        raw, elapsed = timed_pass(workload, NULL_TRACER)
        base.append(elapsed)

    gc.collect()
    with tracer.span("pass") as root:
        raw = workload.run_pass(tracer)
    summary = workload.summarise(raw)
    # Proxies and probes sit outside the program: the traced pass must
    # simulate exactly what the untraced one did.
    checks.add_pass(summary, reference)
    checks.add(*workload.verify(reference))
    layers = workload.layers(tracer, raw, summary)
    checks.add(layers.attempted, layers.failed)
    workers = getattr(workload, "workers", None)
    workload.close()

    measured = dict(layers.metrics)
    measured["bench.trace_overhead_ratio"] = \
        root.duration / statistics.median(base)
    measured["host.cpu_s"] = cpu_seconds()
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise SystemExit(f"per-layer metrics missing from BENCHMARK.json: "
                         f"{unknown}")
    # A layer the workload never enters did no work and took no time there.
    metrics = {name: measured.get(name, 0) for name in names}

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload_cls.name}.spans.jsonl"
    tracer.write_jsonl(spans_path)
    detail = {
        "size": size,
        "sim_digest": summary.digest,
        "traced_pass_s": root.duration,
        "untraced_pass_s": quartiles(base),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failed_share": checks.failed / checks.attempted,
    }
    if workers is not None:
        detail["pool_workers"] = workers
    return metrics, detail, checks


def run_one(name: str, seed: int, seconds: float, trace: int,
            smoke: bool = False, workload_cls=None) -> Dict[str, Any]:
    """Measure one workload in this process and return its result.

    ``workload_cls`` overrides the registered class (the smoke test injects
    broken ones to see ``failed`` rise).
    """
    spec = load_spec()
    program, import_s = load_program()
    workload_cls = workload_cls or program.WORKLOADS[name]
    size = program.SIZES["smoke" if smoke else "standard"][name]
    if trace:
        declared = spec["per_layer"]
        metrics, detail, checks = measure_layers(
            workload_cls, seed, size, smoke,
            [metric["name"] for metric in declared])
    else:
        declared = spec["end_to_end"]
        metrics, detail, checks = measure_end_to_end(
            workload_cls, seed, size, seconds, smoke, import_s)
    units = {metric["name"]: metric["unit"] for metric in declared}
    detail.update(workload=name, seed=seed, trace=trace, smoke=smoke)
    return {
        "result": {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {metric: {"value": value, "unit": units[metric]}
                        for metric, value in metrics.items()},
        },
        "detail": detail,
    }


def print_run(run: Dict[str, Any]) -> None:
    detail, result = run["detail"], run["result"]
    print(f"== {detail['workload']} (seed {detail['seed']}, "
          f"{'traced' if detail['trace'] else 'untraced'}) "
          f"sim_digest={detail['sim_digest']} "
          f"failed={result['failed']}/{result['attempted']}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:44s} {shown:>14s} {metric['unit']}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))


# -- every workload, each in its own process ----------------------------------

def run_all(args, spec) -> int:
    names = [workload["name"] for workload in spec["workloads"]]
    OUT.mkdir(exist_ok=True)
    collected = {"host": host_stamp(args.seed), "seconds": args.seconds,
                 "trace": args.trace, "smoke": args.smoke, "workloads": {}}
    failed = 0
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=600)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise SystemExit(f"workload {name} exited {child.returncode}")
        lines = child.stdout.splitlines()
        detail = next(json.loads(line[len("detail "):]) for line in lines
                      if line.startswith("detail "))
        result = json.loads(lines[-1])
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith("detail ")))
        failed += result["failed"]
        collected["workloads"][name] = {"result": result, "detail": detail}
        if "pool_workers" in detail:
            collected["host"]["pool_workers"] = detail["pool_workers"]
    target = OUT / ("result.traced.json" if args.trace else "result.json")
    with open(target, "w") as handle:
        json.dump(collected, handle, indent=1)
    print(f"wrote {target.relative_to(ROOT)}")
    if args.record:
        entry = {"host": collected["host"], "seconds": args.seconds,
                 "trace": args.trace, "workloads": {
                     # A layer the workload never enters reads 0: left out.
                     name: {metric: value["value"] for metric, value
                            in run["result"]["metrics"].items()
                            if value["value"]}
                     for name, run in collected["workloads"].items()}}
        with open(TRAJECTORY, "a") as handle:
            handle.write(json.dumps(entry) + "\n")
        print(f"appended to {TRAJECTORY.relative_to(ROOT)}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="how long one run keeps timing passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced pass, per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: exercises the harness, measures "
                             "nothing worth keeping")
    parser.add_argument("--record", action="store_true",
                        help="append this run to trajectory.jsonl")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    run = run_one(args.workload, args.seed, args.seconds, args.trace,
                  smoke=args.smoke)
    print_run(run)
    return 0    # a failed check is reported in the result, not the exit code


if __name__ == "__main__":
    sys.exit(main())
