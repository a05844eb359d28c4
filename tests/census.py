"""Reachability census: the ``src/repro`` functions that only tests run.

    PYTHONPATH=src python tests/census.py [--jobs 2] [--list]

Each way the project is used outside its tests runs in a child process
under ``sys.setprofile``, which records every ``src/repro`` function the
child calls:

- every registry entry at its defaults: the archived ones through the
  archive runner (``pytest benchmarks --ignore=benchmarks/perf``, whose
  ``bench_args`` is the CLI's default parse), the others as ``python -m
  repro NAME``.  pytest-benchmark pauses any profiler around the call it
  times, so the runner runs with ``--benchmark-disable``: the same calls,
  untimed;
- every ``python -m repro`` line in CI, ``repro list``, ``repro trace``
  and ``repro trace-run`` with ``--out``;
- the examples;
- each ``benchmarks/perf`` workload, run with ``--smoke --trace 1``.

Tier-1 (``pytest -q tests``) then runs the same way.  The census prints
how many function definitions in ``src/repro`` (and how many of their
lines) only tier-1 runs, and how many nothing runs; ``--list`` names them.

Forked pool workers (``repro.trace.pool``) are not followed: a function
that runs only in a worker is reported unreached, so count those by hand.
A function counts as reached when any branch of it runs, so the census
says nothing about dead branches.  The archive runner rewrites
``benchmarks/results``; ``git diff --exit-code benchmarks/results``
afterwards checks it came back byte-identical.  This file's name does not
match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: What CI runs through ``python -m repro``, beyond the registry entries.
CI_LINES = [
    "list",
    "lint src tests",
    "trace --scale 0.01 --out {tmp}/trace.zip",
    "trace-run table6 --access pc --out {tmp}/spans.jsonl",
    "audit fleet --clients 4 --writers 2 --seed 3",
    "audit fleet --service Dropbox --clients 4 --writers 2 --seed 3",
    "audit fleet --clients 8 --writers 2 --seed 3 --domains 4",
    "audit fleet --clients 64 --writers 4 --seed 3",
    "fleet --clients 10000 --writers 4 --seed 3",
    "audit backends",
    "audit strategies",
    "audit table6 --access pc",
    "audit table7 --access pc",
    "audit faults --fault-rate 0.75",
    "audit replay --workers 4 --scale 0.005",
    "replay --scale 0.01 --workers 1",
    "replay --scale 0.01 --workers 3",
]

#: The positional arguments an entry cannot run without, as the CLI's
#: usage text gives them.
REQUIRED = {"probe-dedup": ["Dropbox"]}


def entry_runs(tmp: str):
    """Every non-test run, as ``(label, argv)``; argv is for ``python``."""
    sys.path.insert(0, str(SRC))
    from repro.artifacts import ARTIFACTS

    runs = [("archive runner",
             ["-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
              "--ignore=benchmarks/perf", "--benchmark-disable"])]
    runs += [(f"repro {entry.name}",
              ["-m", "repro", entry.name, *REQUIRED.get(entry.name, [])])
             for entry in ARTIFACTS if not entry.artifacts]
    runs += [(f"repro {line}", ["-m", "repro", *line.format(tmp=tmp).split()])
             for line in CI_LINES]
    runs += [(f"example {path.name}", [str(path)])
             for path in sorted((ROOT / "examples").glob("*.py"))]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs += [(f"perf {workload['name']}",
              [str(ROOT / "benchmarks" / "perf" / "run.py"),
               "--workload", workload["name"], "--smoke", "--trace", "1",
               "--seconds", "1"])
             for workload in spec["workloads"]]
    return runs


def definitions():
    """Every function definition in ``src/repro``, keyed as its code object
    names it: ``(file, first line)``, the first decorator's line if any.
    Values are ``(qualified name, lines)``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(_walk(tree, str(path), ""))
    return found


def _walk(node, filename, prefix):
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            name = f"{prefix}{child.name}"
            yield ((filename, first),
                   (name, child.end_lineno - first + 1))
            name += "."
        elif isinstance(child, ast.ClassDef):
            name = f"{prefix}{child.name}."
        yield from _walk(child, filename, name)


def child(out: str, argv) -> None:
    """Run ``argv`` as ``python`` would, recording every code object that
    starts to run, and write the ``src/repro`` ones to ``out``."""
    seen = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.setdefault(id(code), code)

    status = 0
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            sys.path.insert(0, str(Path(argv[0]).parent))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as done:
        status = done.code if isinstance(done.code, int) else 1
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(PACKAGE) + os.sep
    called = sorted({(code.co_filename, code.co_firstlineno)
                     for code in seen.values()
                     if code.co_filename.startswith(prefix)})
    Path(out).write_text(json.dumps(called))
    sys.exit(status)


def run_all(runs, jobs: int, tmp: str):
    """Run every ``(label, argv)`` under the recorder, ``jobs`` at a time;
    return the union of what they called and the labels that failed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    pending = list(enumerate(runs))
    running = []
    called, failed = set(), []
    while pending or running:
        while pending and len(running) < jobs:
            index, (label, argv) = pending.pop(0)
            out = os.path.join(tmp, f"called-{index}.json")
            process = subprocess.Popen(
                [sys.executable, __file__, "--child", out, "--", *argv],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            running.append((label, out, process, time.monotonic()))
        time.sleep(0.2)
        for item in list(running):
            label, out, process, started = item
            if process.poll() is None:
                continue
            running.remove(item)
            took = time.monotonic() - started
            print(f"  {label}: exit {process.returncode}, {took:.0f} s",
                  flush=True)
            if process.returncode:
                failed.append(label)
            if os.path.exists(out):
                called.update(map(tuple, json.loads(Path(out).read_text())))
    return called, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="child processes at a time")
    parser.add_argument("--list", action="store_true",
                        help="name every test-only and unreached function")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("argv", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child, args.argv)
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        print("entries:", flush=True)
        entries, failed = run_all(entry_runs(tmp), args.jobs, tmp)
        print("tier-1:", flush=True)
        tier1, _ = run_all(
            [("tier-1", ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                         "tests"])], 1, tmp)
    defs = definitions()
    test_only = {key: defs[key] for key in defs
                 if key in tier1 and key not in entries}
    unreached = {key: defs[key] for key in defs
                 if key not in tier1 and key not in entries}
    print(f"{len(defs)} function definitions in src/repro "
          f"({sum(lines for _, lines in defs.values())} lines)")
    for title, group in (("only tier-1 runs", test_only),
                         ("nothing runs", unreached)):
        print(f"{title}: {len(group)} functions, "
              f"{sum(lines for _, lines in group.values())} lines")
        if args.list:
            for (filename, line), (name, lines) in sorted(group.items()):
                where = os.path.relpath(filename, SRC)
                print(f"  {where}:{line} {name} ({lines})")
    print("forked pool workers are not followed: count them by hand")
    if failed:
        print(f"runs that exited non-zero: {', '.join(failed)}")
    print(f"census took {time.monotonic() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
