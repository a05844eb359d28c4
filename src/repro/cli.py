"""Command-line interface: regenerate any of the paper's results.

Usage::

    python -m repro list                     # what can be reproduced
    python -m repro table6 [--access pc]     # any table/figure by name
    python -m repro fig6 --service Dropbox
    python -m repro probe-dedup Dropbox      # run Algorithm 1 live
    python -m repro probe-defer GoogleDrive  # infer the sync deferment
    python -m repro trace --scale 0.1 --out trace.zip
    python -m repro replay --scale 0.1       # macro traffic estimate
    python -m repro audit faults --fault-rate 0.5   # run w/ conservation audit
    python -m repro trace-run table6 --access pc --out spans.jsonl

Every reproduced artifact is one entry of :data:`repro.artifacts.ARTIFACTS`;
``repro NAME``, ``repro audit NAME`` and ``repro trace-run NAME`` all run
and render through it.  (`trace` generates the statistical-twin workload
trace; `trace-run` records the wire-level *span* trace of a run — see
EXPERIMENTS.md.)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .artifacts import ARTIFACTS, Artifact, add_arguments
from .reporting import render_table
from .units import fmt_size


def cmd_list(_args) -> int:
    rows = [[entry.name, entry.description,
             ", ".join(entry.artifacts) or "—"] for entry in ARTIFACTS]
    print(render_table(["Name", "Reproduces", "benchmarks/results"], rows))
    print()
    print(render_table(["Command", "Does"], [
        [name, spec[0]] for name, spec in {**OBSERVERS, **TOOLS}.items()
        if name != "list"]))
    return 0


def run_artifact(entry: Artifact, args) -> int:
    """Run ``entry`` and print what it renders.

    ``args.audit`` and ``args.out`` put the run under a span recorder: the
    conservation audit runs over every recorded session (``run`` checks
    its own out-of-ledger invariants when told it is audited) and ``out``
    receives the span trace as JSONL.
    """
    from .obs import INVARIANTS, AuditViolation, TraceHub, audit_hub, recording
    from .reporting import render_phase_breakdown

    observed = args.audit or args.out
    hub = TraceHub()
    try:
        if observed:
            with recording(hub=hub, jsonl=args.out):
                result = entry.run(args)
            if args.audit:
                audit_hub(hub)
        else:
            result = entry.run(args)
    except AuditViolation as violation:
        print(f"AUDIT FAILED: {violation}")
        return 1
    except ValueError as error:
        print(f"repro {entry.name}: error: {error}", file=sys.stderr)
        return 2
    for text in entry.render(args, result).values():
        print(text)
    if hub.recorders:
        print(render_phase_breakdown(
            hub, title=f"Per-phase breakdown — {entry.name}"))
    if args.out:
        print(f"span trace written to {args.out}")
    if args.audit:
        span_rows = [row.name for row in INVARIANTS
                     if row.inputs == ("recorder",)]
        print(f"conservation audit passed ({', '.join(span_rows)}): "
              f"{hub.span_count} spans across {len(hub.recorders)} "
              f"session(s), 0 violations")
    return 0 if entry.ok is None or entry.ok(result) else 1


def cmd_trace(args) -> int:
    from .trace import generate_trace, save_trace, summary_stats
    try:
        trace = generate_trace(scale=args.scale, seed=args.seed)
    except ValueError as error:
        print(f"repro trace: error: {error}", file=sys.stderr)
        return 2
    stats = summary_stats(trace)
    print(f"{stats.file_count} files / {stats.user_count} users — "
          f"mean {fmt_size(stats.mean_size)}, median {fmt_size(stats.median_size)}, "
          f"{stats.small_fraction:.0%} small, "
          f"compression ratio {stats.compression_ratio:.2f}")
    if args.out:
        save_trace(trace, args.out)
        print(f"written to {args.out}")
    return 0


def cmd_lint(args) -> int:
    from .lint import ALL_RULES, lint_paths

    result = lint_paths(args.paths, ALL_RULES)
    for finding in result.findings:
        print(finding.format())
    print(f"reprolint: {result.file_count} file(s), "
          f"{len(result.findings)} finding(s) — "
          f"{'ok' if result.ok else 'FAILED'}")
    return 0 if result.ok else 1


#: The commands that are not reproduced artifacts: name -> (description,
#: handler, flag -> ``add_argument`` options).
TOOLS = {
    "list": ("what can be reproduced", cmd_list, {}),
    "trace": ("generate the statistical-twin trace", cmd_trace,
              {"--scale": dict(type=float, default=0.1),
               "--seed": dict(type=int, default=42),
               "--out": dict(default=None)}),
    "lint": ("reprolint: static determinism/conservation invariants",
             cmd_lint,
             {"paths": dict(nargs="*", default=["src"])}),
}

#: ``repro audit NAME`` and ``repro trace-run NAME``: each takes any
#: registry entry with that entry's own flags, plus these.
OBSERVERS = {
    "audit": ("run an artifact under the byte-conservation auditor",
              {"--trace": dict(default=None, dest="out")}, {"audit": True}),
    "trace-run": ("record an artifact's wire-level span trace (JSONL)",
                  {"--out": dict(required=True),
                   "--audit": dict(action="store_true")}, {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Towards Network-level Efficiency for Cloud "
                    "Storage Services' (IMC 2014)")
    sub = parser.add_subparsers(dest="command", required=True)
    for entry in ARTIFACTS:
        add_arguments(sub.add_parser(entry.name, help=entry.description),
                      entry)
    for name, (description, extra, defaults) in OBSERVERS.items():
        targets = sub.add_parser(name, help=description).add_subparsers(
            dest="target", required=True)
        for entry in ARTIFACTS:
            subparser = targets.add_parser(entry.name)
            add_arguments(subparser, entry)
            for flag, options in extra.items():
                subparser.add_argument(flag, **options)
            subparser.set_defaults(**defaults)
    for name, (description, handler, arguments) in TOOLS.items():
        subparser = sub.add_parser(name, help=description)
        subparser.set_defaults(fn=handler)
        for flag, options in arguments.items():
            subparser.add_argument(flag, **options)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if "fn" in vars(args):
        return args.fn(args)
    args.out = getattr(args, "out", None)
    return run_artifact(args.entry, args)


if __name__ == "__main__":
    sys.exit(main())
