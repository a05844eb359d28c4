"""Command-line interface: regenerate any of the paper's results.

Usage::

    python -m repro list                     # what can be reproduced
    python -m repro table6 [--access pc]     # any table/figure by name
    python -m repro fig6 --service Dropbox
    python -m repro probe-dedup Dropbox      # run Algorithm 1 live
    python -m repro probe-defer GoogleDrive  # infer the sync deferment
    python -m repro trace --scale 0.1 --out trace.zip
    python -m repro replay --scale 0.1       # macro traffic estimate
    python -m repro audit exp8 --fault-rate 0.5   # run w/ conservation audit
    python -m repro trace-run exp1 --out spans.jsonl   # export the span trace

(`trace` generates the statistical-twin workload trace; `trace-run` records
the wire-level *span* trace of an experiment — see EXPERIMENTS.md.)
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from .client import AccessMethod, SERVICES, service_profile
from .reporting import (fmt_tue, render_fleet_members, render_series,
                        render_table, size_cell)
from .units import KB, MB, fmt_size


def _access(value: str) -> AccessMethod:
    return AccessMethod(value.lower())


def cmd_list(_args) -> int:
    rows = [[command.name, command.description]
            for command in COMMANDS if command.handler is not cmd_list]
    print(render_table(["Command", "Reproduces"], rows))
    return 0


def cmd_table6(args) -> int:
    from .core import experiment1_creation
    from .core.experiments import DEFAULT_SIZES
    result = experiment1_creation(access_methods=(args.access,))
    rows = [
        [service] + [size_cell(result.get(service, args.access, size).traffic)
                     for size in DEFAULT_SIZES]
        for service in SERVICES
    ]
    print(render_table(["Service"] + [fmt_size(s) for s in DEFAULT_SIZES],
                       rows, title=f"Table 6 ({args.access.value})"))
    return 0


def cmd_table7(args) -> int:
    from .core import experiment1_batch
    rows = [
        [row.service, size_cell(row.traffic), fmt_tue(row.tue, precision=1)]
        for row in experiment1_batch(access_methods=(args.access,))
    ]
    print(render_table(["Service", "Traffic", "TUE"], rows,
                       title=f"Table 7 ({args.access.value})"))
    return 0


def cmd_table8(args) -> int:
    from .core import experiment4_compression
    rows = [
        [row.service, fmt_size(row.upload_traffic), fmt_size(row.download_traffic)]
        for row in experiment4_compression(access_methods=(args.access,),
                                           size=args.size)
    ]
    print(render_table(["Service", "UP", "DN"], rows,
                       title=f"Table 8 ({args.access.value}, "
                             f"{fmt_size(args.size)} text)"))
    return 0


def cmd_table9(args) -> int:
    from .core import experiment5_dedup
    rows = [[f.service, f.same_user, f.cross_user]
            for f in experiment5_dedup(max_block=args.max_block)]
    print(render_table(["Service", "Same user", "Cross users"], rows,
                       title="Table 9"))
    return 0


def cmd_fig3(args) -> int:
    from .core import experiment1_tue_curve
    curves = experiment1_tue_curve(services=(args.service,))
    print(render_series(curves[args.service], x_label="Size (B)",
                        y_label="TUE", title=f"Figure 3 — {args.service}"))
    return 0


def cmd_fig4(args) -> int:
    from .core import experiment3_modification
    cells = experiment3_modification(services=(args.service,),
                                     access_methods=(args.access,))
    rows = [[fmt_size(cell.size), size_cell(cell.traffic)] for cell in cells]
    print(render_table(["File size", "Traffic"], rows,
                       title=f"Figure 4 — {args.service} ({args.access.value})"))
    return 0


def cmd_fig6(args) -> int:
    from .core import experiment6_frequent_mods
    runs = experiment6_frequent_mods(args.service, xs=range(1, args.max_x + 1),
                                     total=args.total)
    print(render_series([(run.x, run.tue) for run in runs],
                        x_label="X (KB & sec)", y_label="TUE",
                        title=f"Figure 6 — {args.service}"))
    return 0


def cmd_deletion(args) -> int:
    from .core import experiment2_deletion
    rows = [[row.service, fmt_size(row.size), size_cell(row.deletion_traffic)]
            for row in experiment2_deletion(access_methods=(args.access,))]
    print(render_table(["Service", "File size", "Deletion traffic"], rows,
                       title="Experiment 2"))
    return 0


def cmd_probe_dedup(args) -> int:
    from .core.algorithm1 import _paired_sessions, iterative_self_duplication
    session, _ = _paired_sessions(args.service, args.access)
    result = iterative_self_duplication(session, max_block=args.max_block)
    print(f"{args.service}: dedup granularity = {result.label()}")
    for probe in result.rounds:
        print(f"  guess {fmt_size(probe.guess):>9s}: Tr1={fmt_size(probe.tr1)}, "
              f"Tr2={fmt_size(probe.tr2)} → {probe.verdict}")
    return 0


def cmd_probe_defer(args) -> int:
    from .core import infer_sync_deferment
    result = infer_sync_deferment(args.service)
    if result.deferment is None:
        print(f"{args.service}: no fixed sync deferment detected")
    else:
        low, high = result.bracket
        print(f"{args.service}: T ≈ {result.deferment:.2f} s "
              f"(bracketed in [{low:.2f}, {high:.2f}])")
    return 0


def cmd_trace(args) -> int:
    from .trace import generate_trace, save_trace, summary_stats
    trace = generate_trace(scale=args.scale, seed=args.seed)
    stats = summary_stats(trace)
    print(f"{stats.file_count} files / {stats.user_count} users — "
          f"mean {fmt_size(stats.mean_size)}, median {fmt_size(stats.median_size)}, "
          f"{stats.small_fraction:.0%} small, "
          f"compression ratio {stats.compression_ratio:.2f}")
    if args.out:
        save_trace(trace, args.out)
        print(f"written to {args.out}")
    return 0


def cmd_findings(args) -> int:
    from .core import verify_findings
    findings = verify_findings(trace_scale=args.scale)
    rows = [[f.section, f.statement, f.evidence, "OK" if f.holds else "FAIL"]
            for f in findings]
    print(render_table(["§", "Finding", "Measured", "Verdict"], rows,
                       title="Table 5 — major findings, verified"))
    return 0 if all(f.holds for f in findings) else 1


def cmd_upgrades(args) -> int:
    from .core import UPGRADES, quantify_all
    results = quantify_all(services=tuple(args.services))
    by_key = {(r.service, r.upgrade): r for r in results}
    rows = [[service] + [f"{by_key[(service, upgrade)].saving:+.0%}"
                         for upgrade in UPGRADES]
            for service in args.services]
    print(render_table(["Service"] + list(UPGRADES), rows,
                       title="Traffic saved by each §4–§6 upgrade"))
    return 0


def cmd_overuse(args) -> int:
    from .trace import (ReplayPool, generate_trace, replay_trace,
                        traffic_overuse_fraction)
    trace = generate_trace(scale=args.scale, seed=args.seed)
    pool = ReplayPool(trace, workers=args.workers) if args.workers > 1 \
        else None
    rows = []
    try:
        for service in SERVICES:
            profile = service_profile(service, args.access)
            # The replay RNG must see the CLI seed, or every run silently
            # replays at seed=0 regardless of --seed.
            if pool is not None:
                report = pool.replay(profile, seed=args.seed)
            else:
                report = replay_trace(trace, profile, seed=args.seed)
            rows.append([service,
                         f"{traffic_overuse_fraction(report):.1%}"])
    finally:
        if pool is not None:
            pool.close()
    print(render_table(
        ["Service", "Users losing >10% of traffic to modification overuse"],
        rows, title=f"Traffic overuse across the trace (scale {args.scale:g})"))
    return 0


def cmd_fleet(args) -> int:
    from .core import run_collaboration
    from .fleet import Fleet, schedule_writer_workload
    from .obs import AuditViolation, TraceHub, recording
    from .simnet import bj_link, mn_link

    link = bj_link() if args.link == "bj" else mn_link()
    writers = min(args.writers, args.clients)
    hub = TraceHub()
    try:
        with recording(hub=hub, jsonl=args.trace):
            fleet = Fleet(args.service, access=args.access,
                          clients=args.clients, link_spec=link,
                          seed=args.seed, domains=args.domains)
            schedule_writer_workload(fleet, writers=writers,
                                     files_per_writer=args.files,
                                     file_size=args.size, seed=args.seed)
            fleet.run_until_idle()
            if args.audit:
                fleet.audit()
    except AuditViolation as violation:
        print(f"AUDIT FAILED: {violation}")
        return 1
    report = fleet.report()
    print(render_fleet_members(
        report,
        title=f"Fleet — {report.service}, {report.clients} clients, "
              f"{writers} writer(s), seed {args.seed}"))
    if args.domains > 1:
        print(f"{args.domains} event domains, "
              f"{fleet.sim.cross_messages} cross-domain messages "
              f"(byte-identical to the single-queue run by construction)")
    # Amplification is normalised against the same workload driven by a
    # single solo writer (no fan-out targets).
    baseline = run_collaboration(args.service, access=args.access, writers=1,
                                 clients=1, files_per_writer=args.files,
                                 file_size=args.size, seed=args.seed,
                                 link_spec=link)
    print(f"fleet TUE {fmt_tue(report.tue)} over "
          f"{report.commit_epochs} commit epoch(s); amplification "
          f"{fmt_tue(report.amplification(baseline))}x vs a solo writer")
    if args.trace:
        print(f"span trace written to {args.trace}")
    if args.audit:
        print(f"conservation + fan-out audit passed: {hub.span_count} spans "
              f"across {len(hub.recorders)} session(s), 0 violations")
    return 0


def cmd_replay(args) -> int:
    from .trace import (ReplayPool, generate_trace, iter_trace_records,
                        replay_all)
    if args.stream:
        # Stream records straight into the worker shards: the parent never
        # materialises the trace (the scale-50 regime).
        with ReplayPool.from_records(
                iter_trace_records(scale=args.scale, seed=args.seed),
                workers=args.workers) as pool:
            reports = replay_all(access=args.access, seed=args.seed,
                                 pool=pool)
            file_count = pool.record_count
    else:
        trace = generate_trace(scale=args.scale, seed=args.seed)
        reports = replay_all(trace, access=args.access, seed=args.seed,
                             workers=args.workers)
        file_count = len(trace)
    rows = [
        [report.service, fmt_size(report.traffic_bytes), fmt_tue(report.tue),
         fmt_size(report.saved_by_compression), fmt_size(report.saved_by_dedup),
         fmt_size(report.saved_by_bds), fmt_size(report.saved_by_ids)]
        for report in reports
    ]
    print(render_table(
        ["Service", "Traffic", "TUE", "Δcompress", "Δdedup", "Δbds", "Δids"],
        rows, title=f"Macro replay (scale {args.scale:g}, "
                    f"{file_count} files, {args.access.value})"))
    return 0


#: Small-but-representative targets for traced/audited runs: each exercises
#: a different slice of the wire model while staying fast enough for CI;
#: ``all`` runs every one before it.
OBS_TARGETS = ("exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7",
               "exp8", "exp10", "exp11", "replay", "all")


def _obs_run_target(args, target: str) -> str:
    """Run one audit/trace target; returns a short human description."""
    service = args.service
    access = args.access
    if target == "all":
        for name in OBS_TARGETS[:-1]:
            _obs_run_target(args, name)
        return ", ".join(OBS_TARGETS[:-1])
    if target == "exp1":
        from .core import measure_creation
        for size in (1, 1 * KB, 1 * MB):
            measure_creation(service, access, size)
        return f"experiment 1 (creation, {service})"
    if target == "exp2":
        from .core import experiment2_deletion
        experiment2_deletion(services=(service,), access_methods=(access,),
                             sizes=(1 * KB, 1 * MB))
        return f"experiment 2 (deletion, {service})"
    if target == "exp3":
        from .core import measure_modification
        measure_modification(service, access, 64 * KB)
        return f"experiment 3 (modification, {service})"
    if target == "exp4":
        from .core import measure_compression
        measure_compression(service, access, size=1 * MB)
        return f"experiment 4 (compression, {service})"
    if target == "exp5":
        from .core.algorithm1 import _paired_sessions, iterative_self_duplication
        session, _ = _paired_sessions(service, access)
        iterative_self_duplication(session, max_block=2 * MB)
        return f"experiment 5 (dedup probe, {service})"
    if target == "exp6":
        from .core import experiment6_frequent_mods
        experiment6_frequent_mods(service, xs=(1.0, 2.0, 4.0), total=64 * KB)
        return f"experiment 6 (frequent modifications, {service})"
    if target == "exp7":
        from .core import run_appending
        from .simnet import bj_link
        run_appending(service, 1.0, total=64 * KB, access=access,
                      link_spec=bj_link())
        return f"experiment 7 (BJ vantage appending, {service})"
    if target == "exp8":
        from .core import run_faulty_sync
        run_faulty_sync(service, fault_rate=args.fault_rate, resumable=False,
                        file_count=2, file_size=512 * KB, unit_size=128 * KB)
        return (f"experiment 8 (faults at rate {args.fault_rate:g}, "
                f"{service})")
    if target == "exp10":
        from .core import run_backend_cell
        run_backend_cell("packshard", "paper", files=24)
        return "experiment 10 (packed-shard bundled commit)"
    if target == "exp11":
        from .core import run_strategy_cell
        # One static and the adaptive selector over the delta-friendly
        # workload: exercises every new span kind (strategy-select,
        # delta-exchange) plus the strategy-conservation invariant.
        for name in ("fixed-delta", "set-reconcile", "adaptive"):
            run_strategy_cell(name, "scatter-edit", "mn", files=2,
                              seed=args.seed)
        return "experiment 11 (sync strategies, scatter-edit over MN)"
    if target == "replay":
        from .trace import ReplayPool, generate_trace
        trace = generate_trace(scale=args.scale, seed=args.seed)
        profile = service_profile(service, access)
        with ReplayPool(trace, workers=args.workers) as pool:
            # replay_audited checks the per-report invariants *and* that
            # the shard merge (settle credits included) conserved bytes.
            pool.replay_audited(profile, seed=args.seed)
        return (f"parallel replay (scale {args.scale:g}, "
                f"{args.workers} worker(s), {service})")
    raise ValueError(f"unknown target {target!r}")


def _cmd_observed(args, audit: bool) -> int:
    """Shared body of `repro audit` and `repro trace-run`."""
    from .obs import AuditViolation, TraceHub, audit_hub, recording
    from .reporting import render_phase_breakdown

    hub = TraceHub()
    out = getattr(args, "out", None)
    try:
        with recording(hub=hub, jsonl=out):
            description = _obs_run_target(args, args.target)
        if audit:
            audit_hub(hub)
    except AuditViolation as violation:
        print(f"AUDIT FAILED: {violation}")
        return 1
    if hub.recorders:
        print(render_phase_breakdown(
            hub, title=f"Per-phase breakdown — {description}"))
    if out:
        print(f"span trace written to {out}")
    if audit:
        print(f"conservation audit passed: {hub.span_count} spans across "
              f"{len(hub.recorders)} session(s), 0 violations")
    return 0


#: Baseline applied by default when the file exists (repo root); passing
#: --baseline explicitly makes a missing file an error instead.
DEFAULT_BASELINE = "reprolint-baseline.json"


def cmd_lint(args) -> int:
    import json as _json
    import os.path

    from .lint import ALL_RULES, lint_paths

    baseline = args.baseline
    if baseline is None:
        baseline = DEFAULT_BASELINE if os.path.exists(DEFAULT_BASELINE) \
            else None
    elif not os.path.exists(baseline):
        print(f"error: baseline file {baseline!r} does not exist",
              file=sys.stderr)
        return 2
    result = lint_paths(args.paths, ALL_RULES, baseline_path=baseline)

    stale_fails = bool(result.stale) and args.fail_stale
    if args.format == "json":
        payload = {
            "files": result.file_count,
            "findings": [finding.to_dict() for finding in result.findings],
            "baseline_applied": result.baseline_applied,
            "stale_baseline": [
                {"rule": entry.rule, "path": entry.path,
                 "comment": entry.comment}
                for entry in result.stale],
        }
        print(_json.dumps(payload, indent=2))
        return 1 if (result.findings or stale_fails) else 0

    for finding in result.findings:
        print(finding.format())
    for entry in result.stale:
        print(f"{'error' if args.fail_stale else 'warning'}: stale baseline "
              f"entry {entry.rule} for {entry.path} — the finding no longer "
              f"fires; remove the suppression")
    status = "FAILED" if (result.findings or stale_fails) else "ok"
    print(f"reprolint: {result.file_count} file(s), "
          f"{len(result.findings)} finding(s), "
          f"{result.baseline_applied} baselined, "
          f"{len(result.stale)} stale — {status}")
    return 1 if (result.findings or stale_fails) else 0


def cmd_backends(args) -> int:
    from .core import experiment10_backends
    from .obs import AuditViolation, audit_hub, recording
    from .reporting import render_backend_matrix

    title = f"Experiment 10 — storage backends (seed {args.seed})"
    if args.audit:
        try:
            with recording() as hub:
                cells = experiment10_backends(files=args.files,
                                              seed=args.seed)
            audit_hub(hub)
        except AuditViolation as violation:
            print(f"AUDIT FAILED: {violation}")
            return 1
    else:
        cells = experiment10_backends(files=args.files, seed=args.seed)
    print(render_backend_matrix(cells, title=title))
    by_key = {(c.backend, c.mix): c for c in cells}
    chunk = by_key.get(("chunk", "paper"))
    shard = by_key.get(("packshard", "paper"))
    if chunk and shard and shard.rest_ops_per_file > 0:
        ratio = chunk.rest_ops_per_file / shard.rest_ops_per_file
        print(f"paper mix: packshard issues {ratio:.1f}x fewer REST ops/file "
              f"than the chunk store")
    if args.audit:
        print("conservation audit passed (incl. bundle-conservation and "
              "rest-conservation)")
    return 0


def cmd_strategies(args) -> int:
    from .core import experiment11_strategies
    from .obs import AuditViolation, audit_hub, recording
    from .reporting import render_strategy_matrix

    title = f"Experiment 11 — sync strategies (seed {args.seed})"
    if args.audit:
        try:
            with recording() as hub:
                cells = experiment11_strategies(files=args.files,
                                                seed=args.seed)
            audit_hub(hub)
        except AuditViolation as violation:
            print(f"AUDIT FAILED: {violation}")
            return 1
    else:
        cells = experiment11_strategies(files=args.files, seed=args.seed,
                                        audit=False)
    print(render_strategy_matrix(cells, title=title))
    adaptive = {(c.workload, c.link): c.tue
                for c in cells if c.strategy == "adaptive"}
    dominated = all(
        adaptive[(c.workload, c.link)] <= c.tue + 1e-12
        for c in cells
        if c.strategy != "adaptive" and (c.workload, c.link) in adaptive)
    print("adaptive selector TUE <= every static strategy on every cell: "
          + ("yes" if dominated else "NO"))
    if args.audit:
        print("conservation audit passed (incl. strategy-conservation)")
    return 0 if dominated else 1


def cmd_audit(args) -> int:
    return _cmd_observed(args, audit=True)


def cmd_trace_run(args) -> int:
    return _cmd_observed(args, audit=args.audit)


class Command(NamedTuple):
    """One subcommand, stated once: ``build_parser`` registers ``name`` with
    its ``handler`` and ``arguments`` (flag -> ``add_argument`` options), and
    ``repro list`` prints ``name`` beside ``description`` — so a command
    cannot be registered without being listed, or listed without existing."""

    name: str
    description: str
    handler: Callable[[argparse.Namespace], int]
    arguments: Dict[str, Dict[str, Any]] = {}


_ACCESS = dict(type=_access, default=AccessMethod.PC)
_MAX_BLOCK = dict(type=int, default=16 * MB, dest="max_block")
_AUDIT = dict(action="store_true")
_OBSERVED = {
    "target": dict(choices=OBS_TARGETS),
    "--service": dict(default="Dropbox"),
    "--access": _ACCESS,
    "--fault-rate": dict(type=float, default=0.5, dest="fault_rate"),
    "--scale": dict(type=float, default=0.005),
    "--seed": dict(type=int, default=42),
    "--workers": dict(type=int, default=2),
}

#: Every subcommand, in ``repro list`` order.
COMMANDS = (
    Command("list", "what can be reproduced", cmd_list),
    Command("table6", "creation sync traffic (6 services × 3 access methods)",
            cmd_table6, {"--access": _ACCESS}),
    Command("table7", "batched-data-sync traffic for 100 × 1 KB files",
            cmd_table7, {"--access": _ACCESS}),
    Command("table8", "compression: 10-MB text file UP/DN", cmd_table8,
            {"--access": _ACCESS, "--size": dict(type=int, default=10 * MB)}),
    Command("table9", "dedup granularity via Algorithm 1", cmd_table9,
            {"--max-block": _MAX_BLOCK}),
    Command("fig3", "TUE vs. created-file size", cmd_fig3,
            {"--service": dict(default="GoogleDrive")}),
    Command("fig4", "one-byte modification traffic", cmd_fig4,
            {"--service": dict(default="Dropbox"), "--access": _ACCESS}),
    Command("fig6", "frequent modifications (X KB / X sec)", cmd_fig6,
            {"--service": dict(default="GoogleDrive"),
             "--max-x": dict(type=int, default=10, dest="max_x"),
             "--total": dict(type=int, default=256 * KB)}),
    Command("deletion", "Experiment 2: deletion traffic", cmd_deletion,
            {"--access": _ACCESS}),
    Command("probe-dedup", "run Algorithm 1 against one service",
            cmd_probe_dedup,
            {"service": dict(), "--access": _ACCESS,
             "--max-block": _MAX_BLOCK}),
    Command("probe-defer", "infer a service's fixed sync deferment",
            cmd_probe_defer, {"service": dict()}),
    Command("trace", "generate the statistical-twin trace", cmd_trace,
            {"--scale": dict(type=float, default=0.1),
             "--seed": dict(type=int, default=42),
             "--out": dict(default=None)}),
    Command("replay", "macro trace-replay traffic estimate", cmd_replay,
            {"--scale": dict(type=float, default=0.05),
             "--seed": dict(type=int, default=42),
             "--access": _ACCESS,
             "--workers": dict(type=int, default=1),
             "--stream": dict(action="store_true",
                              help="stream records into the pool instead of "
                                   "materialising the trace")}),
    Command("findings", "verify every Table 5 finding live", cmd_findings,
            {"--scale": dict(type=float, default=0.1)}),
    Command("upgrades", "savings from retrofitting each recommendation",
            cmd_upgrades,
            {"--services": dict(nargs="+", default=list(SERVICES))}),
    Command("overuse", "per-user traffic-overuse statistic ([36])",
            cmd_overuse,
            {"--scale": dict(type=float, default=0.03),
             "--seed": dict(type=int, default=42),
             "--access": _ACCESS,
             "--workers": dict(type=int, default=1)}),
    Command("fleet", "shared-folder fleet: N writers, fan-out amplification",
            cmd_fleet,
            {"--service": dict(default="GoogleDrive"),
             "--access": _ACCESS,
             "--clients": dict(type=int, default=4),
             "--writers": dict(type=int, default=2),
             "--seed": dict(type=int, default=0),
             "--files": dict(type=int, default=2),
             "--size": dict(type=int, default=64 * KB),
             "--link": dict(choices=("mn", "bj"), default="mn"),
             "--domains": dict(type=int, default=1),
             "--trace": dict(default=None),
             "--audit": _AUDIT}),
    Command("backends", "Experiment 10: storage backends × file-size mixes",
            cmd_backends,
            {"--files": dict(type=int, default=None),
             "--seed": dict(type=int, default=0),
             "--audit": _AUDIT}),
    Command("strategies",
            "Experiment 11: sync strategies × workloads × links",
            cmd_strategies,
            {"--files": dict(type=int, default=3),
             "--seed": dict(type=int, default=0),
             "--audit": _AUDIT}),
    Command("audit", "run an experiment under the byte-conservation auditor",
            cmd_audit, dict(_OBSERVED, **{"--trace": dict(default=None,
                                                          dest="out")})),
    Command("trace-run",
            "record an experiment's wire-level span trace (JSONL)",
            cmd_trace_run, dict(_OBSERVED, **{"--out": dict(required=True),
                                              "--audit": _AUDIT})),
    Command("lint", "reprolint: static determinism/conservation invariants",
            cmd_lint,
            {"paths": dict(nargs="*", default=["src"]),
             "--format": dict(choices=("text", "json"), default="text"),
             "--baseline": dict(default=None),
             "--fail-stale": dict(action="store_true", dest="fail_stale")}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Towards Network-level Efficiency for Cloud "
                    "Storage Services' (IMC 2014)")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        subparser = sub.add_parser(command.name)
        subparser.set_defaults(fn=command.handler)
        for flag, options in command.arguments.items():
            subparser.add_argument(flag, **options)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
