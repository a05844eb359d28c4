"""Beyond the paper's figures: failures, macro replay, fleets, backends and
sync strategies, one registry entry each."""

from __future__ import annotations

from ..client import SERVICES
from ..core import (BACKENDS, FILE_MIXES, MIX_FILES, STRATEGIES,
                    STRATEGY_LINKS, STRATEGY_WORKLOADS, Cell, backend_profile,
                    churn, faulty, measure, run_collaboration,
                    run_strategy_cell, uploads)
from ..fleet import Fleet, schedule_writer_workload
from ..reporting import (fmt_tue, render_backend_matrix,
                         render_fleet_members, render_strategy_matrix,
                         render_table)
from ..simnet import bj_link, mn_link
from ..trace import generate_trace, replay_all, traffic_overuse_fraction
from ..units import KB, fmt_size
from .base import ACCESS, SEED, TRACE_SEED, Artifact, service_name

# -- Experiment 8: TUE under failure ---------------------------------------

FAULT_RATES = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)


def _faults(args):
    """``{(rate, resumable): Reading}``, the resumable sweep first."""
    return {(rate, resumable): measure(faulty(uploads(), rate, resumable))
            for resumable in (True, False) for rate in args.fault_rates}


def _render_faults(args, readings):
    rows = []
    for rate in args.fault_rates:
        resume, restart = readings[rate, True], readings[rate, False]
        rows.append([f"{rate:.2f}",
                     f"{restart.tue:.3f}", f"{restart.wasted:,}",
                     f"{resume.tue:.3f}", f"{resume.wasted:,}"])
    return {"exp8_faults": render_table(
        ["fault rate", "TUE (restart)", "wasted B (restart)",
         "TUE (resume)", "wasted B (resume)"], rows,
        title="Experiment 8 — TUE vs. fault rate, by recovery design")}


# -- §1/§3 macro replay and the traffic-overuse statistic ------------------

def _paper_replay(args):
    # The paper's twin, replayed at the estimator's own default seed.
    trace = generate_trace(scale=0.3, seed=TRACE_SEED)
    return replay_all(trace, audit=args.audit), len(trace)


def _replay(args):
    # The replay RNG must see --seed, or every run silently replays at
    # seed=0 regardless of it.
    trace = generate_trace(scale=args.scale, seed=args.seed)
    return replay_all(trace, access=args.access, seed=args.seed,
                      workers=args.workers, audit=args.audit), len(trace)


def _render_replay(args, result):
    reports, files = result
    rows = [[report.service, fmt_size(report.traffic_bytes),
             fmt_tue(report.tue), fmt_size(report.saved_by_compression),
             fmt_size(report.saved_by_dedup), fmt_size(report.saved_by_bds),
             fmt_size(report.saved_by_ids)]
            for report in reports]
    return {"trace_replay": render_table(
        ["Service", "Traffic", "TUE", "Δcompression", "Δdedup", "Δbds",
         "Δids"], rows,
        title=f"Macro replay of the trace ({files} files): estimated sync "
              f"traffic and per-mechanism savings")}


def _render_overuse(args, result):
    reports, _ = result
    rows = [[report.service, f"{traffic_overuse_fraction(report):.1%}"]
            for report in sorted(reports,
                                 key=lambda r: SERVICES.index(r.service))]
    return {"overuse": render_table(
        ["Service", "Users losing >10% of traffic to modification overuse"],
        rows, title=f"Traffic overuse across the trace (scale {args.scale:g})")}


_REPLAY = {"--scale": dict(type=float, default=0.05), "--seed": SEED,
           "--access": ACCESS, "--workers": dict(type=int, default=1)}


# -- Experiment 9: a shared-folder fleet -----------------------------------

def _fleet(args):
    link = bj_link() if args.link == "bj" else mn_link()
    writers = min(args.writers, args.clients)
    fleet = Fleet(args.service, access=args.access, clients=args.clients,
                  link_spec=link, seed=args.seed, domains=args.domains)
    schedule_writer_workload(fleet, writers=writers,
                             files_per_writer=args.files,
                             file_size=args.size, seed=args.seed)
    fleet.run_until_idle()
    if args.audit:
        fleet.audit()
    # Amplification is normalised against the same workload driven by a
    # single solo writer (no fan-out targets).
    baseline = run_collaboration(args.service, access=args.access,
                                 writers=1, clients=1,
                                 files_per_writer=args.files,
                                 file_size=args.size, seed=args.seed,
                                 link_spec=link)
    return (fleet.report(), writers, baseline,
            fleet.sim.cross_messages if args.domains > 1 else 0,
            fleet.converged())


def _fleet_converged(result) -> bool:
    """Every member ended with the same folder state."""
    return result[-1]


def _render_fleet(args, result):
    report, writers, baseline, cross_messages, converged = result
    lines = [render_fleet_members(
        report, title=f"Fleet — {report.service}, {report.clients} clients, "
                      f"{writers} writer(s), seed {args.seed}")]
    if args.domains > 1:
        lines.append(f"{args.domains} event domains, {cross_messages} "
                     f"cross-domain messages (byte-identical to the "
                     f"single-queue run by construction)")
    lines.append(f"fleet TUE {fmt_tue(report.tue)} over "
                 f"{report.commit_epochs} commit epoch(s); amplification "
                 f"{fmt_tue(report.amplification(baseline))}x vs a solo "
                 f"writer")
    lines.append("members converged: " + ("yes" if converged else "NO"))
    return {"fleet": "\n".join(lines)}


# -- Experiments 10 and 11: storage backends and sync strategies -----------

def _backends(args):
    """``{(mix, backend, files): Reading}``, mix-major."""
    readings = {}
    for mix in FILE_MIXES:
        files = MIX_FILES[mix] if args.files is None else args.files
        for backend in BACKENDS:
            readings[mix, backend, files] = measure(Cell(
                backend_profile(backend), churn(mix, files, seed=args.seed)))
    return readings


def _render_backends(args, readings):
    lines = [render_backend_matrix(
        readings,
        title=f"Experiment 10 — storage backends (seed {args.seed})")]
    per_file = {(mix, backend): reading.rest.total_ops() / files
                for (mix, backend, files), reading in readings.items()}
    chunk = per_file.get(("paper", "chunk"))
    shard = per_file.get(("paper", "packshard"))
    if chunk is not None and shard:
        lines.append(f"paper mix: packshard issues {chunk / shard:.1f}x "
                     f"fewer REST ops/file than the chunk store")
    return {"backends": "\n".join(lines)}


def _strategies(args):
    """``{(workload, link, strategy): Reading}``, every cell audited."""
    return {(workload, link, strategy): run_strategy_cell(
                strategy, workload, link, files=args.files, seed=args.seed,
                audit=args.audit)
            for workload in STRATEGY_WORKLOADS for link in STRATEGY_LINKS
            for strategy in STRATEGIES}


def _dominated(readings) -> bool:
    """Adaptive TUE <= every static strategy's on every workload x link."""
    adaptive = {(workload, link): reading.tue
                for (workload, link, strategy), reading in readings.items()
                if strategy == "adaptive"}
    return all(adaptive[workload, link] <= reading.tue + 1e-12
               for (workload, link, strategy), reading in readings.items()
               if strategy != "adaptive" and (workload, link) in adaptive)


def _render_strategies(args, readings):
    return {"strategies": "\n".join([
        render_strategy_matrix(
            readings,
            title=f"Experiment 11 — sync strategies (seed {args.seed})"),
        "adaptive selector TUE <= every static strategy on every cell: "
        + ("yes" if _dominated(readings) else "NO")])}


#: Experiments 8–11 and the macro replay.
EXTENSIONS = (
    Artifact("faults", "Experiment 8: TUE vs. fault rate, resume vs. restart",
             _faults, _render_faults,
             {"--fault-rate": dict(type=float, nargs="+",
                                   default=list(FAULT_RATES),
                                   dest="fault_rates")},
             ("exp8_faults",)),
    Artifact("trace-replay", "§1 macro economics: trace-wide traffic and "
             "savings per mechanism", _paper_replay, _render_replay, {},
             ("trace_replay",)),
    Artifact("replay", "macro trace-replay traffic estimate", _replay,
             _render_replay, _REPLAY),
    Artifact("overuse", "per-user traffic-overuse statistic ([36])",
             _replay, _render_overuse,
             dict(_REPLAY, **{"--scale": dict(type=float, default=0.03)})),
    Artifact("fleet", "shared-folder fleet: N writers, fan-out amplification",
             _fleet, _render_fleet,
             {"--service": dict(type=service_name, default="GoogleDrive"),
              "--access": ACCESS,
              "--clients": dict(type=int, default=4),
              "--writers": dict(type=int, default=2),
              "--seed": dict(type=int, default=0),
              "--files": dict(type=int, default=2),
              "--size": dict(type=int, default=64 * KB),
              "--link": dict(choices=("mn", "bj"), default="mn"),
              "--domains": dict(type=int, default=1)},
             ok=_fleet_converged),
    Artifact("backends", "Experiment 10: storage backends × file-size mixes",
             _backends, _render_backends,
             {"--files": dict(type=int, default=None),
              "--seed": dict(type=int, default=0)},
             ("backends",)),
    Artifact("strategies",
             "Experiment 11: sync strategies × workloads × links",
             _strategies, _render_strategies,
             {"--files": dict(type=int, default=3),
              "--seed": dict(type=int, default=0)},
             ("strategies",), ok=_dominated),
)
