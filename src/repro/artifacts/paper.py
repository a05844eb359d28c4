"""The paper's own tables and figures (§3–§6), one registry entry each."""

from __future__ import annotations

from ..client import AccessMethod, AdaptiveSyncDefer, SERVICES
from ..core import (asd_comparison, experiment1_batch, experiment1_creation,
                    experiment1_tue_curve, experiment2_deletion,
                    experiment3_modification, experiment4_compression,
                    experiment5_dedup, experiment6_frequent_mods,
                    experiment7_bandwidth, experiment7_hardware,
                    experiment7_latency, experiment7_locations,
                    infer_sync_deferment, iterative_self_duplication,
                    verify_findings)
from ..core.algorithm1 import _paired_sessions
from ..core.experiments import DEFAULT_SIZES
from ..reporting import render_series, render_table
from ..trace import (SERVICE_FILES, SERVICE_USERS, batchable_small_fraction,
                     compression_traffic_saving, dedup_ratio_curve,
                     generate_trace, size_cdf, summary_stats)
from ..units import GB, KB, MB, fmt_size
from .base import (ACCESS, ACCESSES, MAX_BLOCK, MAX_X, TOTAL, TRACE_SCALE,
                   TRACE_SEED, Artifact, services)

# -- Table 5 ---------------------------------------------------------------

def _render_findings(args, findings):
    rows = [[finding.section, finding.statement, finding.evidence,
             "✓" if finding.holds else "✗"]
            for finding in findings]
    return {"table5_findings": render_table(
        ["§", "Finding", "Measured", "Holds"], rows,
        title="Table 5 — major findings, verified")}


# -- Tables 2 & 3, Figure 2, Figure 5: the trace ---------------------------

def _trace_tables(args):
    trace = generate_trace(scale=args.scale, seed=TRACE_SEED)
    return (trace, summary_stats(trace), batchable_small_fraction(trace),
            compression_traffic_saving(trace))


def _render_trace_tables(args, result):
    trace, stats, batchable, saving = result
    users = trace.users()
    rows = [
        [service, str(users.get(service, 0)), str(len(records)),
         str(SERVICE_USERS[service]), str(SERVICE_FILES[service])]
        for service, records in sorted(trace.by_service().items())
    ]
    composition = render_table(
        ["Service", "Users", "Files", "Paper users", "Paper files"], rows,
        title=f"Table 2 — trace composition (scale={args.scale:g})")
    statistics = render_table(
        ["Statistic", "Reproduced", "Paper"],
        [
            ["small files (<100 KB)", f"{stats.small_fraction:.1%}", "77%"],
            ["small by compressed size",
             f"{stats.small_fraction_compressed:.1%}", "81%"],
            ["small files batchable", f"{batchable:.1%}", "66%"],
            ["modified ≥ once", f"{stats.modified_fraction:.1%}", "84%"],
            ["effectively compressible",
             f"{stats.compressible_fraction:.1%}", "52%"],
            ["compression ratio", f"{stats.compression_ratio:.2f}", "1.31"],
            ["traffic saved by compression", f"{saving:.1%}", "24%"],
            ["duplicate bytes", f"{stats.duplicate_file_ratio:.1%}", "18.8%"],
        ],
        title="Trace-wide statistics vs. the paper")
    return {"table2_composition": composition,
            "trace_statistics": statistics}


FIG2_GRID = (1 * KB, 10 * KB, 100 * KB, 1 * MB, 10 * MB, 100 * MB, 1 * GB,
             2 * GB)


def _size_cdfs(args):
    trace = generate_trace(scale=args.scale, seed=TRACE_SEED)
    return (dict(size_cdf(trace, points=FIG2_GRID)),
            dict(size_cdf(trace, compressed=True, points=FIG2_GRID)),
            summary_stats(trace))


def _render_size_cdfs(args, result):
    original, compressed, stats = result
    rows = [[fmt_size(size), f"{original[size]:.3f}",
             f"{compressed[size]:.3f}"] for size in FIG2_GRID]
    return {
        "fig2_size_cdf": render_table(
            ["Size", "P[original ≤ s]", "P[compressed ≤ s]"], rows,
            title="Figure 2 — file size CDFs"),
        "fig2_summary": "\n".join([
            f"files: {stats.file_count}",
            f"original : mean {fmt_size(stats.mean_size)}, "
            f"median {fmt_size(stats.median_size)}, "
            f"max {fmt_size(stats.max_size)}",
            f"compressed: mean {fmt_size(stats.mean_compressed)}, "
            f"median {fmt_size(stats.median_compressed)}, "
            f"max {fmt_size(stats.max_compressed)}",
        ]),
    }


def _render_dedup_curve(args, curve):
    rows = [[fmt_size(block) if block else "Full file", f"{ratio:.3f}"]
            for block, ratio in curve]
    return {"fig5_dedup_ratio": render_table(
        ["Block size", "Dedup ratio"], rows,
        title="Figure 5 — cross-user dedup ratio vs. block size")}


# -- Experiment 1: Table 6, Figure 3, Table 7 ------------------------------

def _render_creation(args, result):
    return {
        f"table6_{access.value}": render_table(
            ["Service"] + [fmt_size(size) for size in DEFAULT_SIZES],
            [[service] + [fmt_size(result.get(service, access, size).traffic)
                          for size in DEFAULT_SIZES]
             for service in SERVICES],
            title=f"Table 6 — creation sync traffic ({access.value} client)")
        for access in args.access
    }


FIG3_SIZES = (1, 10, 100, 1 * KB, 10 * KB, 100 * KB, 1 * MB, 10 * MB)


def _render_tue_curve(args, curves):
    rows = [[fmt_size(size)] + [f"{dict(points)[size]:.4g}"
                                for points in curves.values()]
            for size in FIG3_SIZES]
    return {"fig3_tue_vs_size": render_table(
        ["Size"] + list(curves), rows,
        title="Figure 3 — TUE vs. created-file size (PC)")}


_ACCESS_LABEL = {AccessMethod.PC: "PC client", AccessMethod.WEB: "Web-based",
                 AccessMethod.MOBILE: "Mobile app"}


def _render_batch(args, rows_data):
    by_key = {(row.service, row.access): row for row in rows_data}
    rows = [[service] + [f"{fmt_size(by_key[(service, access)].traffic)} "
                         f"({by_key[(service, access)].tue:.1f})"
                         for access in args.access]
            for service in SERVICES]
    return {"table7_bds": render_table(
        ["Service"] + [_ACCESS_LABEL[access] for access in args.access], rows,
        title="Table 7 — 100 × 1 KB batched creations: traffic (TUE)")}


# -- Experiment 2 and Figure 4 ---------------------------------------------

DELETION_SIZES = (1 * KB, 1 * MB, 10 * MB)


def _render_deletion(args, rows_data):
    by_key = {(row.service, row.access, row.size): row for row in rows_data}
    rows = [[service, access.value] + [
                fmt_size(by_key[(service, access, size)].deletion_traffic)
                for size in DELETION_SIZES]
            for service in sorted({row.service for row in rows_data})
            for access in args.access]
    return {"exp2_deletion": render_table(
        ["Service", "Access"] + [fmt_size(size) for size in DELETION_SIZES],
        rows, title="Experiment 2 — deletion sync traffic")}


FIG4_SIZES = (1 * KB, 10 * KB, 100 * KB, 1 * MB)


def _render_modification(args, cells):
    by_key = {(cell.service, cell.access, cell.size): cell for cell in cells}
    return {
        f"fig4_modification_{access.value}": render_table(
            ["Service"] + [fmt_size(size) for size in FIG4_SIZES],
            [[service] + [fmt_size(by_key[(service, access, size)].traffic)
                          for size in FIG4_SIZES]
             for service in args.services],
            title=f"Figure 4 — 1-byte modification traffic ({access.value})")
        for access in args.access
    }


# -- Tables 8 and 9, Algorithm 1 -------------------------------------------

_ACCESS_SHORT = {AccessMethod.PC: "PC", AccessMethod.WEB: "Web",
                 AccessMethod.MOBILE: "Mob"}


def _render_compression(args, rows_data):
    by_key = {(row.service, row.access): row for row in rows_data}
    rows = []
    for service in SERVICES:
        row = [service]
        for access in args.access:
            cell = by_key[(service, access)]
            row += [f"{cell.upload_traffic / MB:.1f}",
                    f"{cell.download_traffic / MB:.1f}"]
        rows.append(row)
    headers = [f"{_ACCESS_SHORT[access]} {way}"
               for access in args.access for way in ("UP", "DN")]
    return {"table8_compression": render_table(
        ["Service"] + headers, rows,
        title=f"Table 8 — {args.size / MB:g}-MB text file sync traffic (MB)")}


def _render_dedup(args, findings):
    rows = [[finding.service, finding.same_user, finding.cross_user]
            for finding in findings]
    return {"table9_dedup": render_table(
        ["Service", "Same user", "Cross users"], rows,
        title="Table 9 — dedup granularity (Algorithm 1)")}


def _probe_dedup(args):
    session, _ = _paired_sessions(args.service, args.access)
    return iterative_self_duplication(session, max_block=args.max_block)


def _render_probe_dedup(args, result):
    lines = [f"{args.service}: dedup granularity = {result.label()}"]
    lines += [f"  guess {fmt_size(probe.guess):>9s}: "
              f"Tr1={fmt_size(probe.tr1)}, Tr2={fmt_size(probe.tr2)} "
              f"→ {probe.verdict}" for probe in result.rounds]
    return {"probe-dedup": "\n".join(lines)}


# -- Experiment 6 and §6.1: frequent modifications, deferment, ASD ---------

FIG6_XS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20)


def _grid(xs, max_x):
    return tuple(x for x in xs if x <= max_x)


def _frequent_mods(args):
    xs = _grid(FIG6_XS, args.max_x)
    return {service: experiment6_frequent_mods(service, xs=xs,
                                               total=args.total)
            for service in args.services}


def _render_frequent_mods(args, curves):
    rows = [[str(x)] + [f"{next(r for r in curves[s] if r.x == x).tue:.1f}"
                        for s in args.services]
            for x in _grid(FIG6_XS, args.max_x)]
    return {"fig6_frequent_mods": render_table(
        ["X (KB & sec)"] + list(args.services), rows,
        title=f"Figure 6 — TUE under X KB/X s appends "
              f"(C={args.total // 1024} KB)")}


#: The paper's inferred deferments (§6.1); None = no fixed deferment.
PAPER_DEFERMENTS = {"GoogleDrive": 4.2, "OneDrive": 10.5, "SugarSync": 6.0,
                    "Dropbox": None, "Box": None, "UbuntuOne": None}


def _render_defer_probe(args, results):
    rows = []
    for service, result in results.items():
        paper = PAPER_DEFERMENTS.get(service)
        rows.append([
            service,
            "none" if result.deferment is None
            else f"{result.deferment:.2f} s",
            "none" if paper is None else f"{paper:.1f} s",
            str(len(result.samples))])
    return {"defer_probe": render_table(
        ["Service", "Inferred T", "Paper T", "Probe runs"], rows,
        title="§6.1 — sync deferment inference")}


#: X values past each fixed deferment, where ASD should rescue TUE (§6.1).
ASD_CASES = {"GoogleDrive": (5, 6, 7, 9), "OneDrive": (11, 13, 16),
             "SugarSync": (7, 8, 10)}


def _asd(args):
    return {service: asd_comparison(service, xs, AdaptiveSyncDefer,
                                    total=256 * KB)
            for service, xs in ASD_CASES.items()}


def _render_asd(args, results):
    rows = [[service, f"{x:g}", f"{original:.1f}", f"{with_asd:.2f}"]
            for service, comparison in results.items()
            for x, original, with_asd in comparison]
    return {"asd_comparison": render_table(
        ["Service", "X", "TUE (fixed defer)", "TUE (ASD)"], rows,
        title="§6.1 — ASD what-if vs. fixed deferment")}


# -- Experiment 7: Figures 7 and 8 -----------------------------------------

FIG7_XS = (1, 2, 3, 4, 6, 8, 12, 16, 20)


def _locations(args):
    xs = _grid(FIG7_XS, args.max_x)
    return {service: experiment7_locations(service, xs=xs, total=args.total)
            for service in args.services}


def _render_locations(args, results):
    return {
        f"fig7_{service.lower()}": render_table(
            ["X (KB & sec)", "TUE @ MN", "TUE @ BJ"],
            [[f"{x:g}", f"{mn:.1f}", f"{bj:.1f}"] for x, mn, bj in rows],
            title=f"Figure 7 — {service}: MN vs. BJ")
        for service, rows in results.items()
    }


FIG8A_BANDWIDTHS = (0.4, 0.8, 1.6, 2, 4, 8, 12, 16, 20)
FIG8B_RTTS = (0.040, 0.100, 0.200, 0.400, 0.600, 0.800, 1.000)
FIG8C_XS = (1, 2, 3, 4, 6, 8, 10)
FIG8C_MACHINES = ("M1", "M2", "M3")


def _network(args):
    return (experiment7_bandwidth(bandwidths_mbps=FIG8A_BANDWIDTHS,
                                  total=256 * KB),
            experiment7_latency(rtts=FIG8B_RTTS, total=256 * KB),
            experiment7_hardware(xs=FIG8C_XS, total=512 * KB))


def _render_network(args, result):
    bandwidth, latency, hardware = result
    rows = [[f"{x:g}"] + [f"{hardware[name][index][1]:.1f}"
                          for name in FIG8C_MACHINES]
            for index, x in enumerate(FIG8C_XS)]
    return {
        "fig8a_bandwidth": render_series(
            bandwidth, x_label="Bandwidth (Mbps)", y_label="TUE",
            title='Figure 8(a) — Dropbox "1 KB/sec" TUE vs. bandwidth'),
        "fig8b_latency": render_series(
            [(rtt * 1000, tue) for rtt, tue in latency],
            x_label="RTT (ms)", y_label="TUE",
            title='Figure 8(b) — Dropbox "1 KB/sec" TUE vs. latency'),
        "fig8c_hardware": render_table(
            ["X (KB & sec)", "M1 (typical)", "M2 (outdated)", "M3 (SSD i7)"],
            rows, title="Figure 8(c) — Dropbox TUE per machine"),
    }


_SCALED = {"--scale": TRACE_SCALE}

#: The paper's tables and figures, in the paper's order.
PAPER = (
    Artifact("table2", "Tables 2 & 3: trace composition and statistics",
             _trace_tables, _render_trace_tables, _SCALED,
             ("table2_composition", "trace_statistics"),
             full_scale={"scale": 1.0}),
    Artifact("fig2", "Figure 2: CDFs of original and compressed file size",
             _size_cdfs, _render_size_cdfs, _SCALED,
             ("fig2_size_cdf", "fig2_summary"), full_scale={"scale": 1.0}),
    Artifact("findings", "Table 5: every major finding, verified live",
             lambda args: verify_findings(trace_scale=args.scale),
             _render_findings, {"--scale": dict(type=float, default=0.15)},
             ("table5_findings",),
             ok=lambda findings: all(f.holds for f in findings)),
    Artifact("table6", "creation sync traffic (6 services × 3 access methods)",
             lambda args: experiment1_creation(access_methods=args.access),
             _render_creation, {"--access": ACCESSES},
             ("table6_pc", "table6_web", "table6_mobile")),
    Artifact("fig3", "Figure 3: TUE vs. created-file size",
             lambda args: experiment1_tue_curve(services=args.services,
                                                sizes=FIG3_SIZES),
             _render_tue_curve, {"--service": services(*SERVICES)},
             ("fig3_tue_vs_size",)),
    Artifact("table7", "batched-data-sync traffic for 100 × 1 KB files",
             lambda args: experiment1_batch(access_methods=args.access),
             _render_batch, {"--access": ACCESSES}, ("table7_bds",)),
    Artifact("deletion", "Experiment 2: deletion traffic",
             lambda args: experiment2_deletion(access_methods=args.access,
                                               sizes=DELETION_SIZES),
             _render_deletion, {"--access": ACCESSES}, ("exp2_deletion",)),
    Artifact("fig4", "Figure 4: one-byte modification traffic",
             lambda args: experiment3_modification(
                 services=args.services, access_methods=args.access,
                 sizes=FIG4_SIZES),
             _render_modification,
             {"--service": services(*SERVICES), "--access": ACCESSES},
             ("fig4_modification_pc", "fig4_modification_web",
              "fig4_modification_mobile")),
    Artifact("table8", "compression: 10-MB text file UP/DN",
             lambda args: experiment4_compression(access_methods=args.access,
                                                  size=args.size),
             _render_compression,
             {"--access": ACCESSES, "--size": dict(type=int, default=10 * MB)},
             ("table8_compression",)),
    Artifact("table9", "dedup granularity via Algorithm 1",
             lambda args: experiment5_dedup(max_block=args.max_block),
             _render_dedup, {"--max-block": MAX_BLOCK}, ("table9_dedup",)),
    Artifact("probe-dedup", "run Algorithm 1 against one service",
             _probe_dedup, _render_probe_dedup,
             {"service": dict(), "--access": ACCESS,
              "--max-block": MAX_BLOCK}),
    Artifact("fig5", "Figure 5: cross-user dedup ratio vs. block size",
             lambda args: dedup_ratio_curve(
                 generate_trace(scale=args.scale, seed=TRACE_SEED)),
             _render_dedup_curve, _SCALED, ("fig5_dedup_ratio",),
             full_scale={"scale": 1.0}),
    Artifact("fig6", "Figure 6: frequent modifications (X KB / X sec)",
             _frequent_mods, _render_frequent_mods,
             {"--service": services(*SERVICES), "--max-x": MAX_X,
              "--total": TOTAL},
             ("fig6_frequent_mods",), full_scale={"total": 1 * MB}),
    Artifact("probe-defer", "§6.1: infer each service's fixed sync deferment",
             lambda args: {service: infer_sync_deferment(service)
                           for service in args.services},
             _render_defer_probe,
             {"services": dict(nargs="*", default=list(PAPER_DEFERMENTS),
                               metavar="SERVICE")},
             ("defer_probe",)),
    Artifact("asd", "§6.1: adaptive sync defer vs. the fixed deferments",
             _asd, _render_asd, {}, ("asd_comparison",)),
    Artifact("fig7", "Figure 7: TUE at MN vs. BJ",
             _locations, _render_locations,
             {"--service": services("OneDrive", "Box", "Dropbox"),
              "--max-x": MAX_X, "--total": TOTAL},
             ("fig7_onedrive", "fig7_box", "fig7_dropbox")),
    Artifact("fig8", "Figure 8: Dropbox TUE vs. bandwidth, latency, hardware",
             _network, _render_network, {},
             ("fig8a_bandwidth", "fig8b_latency", "fig8c_hardware")),
)
