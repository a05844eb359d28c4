"""The design-choice studies DESIGN.md calls out, one registry entry each.

Every sweep here is a deterministic simulation except the compression
one, which also times the real compressor on this host; its times feed
a claim (higher levels cost more CPU) but no archived text.
"""

from __future__ import annotations

import time

from ..chunking import cdc_chunks, chunk_data, shared_bytes
from ..client import (BASELINES, AccessMethod, AdaptiveSyncDefer,
                      ByteCounterDefer, FixedDefer, NoDefer, SERVICES,
                      SyncSession, service_profile)
from ..client.defer import ScanIntervalDefer
from ..compress import (HIGH_COMPRESSION, LOW_COMPRESSION,
                        MODERATE_COMPRESSION, NO_COMPRESSION)
from ..content import random_content, text_content
from ..core import UPGRADES, compare_designs, quantify_all, run_appending
from ..delta import diff_stats
from ..reporting import render_table
from ..trace import generate_trace
from ..units import KB, MB, fmt_size
from .base import TRACE_SEED, Artifact

# -- commercial services vs. the open-source baselines ---------------------

def _batch_tue(profile) -> float:
    session = SyncSession(profile)
    for index in range(40):
        session.create_file(f"b/{index}.bin",
                            random_content(1 * KB, seed=index))
    session.run_until_idle()
    return session.total_traffic / (40 * KB)


def _edit_tue(profile) -> float:
    session = SyncSession(profile)
    session.create_file("doc.bin", random_content(1 * MB, seed=1))
    session.run_until_idle()
    session.reset_meter()
    session.modify_random_byte("doc.bin", seed=2)
    session.run_until_idle()
    return session.total_traffic / 1.0


def _baselines(args):
    profiles = [service_profile(name, AccessMethod.PC) for name in SERVICES]
    return [(profile.service, _batch_tue(profile), _edit_tue(profile) / KB,
             run_appending(profile.service, 2.0, total=128 * KB,
                           profile=profile).tue)
            for profile in profiles + list(BASELINES)]


def _render_baselines(args, rows_data):
    rows = [[name, f"{batch:.1f}", f"{edit:.0f} K", f"{appends:.1f}"]
            for name, batch, edit, appends in rows_data]
    return {"ablation_baselines": render_table(
        ["System", "Batch-create TUE", "1-byte edit traffic", "Append TUE"],
        rows, title="Commercial services vs. open-source baselines")}


# -- fixed-block vs. content-defined chunking under edits ------------------

def _chunking(args):
    base = random_content(1 * MB, seed=8).data
    edits = [
        ("append 16 KB", base + random_content(16 * KB, seed=9).data),
        ("overwrite 16 KB @256K",
         base[:256 * KB] + random_content(16 * KB, seed=10).data
         + base[256 * KB + 16 * KB:]),
        ("insert 1 KB @64K",
         base[:64 * KB] + random_content(1 * KB, seed=11).data
         + base[64 * KB:]),
        ("prepend 100 B", random_content(100, seed=12).data + base),
    ]
    return [(label,
             shared_bytes(base, new, lambda d: chunk_data(d, 8 * KB))
             / len(new),
             shared_bytes(base, new, cdc_chunks) / len(new))
            for label, new in edits]


def _render_chunking(args, rows_data):
    rows = [[label, f"{fixed:.1%}", f"{cdc:.1%}"]
            for label, fixed, cdc in rows_data]
    return {"ablation_cdc_vs_fixed": render_table(
        ["Edit", "Fixed-block dedup", "CDC dedup"], rows,
        title="Ablation — dedup surviving an edit (1 MB file, 8 KB blocks)")}


# -- compression level vs. traffic and host CPU ----------------------------

def _compression_levels(args):
    workload = [text_content(2 * MB, seed=1), random_content(2 * MB, seed=2),
                text_content(1 * MB, seed=3)]
    total = sum(content.size for content in workload)
    rows = []
    for policy in (NO_COMPRESSION, LOW_COMPRESSION, MODERATE_COMPRESSION,
                   HIGH_COMPRESSION):
        start = time.perf_counter()
        wire = sum(policy.wire_size(content) for content in workload)
        rows.append((policy.level.value, total, wire,
                     time.perf_counter() - start))
    return rows


def _render_compression_levels(args, rows_data):
    rows = [[level, fmt_size(total), fmt_size(wire), f"{wire / total:.3f}"]
            for level, total, wire, _ in rows_data]
    return {"ablation_compression_levels": render_table(
        ["Level", "Input", "Wire", "Ratio"], rows,
        title="Ablation — compression level tradeoff")}


# -- dedup granularity x scope on the trace --------------------------------

DEDUP_CONFIGS = (
    ("none", None, None),
    ("full-file / same-user", None, "user"),
    ("full-file / cross-user", None, "global"),
    ("4 MB blocks / same-user", 4 * MB, "user"),
    ("4 MB blocks / cross-user", 4 * MB, "global"),
    ("512 KB blocks / cross-user", 512 * KB, "global"),
)


def _uploaded_bytes(trace, block_size, scope):
    """Bytes shipped if every file uploads once under this dedup config."""
    seen = set()
    total = 0
    for record in trace:
        keys = ([record.full_file_key()] if block_size is None
                else list(record.block_keys(block_size)))
        for key in keys:
            length = record.size if block_size is None else key[1]
            scoped = key if scope == "global" else (record.user, key)
            if scope is None or scoped in seen:
                if scope is None:
                    total += length
                continue
            seen.add(scoped)
            total += length
    return total


def _dedup_scope(args):
    trace = generate_trace(scale=0.3, seed=TRACE_SEED)
    return trace.total_bytes(), [
        (name, _uploaded_bytes(trace, block, scope))
        for name, block, scope in DEDUP_CONFIGS]


def _render_dedup_scope(args, result):
    raw, rows_data = result
    rows = [[name, fmt_size(uploaded), f"{1 - uploaded / raw:.1%}"]
            for name, uploaded in rows_data]
    return {"ablation_dedup_scope": render_table(
        ["Config", "Uploaded", "Saved"], rows,
        title=f"Ablation — dedup granularity × scope "
              f"(trace bytes: {fmt_size(raw)})")}


# -- defer policies on the appending workload ------------------------------

DEFER_POLICIES = {
    "none": NoDefer,
    "fixed(2s)": lambda: FixedDefer(2.0),
    "fixed(4.2s)": lambda: FixedDefer(4.2),
    "fixed(10s)": lambda: FixedDefer(10.0),
    "scan(7s)": lambda: ScanIntervalDefer(7.0),
    "uds(256K)": lambda: ByteCounterDefer(256 * KB, 10.0),
    "asd": AdaptiveSyncDefer,
}
DEFER_XS = (1, 3, 6, 12)


def _defer_policies(args):
    base = service_profile("GoogleDrive", AccessMethod.PC)
    return {name: [run_appending("GoogleDrive", float(x), total=256 * KB,
                                 profile=base.with_defer(factory)).tue
                   for x in DEFER_XS]
            for name, factory in DEFER_POLICIES.items()}


def _render_defer_policies(args, table):
    rows = [[name] + [f"{tue:.2f}" for tue in tues]
            for name, tues in table.items()]
    return {"ablation_defer_policies": render_table(
        ["Policy"] + [f"X={x}" for x in DEFER_XS], rows,
        title="Ablation — defer policies on X KB/X s appends (TUE)")}


# -- rsync block size vs. delta traffic ------------------------------------

DELTA_BLOCKS = (1 * KB, 4 * KB, 10 * KB, 32 * KB, 128 * KB, 512 * KB)


def _delta_blocks(args):
    base = random_content(1 * MB, seed=1)
    edited = base.modify_random_byte(seed=2)
    appended = base.append(random_content(4 * KB, seed=3))
    return [(block, diff_stats(base.data, edited.data, block_size=block),
             diff_stats(base.data, appended.data, block_size=block))
            for block in DELTA_BLOCKS]


def _render_delta_blocks(args, rows_data):
    rows = [[fmt_size(block), fmt_size(edit.delta_wire_bytes),
             fmt_size(edit.signature_wire_bytes),
             fmt_size(append.delta_wire_bytes)]
            for block, edit, append in rows_data]
    return {"ablation_delta_block": render_table(
        ["Block", "1-byte edit delta", "Signature size", "4 KB append delta"],
        rows, title="Ablation — rsync block size vs. delta traffic")}


# -- version-history retention vs. storage ---------------------------------

HISTORY_VERSIONS = 12
HISTORY_FILE_SIZE = 256 * KB
HISTORY_RETENTIONS = (1, 3, 6, None)  # None = keep everything (§4.2)


def _history(args):
    rows = []
    for keep in HISTORY_RETENTIONS:
        session = SyncSession("Box", AccessMethod.PC)
        session.create_file("doc.bin",
                            random_content(HISTORY_FILE_SIZE, seed=1))
        session.run_until_idle()
        for index in range(HISTORY_VERSIONS - 1):
            session.write_file("doc.bin", random_content(HISTORY_FILE_SIZE,
                                                         seed=2 + index))
            session.run_until_idle()
        server = session.server
        if keep is not None:
            server.purge_history("user1", "doc.bin", keep_last=keep)
        rows.append((keep, server.objects.stored_bytes, len(
            server.metadata.get_entry("user1", "doc.bin").versions)))
    return rows


def _render_history(args, rows_data):
    rows = [[str(keep) if keep else "all", str(versions), fmt_size(stored)]
            for keep, stored, versions in rows_data]
    return {"ablation_history_retention": render_table(
        ["Versions kept", "Versions held", "Physical storage"], rows,
        title=f"History retention on {HISTORY_VERSIONS} rewrites of a "
              f"{fmt_size(HISTORY_FILE_SIZE)} file")}


# -- the §7 cost vectors ---------------------------------------------------

def _mixed_workload(session):
    """Compressible + incompressible creation, then ten edits."""
    session.create_file("doc.txt", text_content(512 * KB, seed=1))
    session.create_file("img.jpg", random_content(512 * KB, seed=2))
    session.run_until_idle()
    for index in range(10):
        session.modify_random_byte("doc.txt", seed=10 + index)
        session.run_until_idle()
    return 1 * MB + 10


def _render_tradeoffs(args, reports):
    rows = [[report.profile_name, fmt_size(report.traffic_bytes),
             f"{report.tue:.2f}", fmt_size(report.stored_bytes),
             str(report.rest_operations), f"{report.client_cpu_seconds:.2f}",
             f"{report.server_cpu_seconds:.2f}"]
            for report in reports]
    return {"ablation_tradeoffs": render_table(
        ["Design", "Traffic", "TUE", "Stored", "REST ops", "Client CPU (s)",
         "Server CPU (s)"], rows,
        title="§7 — cost vectors on a modification-heavy workload")}


# -- each §4–§6 recommendation retrofitted onto each service ---------------

def _render_upgrades(args, results):
    by_key = {(result.service, result.upgrade): result for result in results}
    rows = [[service] + [f"{by_key[(service, upgrade)].saving:+.0%}"
                         for upgrade in UPGRADES]
            for service in args.services]
    return {"ablation_upgrades": render_table(
        ["Service"] + list(UPGRADES), rows,
        title="Traffic saved by retrofitting each §4–§6 recommendation "
              "(per its target workload)")}


#: The design-choice ablations.
ABLATIONS = (
    Artifact("upgrades", "savings from retrofitting each recommendation",
             lambda args: quantify_all(services=tuple(args.services)),
             _render_upgrades,
             {"--services": dict(nargs="+", default=list(SERVICES))},
             ("ablation_upgrades",)),
    Artifact("ablation-baselines",
             "commercial services vs. open-source baselines", _baselines,
             _render_baselines, {}, ("ablation_baselines",)),
    Artifact("ablation-chunking", "fixed-block vs. CDC dedup under edits",
             _chunking, _render_chunking, {}, ("ablation_cdc_vs_fixed",)),
    Artifact("ablation-compression", "compression level vs. traffic",
             _compression_levels, _render_compression_levels, {},
             ("ablation_compression_levels",)),
    Artifact("ablation-dedup-scope", "dedup granularity × scope on the trace",
             _dedup_scope, _render_dedup_scope, {},
             ("ablation_dedup_scope",)),
    Artifact("ablation-defer", "defer policies on the appending workload",
             _defer_policies, _render_defer_policies, {},
             ("ablation_defer_policies",)),
    Artifact("ablation-delta-block", "rsync block size vs. delta traffic",
             _delta_blocks, _render_delta_blocks, {},
             ("ablation_delta_block",)),
    Artifact("ablation-history", "version-history retention vs. storage",
             _history, _render_history, {},
             ("ablation_history_retention",)),
    Artifact("ablation-tradeoffs", "§7 cost vectors: traffic, CPU, storage",
             lambda args: compare_designs(
                 [service_profile(name, AccessMethod.PC)
                  for name in SERVICES], _mixed_workload),
             _render_tradeoffs, {}, ("ablation_tradeoffs",)),
)
