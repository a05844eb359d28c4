"""Table 5 as executable claims: every major finding, verified live.

The paper's Table 5 summarises seven findings with implications.  This
module re-derives each one from the simulation and the trace, returning a
:class:`Finding` per row with the measured evidence and a boolean verdict —
so `repro findings` *is* Table 5.

Checks run at reduced scale (small files, short appends) to stay fast; the
full-scale versions are the individual table/figure registry entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..client import M1, M2, SERVICES, AdaptiveSyncDefer, service_profile
from ..simnet import bj_link
from ..trace import (
    Trace,
    batchable_small_fraction,
    compressible_fraction,
    compression_traffic_saving,
    dedup_ratio,
    duplicate_file_ratio,
    generate_trace,
    modified_fraction,
    small_file_fraction,
)
from ..units import KB, MB
from .cell import (Cell, append, batch, cell, delete, measure, modify,
                   upload_download)


@dataclass
class Finding:
    """One row of the verified Table 5."""

    section: str
    statement: str
    evidence: str
    holds: bool


def _trace(scale: float) -> Trace:
    return generate_trace(scale=scale, seed=42)


def verify_findings(trace_scale: float = 0.15) -> List[Finding]:
    """Run every Table 5 check; returns one Finding per claim."""
    trace = _trace(trace_scale)
    findings: List[Finding] = []

    # §4.1 — small files dominate and batch; BDS pays off.
    small = small_file_fraction(trace)
    batchable = batchable_small_fraction(trace)
    dropbox_batch = measure(cell("Dropbox", batch(count=40)))
    box_batch = measure(cell("Box", batch(count=40)))
    findings.append(Finding(
        "4.1", "majority of files are small (<100 KB) and most can batch",
        f"small={small:.0%} (paper 77%), batchable={batchable:.0%} (paper 66%)",
        0.70 < small < 0.85 and 0.55 < batchable < 0.80))
    findings.append(Finding(
        "4.1", "BDS cuts batched-creation traffic by an order of magnitude",
        f"Dropbox TUE {dropbox_batch.tue:.1f} vs Box {box_batch.tue:.1f}",
        dropbox_batch.tue * 4 < box_batch.tue))

    # §4.2 — deletion is negligible.
    worst = max(measure(cell(service, delete(1 * MB))).traffic
                for service in SERVICES)
    findings.append(Finding(
        "4.2", "file deletion generates negligible (<100 KB) sync traffic",
        f"worst service: {worst / KB:.1f} KB", worst < 100 * KB))

    # §4.3 — modifications are common; IDS shrinks them dramatically.
    modified = modified_fraction(trace)
    ids_mod = measure(cell("Dropbox", modify(1 * MB)))
    full_mod = measure(cell("GoogleDrive", modify(1 * MB)))
    findings.append(Finding(
        "4.3", "majority of files are modified at least once",
        f"{modified:.0%} (paper 84%)", 0.80 < modified < 0.88))
    findings.append(Finding(
        "4.3", "IDS ships a fraction of full-file sync for a 1-byte edit",
        f"Dropbox {ids_mod.traffic / KB:.0f} KB vs "
        f"GoogleDrive {full_mod.traffic / KB:.0f} KB",
        ids_mod.traffic * 10 < full_mod.traffic))

    # §5.1 — compression helps; support is patchy.
    compressible = compressible_fraction(trace)
    saving = compression_traffic_saving(trace)
    text = upload_download(2 * MB)
    dropbox_up, = measure(cell("Dropbox", text)).marked
    google_up, = measure(cell("GoogleDrive", text)).marked
    findings.append(Finding(
        "5.1", "about half of files compress; compression saves ~24% of bytes",
        f"compressible={compressible:.0%} (52%), saving={saving:.0%} (24%)",
        0.45 < compressible < 0.60 and 0.12 < saving < 0.33))
    findings.append(Finding(
        "5.1", "only some services compress (Dropbox yes, Google Drive no)",
        f"Dropbox UP {dropbox_up / MB:.1f} MB vs "
        f"GoogleDrive {google_up / MB:.1f} MB on 2 MB text",
        dropbox_up < 0.8 * google_up))

    # §5.2 — duplicates exist; block dedup only trivially beats full-file.
    duplicates = duplicate_file_ratio(trace)
    full_file = dedup_ratio(trace, None)
    block = dedup_ratio(trace, 128 * KB)
    findings.append(Finding(
        "5.2", "duplicate bytes ≈ 18%; full-file dedup is basically sufficient",
        f"dup={duplicates:.1%} (18.8%), block-over-full-file edge "
        f"{block - full_file:.3f}",
        0.10 < duplicates < 0.28 and block - full_file < 0.15))

    # §6.1 — fixed deferments fail past T; ASD fixes it.
    above_t = measure(cell("GoogleDrive", append(6.0, total=128 * KB)))
    below_t = measure(cell("GoogleDrive", append(3.0, total=128 * KB)))
    asd_profile = service_profile("GoogleDrive").with_defer(
        lambda: AdaptiveSyncDefer())
    with_asd = measure(Cell(asd_profile, append(6.0, total=128 * KB)))
    findings.append(Finding(
        "6.1", "fixed sync deferments fail once X > T; ASD keeps TUE ≈ 1",
        f"TUE below T {below_t.tue:.1f}, above T {above_t.tue:.1f}, "
        f"ASD {with_asd.tue:.1f}",
        below_t.tue < 2 and above_t.tue > 10 and with_asd.tue < 2.5))

    # §6.2 — poor network or hardware lowers TUE under frequent mods.
    appends = append(1.0, total=128 * KB)
    at_mn = measure(cell("Dropbox", appends))
    at_bj = measure(cell("Dropbox", appends, link=bj_link()))
    fast = measure(cell("Dropbox", appends, machine=M1))
    slow = measure(cell("Dropbox", appends, machine=M2))
    findings.append(Finding(
        "6.2", "poor network or slow hardware batches updates and lowers TUE",
        f"MN {at_mn.tue:.1f} vs BJ {at_bj.tue:.1f}; "
        f"M1 {fast.tue:.1f} vs M2 {slow.tue:.1f}",
        at_bj.tue < at_mn.tue and slow.tue < fast.tue))

    return findings
