#!/usr/bin/env python3
"""Probe an unknown service: the paper's §9 future work, implemented.

§9 looks forward to measuring iCloud Drive, then unreleased: "iCloud Drive
lives in a unique and closed ecological system fully operated by Apple."
The point of the paper's methodology is that *closed doesn't matter* — the
probes are black-box.  This example defines a hypothetical iCloud-like
service (its design choices hidden inside the profile), then rediscovers
every choice using only the measurement tools:

* Experiment-1-style creations → fixed overhead & per-byte overhead;
* Experiment 3 → sync granularity (full-file vs. IDS);
* Experiment 4 → compression;
* Algorithm 1 → dedup granularity;
* the §6.1 sweep → sync deferment.

Run:  python examples/probe_unknown_service.py
"""

from repro.client import (
    AccessMethod,
    FixedDefer,
    OverheadProfile,
    ServiceProfile,
    SyncSession,
)
from repro.cloud import DedupConfig
from repro.compress import HIGH_COMPRESSION, MODERATE_COMPRESSION
from repro.core import (Cell, append, create, iterative_self_duplication,
                        measure, modify, upload_download)
from repro.units import KB, MB, fmt_size

# --- the service under test (pretend you cannot read this) -----------------

ICLOUD_LIKE = ServiceProfile(
    service="iCloudLike", access=AccessMethod.PC,
    delta_block=None,                                # full-file sync
    upload_compression=MODERATE_COMPRESSION,
    download_compression=HIGH_COMPRESSION,
    dedup=DedupConfig.block(8 * MB),                 # coarse block dedup
    storage_chunk_size=8 * MB,
    overhead=OverheadProfile(meta_up=5200, meta_down=2400, notify_down=350,
                             requests_per_sync=2, per_byte_factor=0.05,
                             connection_per_sync=True),
    defer_factory=lambda: FixedDefer(8.0),           # 8 s quiescence defer
)


def fresh_session() -> SyncSession:
    return SyncSession(ICLOUD_LIKE)


def probe_cell(recipe):
    """One measurement cell against the service under test."""
    return measure(Cell(ICLOUD_LIKE, recipe))


def main():
    print("Probing an unknown 'iCloudLike' service with the paper's toolkit\n")

    tiny = probe_cell(create(1)).traffic
    print(f"[Exp 1]  1 B creation: {fmt_size(tiny)} "
          f"→ fixed sync overhead ≈ {fmt_size(tiny)}")
    big = probe_cell(create(10 * MB)).traffic
    print(f"[Exp 1]  10 MB creation: {fmt_size(big)} "
          f"→ per-byte overhead ≈ {(big - tiny) / (10 * MB) - 1:.0%}")

    edit = probe_cell(modify(1 * MB)).traffic
    granularity = ("full-file sync" if edit > 0.9 * MB
                   else "incremental (IDS)")
    print(f"[Exp 3]  1-byte edit in 1 MB: {fmt_size(edit)} "
          f"→ {granularity}")

    upload, = probe_cell(upload_download(4 * MB)).marked
    ratio = upload / (4 * MB)
    print(f"[Exp 4]  4 MB text upload: {fmt_size(upload)} "
          f"({ratio:.2f}×) → compression {'ON' if ratio < 0.9 else 'OFF'}")

    probe = iterative_self_duplication(fresh_session(), max_block=16 * MB)
    print(f"[Alg 1]  dedup granularity: {probe.label()} "
          f"({len(probe.rounds)} probe rounds)")

    defer_estimate = None
    for x in range(2, 13, 2):
        appends = append(x, total=12 * KB, append_kb=1.0)
        syncs = probe_cell(appends).sync_transactions
        if syncs > 6 and defer_estimate is None:
            defer_estimate = x
    print(f"[§6.1]   per-update syncing starts at X = {defer_estimate} s "
          f"→ fixed sync deferment T ∈ ({defer_estimate - 2}, {defer_estimate}) s")

    print("\nEvery hidden design choice recovered without reading the "
          "profile — the methodology §9 hoped to apply to iCloud Drive.")


if __name__ == "__main__":
    main()
