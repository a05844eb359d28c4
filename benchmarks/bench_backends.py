"""Experiment 10: REST cost of three storage backends × file-size mixes.

The paper's trace is 77% small files, so when every chunk is its own REST
object the provider-side bill is dominated by request *count*, not payload.
This bench sweeps the three backends —

* ``object``    — whole files as single REST objects,
* ``chunk``     — one REST object per 16 KB chunk (Cumulus-style),
* ``packshard`` — units packed into shard containers by placement digest,
  read back by range-GET, paired with client-side small-file bundling —

across three workload mixes (the paper's small-file skew, uniform-large,
multimedia) and reports TUE plus REST ops per synced file.  Three checks
run on the way:

* **honest ledger** — every cell's run must pass the
  ``rest-conservation`` invariant (lifetime
  ``put_bytes - reclaimed == stored_bytes``) and, traced, the full
  conservation audit including ``bundle-conservation``;
* **rerun byte-identity** — the sweep runs twice; the cells *and* the
  rendered matrix must be byte-identical;
* **the headline claim** — on the paper mix the packed-shard backend
  issues at least 10x fewer REST ops/file than the chunk store.

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_backends.py --smoke   # CI guard

The full sweep regenerates the committed ``BENCH_backends.json``;
``--smoke`` runs a reduced sweep and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

if __package__ is None and __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import experiment10_backends
from repro.obs import audit_hub, recording
from repro.reporting import render_backend_matrix

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_backends.json"
MIN_PAPER_RATIO = 10.0


def run_sweep(files, seed: int):
    """One audited sweep; returns (cells, rendered table)."""
    with recording() as hub:
        cells = experiment10_backends(files=files, seed=seed)
    audit_hub(hub)
    rendered = render_backend_matrix(
        cells, title=f"Experiment 10 — storage backends (seed {seed})")
    return cells, rendered


def sweep(files, seed: int) -> dict:
    cells, rendered = run_sweep(files, seed)
    cells2, rendered2 = run_sweep(files, seed)
    if cells != cells2 or rendered != rendered2:
        raise AssertionError("backend sweep is not rerun byte-identical")
    print(rendered)

    by_key = {(c.backend, c.mix): c for c in cells}
    chunk = by_key[("chunk", "paper")]
    shard = by_key[("packshard", "paper")]
    ratio = chunk.rest_ops_per_file / shard.rest_ops_per_file
    print(f"paper mix: packshard {shard.rest_ops_per_file:.2f} ops/file vs "
          f"chunk {chunk.rest_ops_per_file:.2f} = {ratio:.1f}x fewer")
    if ratio < MIN_PAPER_RATIO:
        raise AssertionError(
            f"packed shards must cut paper-mix REST ops/file by at least "
            f"{MIN_PAPER_RATIO:g}x, measured {ratio:.2f}x")

    return {
        "bench": "storage_backends",
        "seed": seed,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "paper_mix_ops_ratio": round(ratio, 2),
        "note": ("REST ops/file per backend x mix; every cell audited "
                 "(rest-conservation + bundle-conservation) and the sweep "
                 "re-run for byte-identity before reporting."),
        "cells": [
            {
                "backend": c.backend,
                "mix": c.mix,
                "files": c.files,
                "rest_ops": c.rest_ops,
                "rest_ops_per_file": round(c.rest_ops_per_file, 3),
                "put_ops": c.put_ops,
                "get_ops": c.get_ops,
                "delete_ops": c.delete_ops,
                "list_ops": c.list_ops,
                "put_bytes": c.put_bytes,
                "stored_bytes": c.stored_bytes,
                "traffic": c.traffic,
                "update_bytes": c.update_bytes,
                "tue": round(c.tue, 4),
                "shards_sealed": c.shards_sealed,
                "shard_compactions": c.shard_compactions,
                "bundle_commits": c.bundle_commits,
            }
            for c in cells
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep; asserts the audit, rerun "
                             "byte-identity, and the >=10x paper-mix claim; "
                             "writes no JSON (CI uses this)")
    parser.add_argument("--files", type=int, default=None,
                        help="files per cell (default: per-mix workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    if args.smoke:
        sweep(args.files, args.seed)
        print("smoke sweep OK (audited, rerun byte-identical, paper-mix "
              "ratio >= 10x)")
        return 0

    results = sweep(args.files, args.seed)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
