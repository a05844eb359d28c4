"""Compare two result files of ``run.py``: ``compare.py BASE.json CHANGE.json``.

One row per workload x end-to-end metric, judged by the bounds in
BENCHMARK.json.  A ratio is always given with its base (BASE is the base).
Verdicts:

* ``ok``          the change's median is no worse than the base's by more
                  than the bound;
* ``REGRESSION``  it is worse by more than the bound, and the runs are steady
                  enough to say so;
* ``unresolved``  the quartile spread of either side exceeds the bound, so
                  the pair is *not* reported as unchanged — unless every
                  value of the change is better than every value of the base,
                  which reads ``ok``.

``failed_share`` has no relative bound: any rise fails.  ``sim_digest`` is
shown so that a change which only claims speed can be held to "identical".
Exits 1 on a regression or a higher ``failed_share``, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent.parent


def values_of(detail: Dict[str, Any], metric: str) -> Dict[str, Any]:
    """median/q1/q3/n/values of one metric; a metric measured once per run
    (memory, TUE) is its own median with no spread."""
    entry = detail[metric]
    if isinstance(entry, dict):
        return entry
    return {"median": entry, "q1": entry, "q3": entry, "n": 1,
            "values": [entry]}


def spread(stats: Dict[str, Any]) -> float:
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def judge(base: Dict[str, Any], change: Dict[str, Any], better: str,
          bound: float) -> Dict[str, Any]:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["median"] - base["median"]) / abs(base["median"])
    noise = max(spread(base), spread(change))
    if better == "lower":
        separated_better = max(change["values"]) < min(base["values"])
        separated_worse = min(change["values"]) > max(base["values"])
    else:
        separated_better = min(change["values"]) > max(base["values"])
        separated_worse = max(change["values"]) < min(base["values"])
    if noise > bound and not (separated_better or separated_worse):
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "REGRESSION"
    else:
        verdict = "ok"
    return {"worse_by": worse_by, "spread": noise, "verdict": verdict}


def compare(base: Dict[str, Any], change: Dict[str, Any],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in base["workloads"] or name not in change["workloads"]:
            continue
        a = base["workloads"][name]["detail"]
        b = change["workloads"][name]["detail"]
        for metric in spec["end_to_end"]:
            stats_a = values_of(a, metric["name"])
            stats_b = values_of(b, metric["name"])
            row = judge(stats_a, stats_b, metric["better"], metric["bound"])
            row.update(workload=name, metric=metric["name"],
                       bound=metric["bound"], base=stats_a, change=stats_b)
            rows.append(row)
        rows.append({
            "workload": name, "metric": "failed_share", "bound": 0,
            "base": values_of(a, "failed_share"),
            "change": values_of(b, "failed_share"),
            "worse_by": b["failed_share"] - a["failed_share"], "spread": 0.0,
            "verdict": ("REGRESSION" if b["failed_share"] > a["failed_share"]
                        else "ok")})
        rows.append({
            "workload": name, "metric": "sim_digest", "bound": None,
            "verdict": ("identical" if a["sim_digest"] == b["sim_digest"]
                        else f"differs ({a['sim_digest']} -> "
                             f"{b['sim_digest']})")})
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    def cell(stats: Dict[str, Any]) -> str:
        return (f"{stats['median']:.5g} [{stats['q1']:.5g}, "
                f"{stats['q3']:.5g}] n={stats['n']}")

    lines = [f"{'workload':13s} {'metric':12s} {'base median [q1, q3]':38s} "
             f"{'change median [q1, q3]':38s} {'worse by':>9s} "
             f"{'spread':>7s} {'bound':>6s}  verdict"]
    for row in rows:
        if row["metric"] == "sim_digest":
            lines.append(f"{row['workload']:13s} {'sim_digest':12s} "
                         f"{row['verdict']}")
            continue
        lines.append(
            f"{row['workload']:13s} {row['metric']:12s} "
            f"{cell(row['base']):38s} {cell(row['change']):38s} "
            f"{row['worse_by']:+9.2%} {row['spread']:7.2%} "
            f"{row['bound']:6.2f}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        change = json.load(handle)
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    if base["trace"] or change["trace"]:
        sys.stderr.write("compare.py reads untraced results: end-to-end "
                         "numbers never come from a traced run\n")
        return 2
    rows = compare(base, change, spec)
    print(f"base:   {argv[0]}  commit {base['host']['commit'][:12]}  "
          f"seed {base['host']['seed']}  nproc {base['host']['nproc']}")
    print(f"change: {argv[1]}  commit {change['host']['commit'][:12]}  "
          f"seed {change['host']['seed']}  nproc {change['host']['nproc']}")
    print(render(rows))
    verdicts = [row["verdict"] for row in rows]
    print(f"{verdicts.count('REGRESSION')} regression(s), "
          f"{verdicts.count('unresolved')} unresolved")
    return 1 if "REGRESSION" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
