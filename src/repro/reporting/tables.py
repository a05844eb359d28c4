"""ASCII rendering of the paper's tables and figure series.

The benchmark harness prints these so a run of ``pytest benchmarks/``
regenerates, row for row, what the paper reports.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from ..units import fmt_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.cell import Reading
    from ..fleet.report import FleetReport


def render_table(headers: Sequence[str], rows: Iterable[Sequence[str]],
                 title: Optional[str] = None) -> str:
    """Monospace table with column auto-sizing."""
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    pieces = []
    if title:
        pieces.append(title)
    pieces.append(line(headers))
    pieces.append("-+-".join("-" * w for w in widths))
    pieces.extend(line(row) for row in materialised)
    return "\n".join(pieces)


def render_series(points: Sequence[Tuple[float, float]],
                  x_label: str = "x", y_label: str = "y",
                  title: Optional[str] = None) -> str:
    """A figure's data series as two aligned columns (x as ``g``, y to two
    decimals)."""
    rows = [(f"{x:g}", f"{y:.2f}") for x, y in points]
    return render_table([x_label, y_label], rows, title=title)


def render_fleet_members(report: "FleetReport",
                         title: Optional[str] = None) -> str:
    """The per-member fleet table the ``repro fleet`` CLI prints.

    Shared between the CLI and the sharded-fleet differential tests: the
    rendered report is part of the byte-identity contract, so both sides
    must render through the same code path.  Deliberately a pure function
    of the :class:`~repro.fleet.report.FleetReport` — nothing about domain
    layout may leak into it.
    """
    rows = [
        [member.name, "yes" if member.live else "left",
         fmt_size(int(member.traffic.total)),
         fmt_size(int(member.traffic.data_update_size)),
         fmt_tue(member.tue), str(member.notifications),
         str(member.fanout_fetches), str(member.conflicts)]
        for member in report.members
    ]
    return render_table(
        ["Member", "Live", "Traffic", "Update", "TUE", "Notifs", "Fetches",
         "Conflicts"], rows, title=title)


def render_backend_matrix(readings: Mapping[Tuple[str, str, int], "Reading"],
                          title: Optional[str] = None) -> str:
    """The Experiment 10 sweep, one row per ``(mix, backend, files)`` cell.

    Shared between ``repro backends`` and the archive runner
    ``benchmarks/bench_artifacts.py``, which writes ``results/backends.txt``.
    """
    rows = []
    for (mix, backend, files), reading in readings.items():
        rest = reading.rest
        rows.append([
            mix, backend, str(files), f"{rest.total_ops() / files:.2f}",
            str(rest.total_ops()),
            f"{rest.put}/{rest.get}/{rest.delete}/{rest.list}",
            fmt_size(reading.stored_bytes), fmt_tue(reading.tue, precision=3),
            str(reading.server.shards_sealed),
            str(reading.server.shard_compactions),
            str(reading.client.bundle_commits)])
    return render_table(
        ["Mix", "Backend", "Files", "Ops/file", "REST ops",
         "P/G/D/L", "Stored", "TUE", "Sealed", "Compact", "Bundles"],
        rows, title=title)


def fmt_tue(value: float, precision: int = 2) -> str:
    """Render a TUE ratio under the zero-size convention (PR 3).

    ``nan`` (no traffic, no update) renders as ``—``; ``inf`` (traffic
    with a zero-byte update) renders literally; everything else gets
    ``precision`` decimals.
    """
    if value != value:  # nan
        return "—"
    if value == float("inf"):
        return "inf"
    return f"{value:.{precision}f}"


def render_strategy_matrix(readings: Mapping[Tuple[str, str, str], "Reading"],
                           title: Optional[str] = None) -> str:
    """The Experiment 11 frontier matrix over ``(workload, link, strategy)``
    cells: workload × link rows, one TUE column per strategy, and the
    per-row winner.

    The Winner column names the cheapest *static* strategy, so a glance
    shows no static column winning every row; a ``*`` marks the adaptive
    column wherever its TUE matches or beats that winner's — the
    dominance contract says it always should.
    """
    strategies: List[str] = []
    grid: Dict[Tuple[str, str], Dict[str, float]] = {}
    for (workload, link, strategy), reading in readings.items():
        if strategy not in strategies:
            strategies.append(strategy)
        grid.setdefault((workload, link), {})[strategy] = reading.tue
    rows = []
    for (workload, link), tues in grid.items():
        statics = {name: tue for name, tue in tues.items()
                   if name != "adaptive"}
        _, best = min((tue if tue == tue else float("inf"), name)
                      for name, tue in (statics or tues).items())
        row = [workload, link]
        for name in strategies:
            if name not in tues:
                row.append("—")
                continue
            text = fmt_tue(tues[name], precision=3)
            if name == "adaptive" and (
                    tues[name] <= tues[best] or tues[name] != tues[name]):
                text += "*"
            row.append(text)
        row.append(best)
        rows.append(row)
    return render_table(
        ["Workload", "Link"] + list(strategies) + ["Winner"],
        rows, title=title)
