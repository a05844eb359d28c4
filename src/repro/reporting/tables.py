"""ASCII rendering of the paper's tables and figure series.

The benchmark harness prints these so a run of ``pytest benchmarks/``
regenerates, row for row, what the paper reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from ..units import fmt_size

if TYPE_CHECKING:  # pragma: no cover - typing only
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
                  title: Optional[str] = None,
                  x_format: str = "g", y_format: str = ".2f") -> str:
    """A figure's data series as two aligned columns."""
    rows = [(format(x, x_format), format(y, y_format)) for x, y in points]
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


def render_backend_matrix(cells: Sequence, title: Optional[str] = None) -> str:
    """The Experiment 10 backend × mix sweep, one row per cell.

    Shared between ``repro backends`` and ``benchmarks/bench_backends.py``
    so the rendered sweep is part of the rerun byte-identity contract.
    """
    rows = [
        [cell.mix, cell.backend, str(cell.files),
         f"{cell.rest_ops_per_file:.2f}", str(cell.rest_ops),
         f"{cell.put_ops}/{cell.get_ops}/{cell.delete_ops}/{cell.list_ops}",
         fmt_size(cell.stored_bytes), fmt_tue(cell.tue, precision=3),
         str(cell.shards_sealed), str(cell.shard_compactions),
         str(cell.bundle_commits)]
        for cell in cells
    ]
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


def render_strategy_matrix(cells: Sequence,
                           title: Optional[str] = None) -> str:
    """The Experiment 11 frontier matrix: workload × link rows, one TUE
    column per strategy, and the per-row winner.

    The Winner column names the cheapest *static* strategy, so a glance
    shows no static column winning every row; a ``*`` marks the adaptive
    column wherever its TUE matches or beats that winner's — the
    dominance contract says it always should.
    """
    strategies: List[str] = []
    for cell in cells:
        if cell.strategy not in strategies:
            strategies.append(cell.strategy)
    grid: dict = {}
    row_keys: List[Tuple[str, str]] = []
    for cell in cells:
        key = (cell.workload, cell.link)
        if key not in grid:
            grid[key] = {}
            row_keys.append(key)
        grid[key][cell.strategy] = cell
    rows = []
    for workload, link in row_keys:
        row_cells = grid[(workload, link)]
        statics = [c for c in row_cells.values() if c.strategy != "adaptive"]
        best = min(statics or row_cells.values(),
                   key=lambda c: (c.tue if c.tue == c.tue else float("inf"),
                                  c.strategy))
        row = [workload, link]
        for name in strategies:
            cell = row_cells.get(name)
            if cell is None:
                row.append("—")
                continue
            text = fmt_tue(cell.tue, precision=3)
            if name == "adaptive" and (
                    cell.tue <= best.tue or cell.tue != cell.tue):
                text += "*"
            row.append(text)
        row.append(best.strategy)
        rows.append(row)
    return render_table(
        ["Workload", "Link"] + list(strategies) + ["Winner"],
        rows, title=title)
