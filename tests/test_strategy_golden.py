"""Golden conformance: the Experiment 11 frontier matrix renders exactly.

Freezes the rendered text of :func:`repro.reporting.render_strategy_matrix`
— column layout, the Winner column, the adaptive ``*`` marker, and
:func:`~repro.reporting.fmt_tue`'s nan/inf conventions (an idle cell
renders ``—``, a pure-overhead cell renders ``inf``).

Regenerate after an intentional change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_strategy_golden.py
"""

import os
from pathlib import Path

from repro.core import (STRATEGIES, STRATEGY_WORKLOADS, Reading,
                        run_strategy_cell)
from repro.reporting import render_strategy_matrix

GOLDEN = Path(__file__).parent / "golden"


def check_golden(name: str, text: str) -> None:
    path = GOLDEN / name
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    assert path.read_text() == text, (
        f"rendered output diverged from {path.name}; regenerate with "
        f"REGEN_GOLDEN=1 if the change is intentional")


def test_strategy_matrix_smoke_sweep():
    """A reduced real sweep (every strategy, one link per workload class)
    under the full conservation audit, rendered and frozen."""
    readings = {(workload, "mn", strategy):
                run_strategy_cell(strategy, workload, "mn", files=2, seed=0)
                for workload in STRATEGY_WORKLOADS for strategy in STRATEGIES}
    text = render_strategy_matrix(
        readings, title="Experiment 11 — sync strategies (smoke, seed 0)")
    check_golden("strategy_matrix.txt", text + "\n")


def synthetic(strategy, workload, link, update, traffic):
    return (workload, link, strategy), Reading(
        traffic=traffic, payload=0, update_bytes=update, sync_transactions=0)


def test_strategy_matrix_nan_and_inf_cells():
    """Degenerate cells follow the PR 3 conventions: an idle cell (no
    traffic, no update) renders ``—``; pure overhead renders ``inf``."""
    readings = dict([
        # Idle row: every strategy nan; adaptive still starred (vacuous
        # dominance), winner is the alphabetically-first static.
        synthetic("full-file", "idle", "mn", 0, 0),
        synthetic("adaptive", "idle", "mn", 0, 0),
        # Pure-overhead row: traffic against a zero-byte update.
        synthetic("full-file", "touch", "mn", 0, 900),
        synthetic("set-reconcile", "touch", "mn", 0, 1200),
        synthetic("adaptive", "touch", "mn", 0, 900),
        # Mixed row with a strategy column missing entirely.
        synthetic("full-file", "edit", "mn", 1000, 2000),
        synthetic("adaptive", "edit", "mn", 1000, 1500),
    ])
    text = render_strategy_matrix(readings, title="degenerate cells")
    check_golden("strategy_matrix_edge.txt", text + "\n")
    assert "—" in text
    assert "inf" in text
