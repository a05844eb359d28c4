"""Rendering helpers for tables and figure series."""

from .phases import render_phase_breakdown
from .tables import (fmt_tue, render_backend_matrix,
                     render_fleet_members, render_series,
                     render_strategy_matrix, render_table)

__all__ = ["fmt_tue", "render_backend_matrix", "render_fleet_members",
           "render_phase_breakdown", "render_series",
           "render_strategy_matrix", "render_table"]
