"""Rendering helpers for tables and figure series."""

from .export import load_json, row_dict, to_csv, to_json
from .phases import render_phase_breakdown
from .tables import (fmt_tue, render_backend_matrix,
                     render_fleet_members, render_series,
                     render_strategy_matrix, render_table)

__all__ = ["fmt_tue", "load_json", "render_backend_matrix",
           "render_fleet_members",
           "render_phase_breakdown", "render_series",
           "render_strategy_matrix",
           "render_table", "row_dict", "to_csv", "to_json"]
