"""Unit tests for table/series rendering."""

from repro.reporting import render_series, render_table
from repro.units import KB, MB


def test_render_table_aligns_columns():
    text = render_table(["name", "value"], [["a", "1"], ["longer", "22"]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert len(set(len(line) for line in lines)) == 1  # all same width


def test_render_table_title():
    text = render_table(["h"], [["x"]], title="Table 6")
    assert text.splitlines()[0] == "Table 6"


def test_render_table_stringifies_cells():
    text = render_table(["n"], [[42]])
    assert "42" in text


def test_render_series_formats():
    text = render_series([(1, 2.5), (2, 3.25)], x_label="X", y_label="TUE")
    assert "X" in text and "TUE" in text
    assert "2.50" in text and "3.25" in text


def test_size_cell_uses_paper_units():
    from types import SimpleNamespace
    from repro.reporting import render_phase_breakdown
    stat = SimpleNamespace(kind="wire", name="upload", events=1, seconds=0.5,
                           up_bytes=10 * MB, down_bytes=KB, wasted_bytes=0)
    source = SimpleNamespace(phase_breakdown=lambda: [stat])
    row = render_phase_breakdown(source).splitlines()[-1]
    cells = [cell.strip() for cell in row.split("|")]
    assert cells[4:6] == ["10.00 M", "1.00 K"]
