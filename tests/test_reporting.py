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


def test_row_dict_includes_fields_and_properties():
    from repro.core import measure_creation
    from repro.client import AccessMethod
    from repro.reporting import row_dict
    cell = measure_creation("Box", AccessMethod.PC, 1024)
    row = row_dict(cell)
    assert row["service"] == "Box"
    assert row["access"] == "pc"        # enum flattened
    assert row["traffic"] > 0
    assert "tue" in row                  # property included


def test_row_dict_rejects_non_dataclass():
    import pytest
    from repro.reporting import row_dict
    with pytest.raises(TypeError):
        row_dict({"not": "a dataclass"})


def test_json_roundtrip(tmp_path):
    from repro.core import experiment2_deletion
    from repro.reporting import load_json, to_json
    rows = experiment2_deletion(services=("Box",), sizes=(1024,))
    path = tmp_path / "out.json"
    to_json(rows, path)
    loaded = load_json(path)
    assert loaded[0]["service"] == "Box"
    assert loaded[0]["deletion_traffic"] == rows[0].deletion_traffic


def test_csv_export(tmp_path):
    import csv as csv_module
    from repro.core import experiment2_deletion
    from repro.reporting import to_csv
    rows = experiment2_deletion(services=("Box", "Dropbox"), sizes=(1024,))
    path = tmp_path / "out.csv"
    to_csv(rows, path)
    with path.open() as stream:
        loaded = list(csv_module.DictReader(stream))
    assert len(loaded) == 2
    assert {row["service"] for row in loaded} == {"Box", "Dropbox"}


def test_csv_empty(tmp_path):
    from repro.reporting import to_csv
    path = tmp_path / "empty.csv"
    to_csv([], path)
    assert path.read_text() == ""
