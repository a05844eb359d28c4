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
    from dataclasses import dataclass
    from repro.core import cell, create, measure, upload_download
    from repro.client import AccessMethod
    from repro.reporting import row_dict

    @dataclass
    class Labelled:
        service: str
        access: AccessMethod

    row = row_dict(Labelled("Box", AccessMethod.PC))
    assert row["service"] == "Box"
    assert row["access"] == "pc"        # enum flattened
    reading = measure(cell("Box", upload_download(1024)))
    row = row_dict(reading)
    assert row["traffic"] > 0
    assert row["marked"] == list(reading.marked)    # tuple flattened
    assert "tue" in row and "overhead" in row       # properties included
    assert row_dict(measure(cell("Box", create(1024))))["tue"] > 1


def test_row_dict_rejects_non_dataclass():
    import pytest
    from repro.reporting import row_dict
    with pytest.raises(TypeError):
        row_dict({"not": "a dataclass"})


def test_json_roundtrip(tmp_path):
    from repro.core import cell, delete, measure
    from repro.reporting import load_json, to_json
    rows = [measure(cell("Box", delete(1024)))]
    path = tmp_path / "out.json"
    to_json(rows, path)
    loaded = load_json(path)
    assert loaded[0]["traffic"] == rows[0].traffic
    assert loaded[0]["marked"] == list(rows[0].marked)


def test_csv_export(tmp_path):
    import csv as csv_module
    from repro.core import cell, delete, measure
    from repro.reporting import to_csv
    rows = [measure(cell(service, delete(1024)))
            for service in ("Box", "Dropbox")]
    path = tmp_path / "out.csv"
    to_csv(rows, path)
    with path.open() as stream:
        loaded = list(csv_module.DictReader(stream))
    assert len(loaded) == 2
    assert [int(row["traffic"]) for row in loaded] == \
        [row.traffic for row in rows]


def test_csv_empty(tmp_path):
    from repro.reporting import to_csv
    path = tmp_path / "empty.csv"
    to_csv([], path)
    assert path.read_text() == ""
