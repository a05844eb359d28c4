"""The artifact registry contract: one entry per reproduced artifact, and
the CLI, the listing and ``benchmarks/results/`` all derived from it."""

from collections import Counter
from pathlib import Path

import pytest

from repro.artifacts import ARTIFACTS
from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def test_list_rows_equal_the_registry(capsys):
    assert main(["list"]) == 0
    registry_table = capsys.readouterr().out.split("\n\n")[0]
    rows = [[cell.strip() for cell in line.split(" | ")]
            for line in registry_table.splitlines()[2:]]
    assert [(row[0], row[1]) for row in rows] == \
        [(entry.name, entry.description) for entry in ARTIFACTS]


def test_every_archived_result_is_claimed_by_exactly_one_entry():
    claims = Counter(name for entry in ARTIFACTS for name in entry.artifacts)
    assert [name for name, count in claims.items() if count > 1] == []
    stems = {path.stem for path in (ROOT / "benchmarks" / "results")
             .glob("*.txt")}
    assert stems == set(claims)


def test_design_index_lists_every_entry():
    design = (ROOT / "DESIGN.md").read_text()
    assert [entry.name for entry in ARTIFACTS
            if f"| `{entry.name}` |" not in design] == []


@pytest.mark.parametrize("argv", [["table7", "--access", "web"],
                                  ["table2", "--scale", "0.005"]],
                         ids=lambda argv: argv[0])
def test_cli_prints_exactly_what_the_entry_renders(capsys, argv):
    args = build_parser().parse_args(argv)
    expected = "".join(text + "\n" for text in
                       args.entry.render(args, args.entry.run(args)).values())
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
