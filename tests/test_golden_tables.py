"""The five comparison tables, byte for byte, against committed golden CSVs.

``tests/data/tableN.csv`` holds the stdout of ``allocsim tables --id N
--jobs 1`` at the default budget.  Every table runs in this one process, so
the tables share the process's caches (the laws of one stage and the reveal
counts); cold caches and the module entry point are left to a fresh
``python -m allocsim.cli`` per table.
"""

import csv
import io
from pathlib import Path

import pytest
from click.testing import CliRunner

from allocsim.cli import cli

DATA = Path(__file__).resolve().parent / "data"


def first_difference(expected: str, actual: str) -> str | None:
    """Where two table CSVs first differ, named by table, m, n and column;
    None when they are equal byte for byte."""
    if expected == actual:
        return None
    want = list(csv.DictReader(io.StringIO(expected)))
    got = list(csv.DictReader(io.StringIO(actual)))
    for i, (w, g) in enumerate(zip(want, got)):
        for column in w:
            if w[column] != g.get(column):
                return (
                    f"table {w['table_id']}, m={w['m']}, n={w['n']}, column {column}: "
                    f"expected {w[column]!r}, got {g.get(column)!r}"
                )
    if len(want) != len(got):
        return f"expected {len(want)} rows, got {len(got)}"
    return "the rows agree cell by cell, but the bytes differ (header, quoting or line ends)"


class TestFirstDifference:
    HEADER = "table_id,m,n,pi_star,value_star,value_A\n"

    def test_equal(self):
        text = self.HEADER + "1,4,2,1212,12.292,12.292\n"
        assert first_difference(text, text) is None

    def test_names_the_cell(self):
        want = self.HEADER + "1,4,2,1212,12.292,12.292\n1,5,2,12121,18.625,18.625\n"
        got = self.HEADER + "1,4,2,1212,12.292,12.292\n1,5,2,12121,18.625,18.626\n"
        assert first_difference(want, got) == "table 1, m=5, n=2, column value_A: expected '18.625', got '18.626'"

    def test_missing_row(self):
        want = self.HEADER + "5,8,2,,timeout,timeout\n"
        assert first_difference(want, self.HEADER) == "expected 1 rows, got 0"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("table_id", [1, 2, 3, 4, 5])
def test_table_matches_golden(table_id, jobs):
    result = CliRunner().invoke(cli, ["tables", "--id", str(table_id), "--jobs", jobs])
    assert result.exit_code == 0, result.output
    expected = (DATA / f"table{table_id}.csv").read_bytes().decode()
    difference = first_difference(expected, result.stdout_bytes.decode())
    assert difference is None, difference
