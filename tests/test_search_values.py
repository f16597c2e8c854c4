"""The pi* search's answers at sizes no other test reaches, pinned to
``tests/data/search_values.csv``.

Each row is one ``optimal_sequential`` call (criterion ``uuu`` or ``euu``,
m, n and a scoring: ``borda``, ``lex`` or ``custom(...)`` with the scores
best rank first) and its pi* and exact value.  The rows were written by the
search that folded every candidate's agent laws one by one, before the
pick-set table replaced it.  A row's ``tier`` says where it runs: tier 1
rows, which the search answers in well under a second, run in the tier-1
suite; every row runs with

    PYTHONPATH=src python tests/test_search_values.py

which prints each row's CPU time and exits 1 on a row that disagrees.
"""

import csv
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from allocsim.model import ScoringSpec
from allocsim.sequential import Aggregator, optimal_sequential

ROWS = Path(__file__).resolve().parent / "data" / "search_values.csv"


def load_rows():
    with ROWS.open(newline="") as fh:
        return list(csv.DictReader(fh))


def scoring(text):
    if text == "borda":
        return ScoringSpec.borda()
    if text == "lex":
        return ScoringSpec.lexicographic()
    assert text.startswith("custom(") and text.endswith(")"), text
    return ScoringSpec.custom([Fraction(v) for v in text[len("custom("):-1].split()])


def answer(row):
    """The search's ``(pi*, exact value)`` for a row, as the row prints them."""
    pi, value = optimal_sequential(
        int(row["m"]), int(row["n"]), scoring(row["scoring"]), Aggregator(row["criterion"][0])
    )
    return pi.literal(), str(value)


def row_id(row):
    return f"{row['criterion']}-{row['m']}-{row['n']}-{row['scoring'].split('(')[0]}"


@pytest.mark.parametrize("row", [row for row in load_rows() if row["tier"] == "1"], ids=row_id)
def test_tier_one_rows(row):
    assert answer(row) == (row["pi_star"], row["exact"])


def test_rows_cover_every_tier_and_both_criteria():
    rows = load_rows()
    assert {row["tier"] for row in rows} == {"1", "2"}
    assert {row["criterion"] for row in rows} == {"uuu", "euu"}
    assert {row["scoring"].split("(")[0] for row in rows} == {"borda", "lex", "custom"}


def main() -> int:
    failed = 0
    for row in load_rows():
        start = time.process_time()
        got = answer(row)
        ok = got == (row["pi_star"], row["exact"])
        failed += not ok
        print(f"tier {row['tier']} {row_id(row)}: {'ok' if ok else f'got {got}'} "
              f"in {time.process_time() - start:.2f} s CPU")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
