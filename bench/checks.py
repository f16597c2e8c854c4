"""Answer checks, run after the timed passes.

* Fixed commands (``tables``, ``space``, ``pool``) are compared with the
  committed ``--jobs 1`` references in ``reference.json``; answered rows of
  tables 1 and 5 are also held to ``TABLE1`` / ``TABLE5`` of
  ``tests/test_acceptance.py``.  A cell answered where the reference printed
  ``timeout`` is listed as unverified; its pi* and value_star are still
  recomputed independently.
* ``profiles``: ``simulate`` and ``eval --profile`` values are recomputed
  from ``enumerate_outcomes`` on the same profile, and every ``manipulate``
  must report ``oracle_agrees: true``.

A check that fails is a wrong answer, which fails the whole run.  A command
that exits non-zero is a failed operation, not a wrong answer.
"""

from __future__ import annotations

import ast
import json
import math
import os
from fractions import Fraction

from metrics import table_rows
from workloads import reference_key

# Key of the rows that time out at the default budget, computed at a raised
# budget (``tables --id T --max-m M --max-n N --budget 100000 --jobs 1``).
RAISED_KEY = "tables --budget 100000, cells that time out at the default budget"

# Half-up rounding to 4 decimals (``fmt_auto``) is off by at most this much.
AUTO_TOLERANCE = Fraction(1, 20000)


def load_acceptance_tables(root: str) -> dict[int, dict]:
    """``TABLE1`` and ``TABLE5`` from the acceptance tests, read without
    importing them."""
    path = os.path.join(root, "tests", "test_acceptance.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TABLE1", "TABLE5"):
                tables[int(name[-1])] = ast.literal_eval(node.value)
    if set(tables) != {1, 5}:
        raise RuntimeError(f"TABLE1 and TABLE5 not found in {path}")
    return tables


def canonical(turns: str) -> str:
    """Relabel agents by first appearance (sequences are equal modulo
    renaming exactly when their canonical forms are)."""
    mapping: dict[str, str] = {}
    return "".join(mapping.setdefault(t, str(len(mapping) + 1)) for t in turns)


def table_tolerance(printed: Fraction) -> Fraction:
    """Half a unit in the last place ``fmt_table`` prints."""
    if printed < 100:
        return Fraction(1, 2000)
    if printed < 1000:
        return Fraction(1, 200)
    return Fraction(1, 20)


class Checker:
    def __init__(self, root: str, reference: dict[str, str], read_input):
        self.root = root
        self.reference = reference
        self.read_input = read_input  # command path argument -> file text
        self.problems: list[str] = []
        self.unverified: set[str] = set()  # answered; pi* and value_star recomputed
        self.newly_answered: set[str] = set()  # answered; equal to the raised-budget row
        raised = table_rows(reference[RAISED_KEY]) if RAISED_KEY in reference else []
        self._raised = {tuple(map(int, row[:3])): row for row in raised}
        self._acceptance = None
        self._seen: set = set()

    def check(self, args: list[str], code: int, out: str) -> None:
        key = (tuple(args), out)
        if code != 0 or key in self._seen:
            return
        self._seen.add(key)
        try:
            if args[0] in ("simulate", "manipulate") or "--profile" in args:
                self._check_profile_command(args, out)
            else:
                self._check_fixed(args, out)
        except Exception as exc:  # a malformed output is a wrong answer too
            self.problems.append(f"{' '.join(args)}: {type(exc).__name__}: {exc}")

    # -- fixed commands ----------------------------------------------------

    def _check_fixed(self, args, out):
        key = reference_key(args)
        want = self.reference[key]
        if args[0] != "tables":
            if out != want:
                self.problems.append(f"{key}: printed {out!r}, reference {want!r}")
            return
        got_rows, want_rows = table_rows(out), table_rows(want)
        if [r[:3] for r in got_rows] != [r[:3] for r in want_rows]:
            self.problems.append(f"{key}: cells differ from the reference")
            return
        for got, ref in zip(got_rows, want_rows):
            table, m, n = int(got[0]), int(got[1]), int(got[2])
            if got[4] == "timeout":
                continue
            if ref[4] == "timeout":
                raised = self._raised.get((table, m, n))
                if raised is None:
                    self.unverified.add(f"table {table} ({m},{n})")
                    self._check_new_cell(table, m, n, got[3], Fraction(got[4]))
                else:
                    self.newly_answered.add(f"table {table} ({m},{n})")
                    if got != raised:
                        self.problems.append(f"{key}: row {','.join(got)} != raised-budget reference "
                                             f"{','.join(raised)}")
            elif got != ref:
                self.problems.append(f"{key}: row {','.join(got)} != reference {','.join(ref)}")
            self._check_acceptance(table, m, n, got)

    def _check_acceptance(self, table, m, n, row):
        if self._acceptance is None:
            self._acceptance = load_acceptance_tables(self.root)
        ref = self._acceptance.get(table, {}).get((m, n))
        if ref is None:
            return
        turns, star, value_all = ref
        ok = canonical(row[3]) == canonical(turns)
        for printed, want in ((row[4], star), (row[5], value_all)):
            ok = ok and abs(Fraction(printed) - Fraction(want)) <= 2 * table_tolerance(Fraction(want))
        if not ok:
            self.problems.append(f"table {table} ({m},{n}): {row} disagrees with TABLE{table} {ref}")

    def _check_new_cell(self, table, m, n, turns, star):
        """pi* and value_star of a cell the reference could not answer."""
        from allocsim.model import ScoringSpec
        from allocsim.parallel import FromSequential
        from allocsim.sequential import Aggregator, SequentialPolicy, optimal_sequential
        from allocsim.welfare import TABLE_SPECS, expected_min_welfare

        spec = TABLE_SPECS[table]
        g = ScoringSpec.borda() if spec.scoring == "borda" else ScoringSpec.lexicographic()
        if spec.criterion.mode == "emin":
            # Optimality is the expensive search itself; check that pi* is a
            # canonical sequence whose expected minimum is value_star.
            want_turns = canonical(turns)
            value = expected_min_welfare("u", FromSequential(SequentialPolicy.from_literal(turns)),
                                         g, m, n, budget_units=10**12)
        else:
            aggregator = Aggregator.UTILITARIAN if spec.criterion.x == "u" else Aggregator.EGALITARIAN
            policy, value = optimal_sequential(m, n, g, aggregator)
            want_turns = policy.literal()
        if turns != want_turns or abs(star - value) > table_tolerance(star):
            self.problems.append(
                f"table {table} ({m},{n}): pi*={turns} value_star={star}, recomputed {want_turns} {float(value)}")

    # -- per-profile commands ---------------------------------------------

    def _check_profile_command(self, args, out):
        if args[0] == "manipulate":
            if json.loads(out).get("oracle_agrees") is not True:
                self.problems.append(f"{' '.join(args)}: oracle_agrees is not true")
            return
        expected, guaranteed = self._outcome_values(args)
        if args[0] == "simulate":
            payload = json.loads(out)
            pairs = list(zip(payload["expected"], expected)) + list(zip(payload["guaranteed"], guaranteed))
            if len(pairs) != 2 * len(expected):
                raise ValueError("wrong number of agents")
        else:
            criterion = args[args.index("--criterion") + 1]
            values = expected if criterion[2] == "u" else guaranteed
            pairs = [(out.strip(), sum(values) if criterion[0] == "u" else min(values))]
        for printed, exact in pairs:
            if abs(Fraction(printed) - exact) > AUTO_TOLERANCE:
                self.problems.append(f"{' '.join(args)}: printed {printed}, outcomes give {float(exact)}")

    def _outcome_values(self, args):
        """Expected and guaranteed utilities (Borda) from outcome enumeration."""
        from allocsim.model import ScoringSpec, parse_profile_text
        from allocsim.parallel import build_structure, enumerate_outcomes, parse_policy

        profile = parse_profile_text(self.read_input(args[args.index("--profile") + 1]))
        policy = parse_policy(args[args.index("--policy") + 1])
        row, denom = ScoringSpec.borda().integer_row(profile.m)
        outcomes = enumerate_outcomes(build_structure(policy, profile))
        # Integer arithmetic over a common probability denominator.
        scale = math.lcm(*{p.denominator for _, p in outcomes})
        weights = [p.numerator * (scale // p.denominator) for _, p in outcomes]
        expected, guaranteed = [], []
        for i, ranking in enumerate(profile.rankings, start=1):
            score = {o: row[k] for k, o in enumerate(ranking.order, start=1)}
            bundle: dict[frozenset, int] = {}
            utilities = []
            for alloc, _ in outcomes:
                won = alloc[i]
                u = bundle.get(won)
                if u is None:
                    u = bundle[won] = sum(score[o] for o in won)
                utilities.append(u)
            expected.append(Fraction(sum(w * u for w, u in zip(weights, utilities)), scale * denom))
            guaranteed.append(Fraction(min(utilities), denom))
        return expected, guaranteed
