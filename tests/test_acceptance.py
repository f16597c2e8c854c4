"""Acceptance suite: one test per exit criterion, each printed as a PASS line
(run with ``pytest tests/test_acceptance.py -v -s``).

Reference values are frozen into the tables below; tolerances are stated
per criterion.  Optimal sequences are accepted modulo agent renaming, or, on
a value tie, when the reference sequence re-evaluates to the reported
optimum exactly.
"""

import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from allocsim.model import Profile, Ranking, ScoringSpec, enumerate_profiles, identity_ranking
from allocsim.parallel import (
    AllReporting,
    FromSequential,
    LoserReporting,
    build_structure,
    enumerate_outcomes,
    guaranteed_utilities,
    lottery_expected_utilities,
)
from allocsim.sequential import SequentialPolicy, canonicalize_turns
from allocsim.manipulation import (
    ManipulationProblem,
    brute_force_manipulation,
    find_successful_strategy,
    has_successful_strategy,
    optimal_pessimistic_strategy,
    pessimistic_utility,
    claim_schedule,
    secured_objects,
    sincere_strategy,
)
from allocsim.welfare import (
    agent_value,
    expected_min_welfare,
    evaluate_criterion,
    parse_criterion,
    profile_aggregates,
    profile_utilities,
    reproduce_table,
)

BORDA = ScoringSpec.borda()
LEX = ScoringSpec.lexicographic()
PI = SequentialPolicy((1, 2, 3, 3, 2))
EXAMPLE = Profile((Ranking((1, 2, 3, 4, 5)), Ranking((4, 2, 5, 1, 3)), Ranking((1, 3, 5, 4, 2))))
BIG_BUDGET = 10**9

MILLI = Fraction(1, 1000)
TENTH_MILLI = Fraction(1, 10000)


def ok(criterion: int, message: str):
    print(f"PASS criterion {criterion:2d}: {message}")


def frac(printed: str) -> Fraction:
    return Fraction(printed)


def assert_close(value: Fraction, printed: str, tol: Fraction):
    assert abs(value - frac(printed)) <= tol, f"{float(value)} vs {printed} (tol {float(tol)})"


# reference rows: (m, n) -> (turn sequence, optimal value, all-reporting value)
TABLE1 = {
    (4, 2): ("1212", "12.292", "12.292"),
    (5, 2): ("12121", "18.625", "18.625"),
    (6, 2): ("121212", "26.396", "26.396"),
    (7, 2): ("1212121", "35.396", "35.396"),
    (10, 2): ("1212121212", "70.569", "70.569"),
    (4, 3): ("1231", "13.083", "13.297"),
    (5, 3): ("12312", "20.033", "20.382"),
    (6, 3): ("123123", "28.622", "28.840"),
    (7, 3): ("1231231", "38.511", "38.864"),
    (4, 4): ("1234", "13.583", "13.885"),
    (5, 4): ("12341", "20.800", "21.351"),
    (6, 4): ("123412", "29.600", "30.377"),
}
TABLE2 = {
    (4, 2): ("1212", "20.458", "20.458"),
    (5, 2): ("12121", "44.725", "44.725"),
    (6, 2): ("121212", "95.371", "95.371"),
    (7, 2): ("1212121", "199.49", "199.49"),
    (4, 3): ("1231", "23.000", "23.460"),
    (5, 3): ("12312", "51.933", "53.028"),
    (6, 3): ("123123", "114.27", "115.63"),
    (4, 4): ("1234", "24.417", "25.458"),
    (5, 4): ("12341", "56.350", "58.477"),
}
TABLE3 = {
    (4, 2): ("1221", "6.000", "6.146"),
    (5, 2): ("11222", "9.000", "9.313"),
    (6, 2): ("121221", "13.125", "13.198"),
    (4, 3): ("1233", "3.750", "4.432"),
    (5, 3): ("12332", "5.000", "6.794"),
}
TABLE4 = {
    (4, 2): ("1221", "10.000", "10.229"),
    (5, 2): ("12212", "21.667", "22.363"),
    (6, 2): ("122121", "47.500", "47.686"),
    (4, 3): ("1233", "7.000", "7.820"),
    (5, 3): ("12332", "16.000", "17.676"),
}
TABLE5 = {
    (2, 2): ("12", "1.500", "1.750"),
    (3, 2): ("122", "3.000", "3.500"),
    (4, 2): ("1221", "5.667", "5.958"),
    (5, 2): ("12122", "8.483", "8.992"),
    (6, 2): ("121221", "12.397", "12.736"),
    (7, 2): ("1212122", "16.560", "17.082"),
    (8, 2): ("12122121", "21.738", "22.129"),
}


def check_table(table_id: int, reference: dict, tolerance=None):
    """Compare recomputed rows against the reference table."""
    rows = reproduce_table(table_id, cells=sorted(reference), budget_units=BIG_BUDGET)
    assert len(rows) == len(reference)
    g = BORDA if table_id in (1, 3, 5) else LEX
    criterion = {1: "uuu", 2: "uuu", 3: "euu", 4: "euu", 5: "em-u"}[table_id]
    for row in rows:
        ref_pi, ref_star, ref_all = reference[(row.m, row.n)]
        tol = tolerance(frac(ref_star)) if tolerance else MILLI
        assert row.status == "ok", f"cell ({row.m},{row.n}) timed out"
        assert_close(row.value_star, ref_star, tol)
        tol_all = tolerance(frac(ref_all)) if tolerance else MILLI
        assert_close(row.value_all_reporting, ref_all, tol_all)
        reference_policy = SequentialPolicy.from_literal(ref_pi)
        if canonicalize_turns(row.policy_star.turns) != canonicalize_turns(reference_policy.turns):
            # value tie: the reference sequence must be exactly as good
            if criterion in ("uuu", "euu"):
                ref_value = evaluate_criterion(
                    parse_criterion(criterion), FromSequential(reference_policy), g, row.m, row.n
                )
            else:
                ref_value = expected_min_welfare(
                    "u", FromSequential(reference_policy), g, row.m, row.n, budget_units=BIG_BUDGET
                )
            assert ref_value == row.value_star, (
                f"cell ({row.m},{row.n}): reported {row.policy_star.literal()} "
                f"!= reference {ref_pi} and values differ"
            )


def test_criterion_01_sequential_worked_example():
    """Realized and expected utilities plus welfare for the turn sequence 12332."""
    assert profile_utilities(FromSequential(PI), EXAMPLE, BORDA)[0] == (5, 9, 7)
    assert profile_utilities(FromSequential(PI), EXAMPLE, LEX)[0] == (16, 24, 12)
    # expected utilities by explicit enumeration (14400 reduced profiles)
    enum_borda = profile_aggregates(FromSequential(PI), BORDA, 5, 3).expected("u")
    assert enum_borda == (5, Fraction(36, 5), Fraction(15, 2))
    assert enum_borda == tuple(agent_value(i, "u", "u", FromSequential(PI), BORDA, 5, 3) for i in (1, 2, 3))
    enum_lex = profile_aggregates(FromSequential(PI), LEX, 5, 3).expected("u")
    assert enum_lex == tuple(agent_value(i, "u", "u", FromSequential(PI), LEX, 5, 3) for i in (1, 2, 3))
    assert enum_lex[0] == 16
    assert abs(enum_lex[1] - frac("17.8667")) <= TENTH_MILLI
    assert enum_lex[2] == 17
    assert evaluate_criterion(parse_criterion("uuu"), FromSequential(PI), BORDA, 5, 3) == frac("19.7")
    assert evaluate_criterion(parse_criterion("euu"), FromSequential(PI), LEX, 5, 3) == 16
    ok(1, "sequential worked example: u=(5,9,7)/(16,24,12), u*=(5,7.2,7.5)/(16,17.8667,17), sw=19.7/16")


def test_criterion_02_parallel_worked_example():
    """Expected/guaranteed utilities of the worked profile, and the reference
    minimum 4, which is the minimum over the whole profile space (at the fixed
    profile the per-profile minimum is 8 = min(8,16,12))."""
    hat = lottery_expected_utilities(build_structure(AllReporting(), EXAMPLE), BORDA)
    assert abs(hat[0] - frac("4.8333")) <= TENTH_MILLI
    assert hat[1] == 8 and hat[2] == frac("7.5")
    under = guaranteed_utilities(build_structure(LoserReporting(), EXAMPLE), LEX)
    assert under == (8, 16, 12)
    at_profile = min(profile_utilities(LoserReporting(), EXAMPLE, LEX)[1])
    assert at_profile == 8  # forced by the exact values above
    global_min = evaluate_criterion(parse_criterion("eee"), LoserReporting(), LEX, 5, 3, budget_units=BIG_BUDGET)
    assert global_min == 4
    ok(2, "parallel worked example: hat=(4.8333,8,7.5), under=(8,16,12); "
          "reference value 4 reproduced as the all-profiles minimum (fixed-profile min is 8)")


def test_criterion_03_table_one():
    check_table(1, TABLE1)
    ok(3, f"table 1 ({len(TABLE1)} cells) within 0.001, sequences match modulo renaming/tie")


def test_criterion_04_table_two():
    check_table(2, TABLE2, tolerance=lambda ref: Fraction(1, 100) if ref >= 100 else MILLI)
    ok(4, f"table 2 ({len(TABLE2)} cells) within 0.001 (0.01 above 100)")


def test_criterion_05_tables_three_and_four():
    check_table(3, TABLE3)
    check_table(4, TABLE4)
    ok(5, f"tables 3 and 4 ({len(TABLE3) + len(TABLE4)} cells) within 0.001")


def test_criterion_06_table_five():
    check_table(5, TABLE5)
    ok(6, f"table 5 ({len(TABLE5)} cells) within 0.001")


def test_criterion_07_identity_insensitivity():
    """Per-agent values coincide and the utilitarian aggregate is n times the
    egalitarian one, exactly, for both stage policies and both scorings."""
    checked = 0
    for policy_cls in (AllReporting, LoserReporting):
        for g in (BORDA, LEX):
            for n in (1, 2, 3):
                for m in (1, 2, 3, 4):
                    stats = profile_aggregates(policy_cls(), g, m, n, budget_units=BIG_BUDGET)
                    for z in ("u", "e"):
                        for values in (stats.expected(z), stats.minimum(z)):
                            assert len(set(values)) == 1
                            assert sum(values, Fraction(0)) == n * min(values)
                            checked += 1
    ok(7, f"identity insensitivity exact for m<=4, n<=3, both policies and scorings ({checked} aggregates)")


def test_criterion_08_recursion_oracle_equivalence():
    """Expected values match outcome-probability sums and guaranteed values
    match lose-every-lottery minima, exactly, on every profile."""
    rng = random.Random(2024)
    row_cache = {}
    checked = 0
    for m in (1, 2, 3):
        row_cache[m] = BORDA.score_row(m)
        for n in (1, 2, 3):
            policies = [AllReporting(), LoserReporting()]
            turns = tuple(rng.randrange(1, n + 1) for _ in range(m))
            policies.append(FromSequential(SequentialPolicy(turns)))
            for rows in itertools.product(itertools.permutations(range(1, m + 1)), repeat=n):
                profile = Profile(tuple(map(Ranking, rows)))
                for policy in policies:
                    structure = build_structure(policy, profile)
                    hat = lottery_expected_utilities(structure, BORDA)
                    under = guaranteed_utilities(structure, BORDA)
                    row = row_cache[m]
                    outcomes = enumerate_outcomes(structure)
                    assert sum(p for _, p in outcomes) == 1
                    for i in range(1, n + 1):
                        ranking = profile.rankings[i - 1]
                        mean = sum(
                            (p * sum(row[ranking.rank_of(o)] for o in alloc[i]) for alloc, p in outcomes),
                            Fraction(0),
                        )
                        assert mean == hat[i - 1]
                    worst = _lose_all_minima(structure, profile, row)
                    assert worst == under
                    checked += 1
    ok(8, f"recursions equal the outcome-enumeration oracle exactly on {checked} structures")


def _lose_all_minima(structure, profile, row):
    n = profile.n
    from allocsim.parallel import STOP

    paths = []

    def collect(node, gains, lost_all):
        if node is STOP:
            paths.append((tuple(gains), tuple(lost_all)))
            return
        groups = node.contenders()
        for losers, target in node.edges:
            updated = list(gains)
            still = list(lost_all)
            for agent in node.reporters:
                obj = node.demands[agent]
                if agent not in losers:
                    updated[agent - 1] += row[profile.rankings[agent - 1].rank_of(obj)]
                    if len(groups[obj]) > 1:
                        still[agent - 1] = False
            collect(target, updated, still)

    collect(structure.root, [Fraction(0)] * n, [True] * n)
    return tuple(min(gains[i] for gains, lost in paths if lost[i]) for i in range(n))


def test_criterion_09_feasibility_equivalence():
    """The staged feasibility test agrees with brute force on every target of
    100 random problems at each size."""
    rng = random.Random(7)
    disagreements = 0
    checked = 0
    for m, n in ((3, 2), (4, 2), (4, 3)):
        perms = list(itertools.permutations(range(1, m + 1)))
        for _ in range(100):
            others = tuple(Ranking(rng.choice(perms)) for _ in range(n - 1))
            for bits in range(2**m):
                target = frozenset(o for o in range(1, m + 1) if bits >> (o - 1) & 1)
                problem = ManipulationProblem(others, target)
                exists, _, _ = brute_force_manipulation(problem, BORDA)
                if exists != has_successful_strategy(problem):
                    disagreements += 1
                checked += 1
    assert disagreements == 0
    ok(9, f"feasibility test vs brute force: {checked} problems, 0 disagreements")


def test_criterion_10_strategy_algorithms():
    """Constructed strategies secure their targets in time; the greedy bundle
    matches the brute-force optimum under lexicographic scoring."""
    rng = random.Random(11)
    checked_profiles = 0
    for m in (2, 3, 4, 5):
        perms = list(itertools.permutations(range(1, m + 1)))
        for n in (2, 3):
            for _ in range(100):
                rows = tuple(Ranking(rng.choice(perms)) for _ in range(n))
                profile = Profile(rows)
                others = rows[1:]
                for bits in range(2**m):
                    target = frozenset(o for o in range(1, m + 1) if bits >> (o - 1) & 1)
                    problem = ManipulationProblem(others, target)
                    strategy = find_successful_strategy(problem)
                    assert (strategy is None) == (not has_successful_strategy(problem))
                    if strategy is None:
                        continue
                    assert target <= secured_objects(strategy, others)
                    schedule = claim_schedule(others, target)
                    rounds = {o: k for k, (_, c, t) in enumerate(schedule.stages, start=1) for o in c | t}
                    for position, obj in enumerate(strategy.reports, start=1):
                        if obj in target:
                            assert position < rounds[obj]
                strategy, achieved, value = optimal_pessimistic_strategy(profile, LEX)
                _, best_value, _ = brute_force_manipulation(
                    ManipulationProblem(others, frozenset()), LEX, ranking=rows[0]
                )
                assert value == best_value
                assert pessimistic_utility(sincere_strategy(profile), profile, LEX) <= value
                checked_profiles += 1
    strategy, achieved, value = optimal_pessimistic_strategy(EXAMPLE, LEX)
    assert achieved == {2}
    assert strategy.reports in {(2, 3), (2, 5)}
    assert value == 8
    ok(10, f"strategy construction and greedy bundle vs brute force: {checked_profiles} profiles, 0 disagreements")


def test_criterion_11_loser_reporting_floor():
    """Every run of the loser-reporting policy gives every agent at least
    floor(m/n) objects (profiles enumerated up to object relabeling, which
    preserves the run structure)."""
    checked = 0
    for n in (1, 2, 3):
        for m in range(1, 6):
            floor = m // n
            for profile, _ in enumerate_profiles(m, n):
                structure = build_structure(LoserReporting(), profile)
                for allocation, _ in enumerate_outcomes(structure):
                    assert all(len(objs) >= floor for objs in allocation.values())
                    checked += 1
    ok(11, f"loser-reporting floor guarantee holds on {checked} complete runs (m<=5, n<=3)")


def _cli(*args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "allocsim.cli", *args], capture_output=True, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_12_byte_identical_outputs(tmp_path):
    """Repeated runs and different worker counts give identical bytes for the
    delimited outputs behind criteria 1-6."""
    profile_path = tmp_path / "profile.txt"
    profile_path.write_text("1 2 3 4 5\n4 2 5 1 3\n1 3 5 4 2\n")
    configs = [
        ("simulate", "--policy", "seq:12332", "--profile", str(profile_path), "--format", "csv"),
        ("simulate", "--policy", "all", "--profile", str(profile_path), "--format", "csv"),
        ("simulate", "--policy", "loser", "--profile", str(profile_path), "--scoring", "lex", "--format", "csv"),
        ("eval", "-m", "3", "-n", "2", "--policy", "all", "--criterion", "uuu", "--format", "csv"),
        ("tables", "--id", "1", "--max-m", "5", "--max-n", "3"),
        ("tables", "--id", "2", "--max-m", "5", "--max-n", "3"),
        ("tables", "--id", "3", "--max-m", "5", "--max-n", "3"),
        ("tables", "--id", "4", "--max-m", "5", "--max-n", "3"),
        ("tables", "--id", "5", "--max-m", "4"),
    ]
    for config in configs:
        first = _cli(*config)
        second = _cli(*config)
        assert first == second, config
        if config[0] == "tables":
            for jobs in ("2", "3"):
                assert _cli(*config, "--jobs", jobs) == first, (config, jobs)
    ok(12, f"byte-identical outputs across repeated runs and worker counts ({len(configs)} configs)")
