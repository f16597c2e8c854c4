import csv
import io
import itertools
import math
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import allocsim.sequential as sequential
import allocsim.welfare as welfare
from allocsim.errors import BudgetExceededError, PolicyViolationError
from allocsim.model import Profile, Ranking, ScoringSpec, enumerate_profiles, identity_ranking
from allocsim.parallel import (
    AllReporting,
    CustomPolicy,
    FromSequential,
    LoserReporting,
    ParallelPolicy,
    all_reporting_values_scaled,
)
from allocsim.sequential import (
    Aggregator,
    SequentialPolicy,
    _best_sequence,
    _stage_law,
    canonical_turn_sequences,
    optimal_sequential,
)
from allocsim.welfare import (
    WelfareCriterion,
    agent_value,
    evaluate_criterion,
    expected_min_welfare,
    optimal_sequential_expected_min,
    parse_criterion,
    profile_aggregates,
    profile_utilities,
    reproduce_table,
    symmetric_aggregates,
    worker_count,
)

MILLI = Fraction(1, 1000)


def close(value, printed, tol=MILLI):
    return abs(value - Fraction(str(printed))) <= tol


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every pool a pass starts, on a 2-CPU host."""
    started = []

    class CountingPool(welfare.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(welfare, "ProcessPoolExecutor", CountingPool)
    return started


class TestCriterionParsing:
    def test_compositional(self):
        c = parse_criterion("ueu")
        assert (c.mode, c.x, c.y, c.z) == ("comp", "u", "e", "u")
        assert c.literal() == "ueu"

    def test_expected_min(self):
        c = parse_criterion("em-e")
        assert (c.mode, c.z) == ("emin", "e")
        assert c.literal() == "em-e"

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_criterion("uu")
        with pytest.raises(ValueError):
            parse_criterion("uux")
        with pytest.raises(ValueError):
            parse_criterion("em-x")


class TestAgentValue:
    def test_mean_expected_all_reporting(self, borda):
        value = agent_value(1, "u", "u", AllReporting(), borda, 5, 3)
        assert close(3 * value, "20.382")

    def test_worst_profile_two_by_two(self, borda):
        assert agent_value(1, "e", "u", AllReporting(), borda, 2, 2) == Fraction(3, 2)

    def test_sequential_embedding_matches_expectation(self, borda):
        pi = SequentialPolicy((1, 2, 3, 3, 2))
        value = agent_value(1, "u", "u", FromSequential(pi), borda, 5, 3)
        assert value == 5

    def test_agent_validation(self, borda):
        with pytest.raises(ValueError):
            agent_value(0, "u", "u", AllReporting(), borda, 2, 2)
        with pytest.raises(ValueError):
            agent_value(3, "u", "u", AllReporting(), borda, 2, 2)


class TestSocialWelfare:
    def test_utilitarian_all_reporting(self, borda):
        value = evaluate_criterion(parse_criterion("uuu"), AllReporting(), borda, 5, 3)
        assert close(value, "20.382")

    def test_egalitarian_all_reporting(self, borda):
        value = evaluate_criterion(parse_criterion("euu"), AllReporting(), borda, 4, 2)
        assert close(value, "6.146")

    def test_global_min_loser_reporting(self, lex):
        # The worst guaranteed utility over every profile and agent: a chain
        # of lost lotteries can push an agent down to her rank-n object but
        # no further, so the value is the rank-3 lexicographic score, 4.
        value = evaluate_criterion(parse_criterion("eee"), LoserReporting(), lex, 5, 3)
        assert value == 4

    def test_budget_refusal(self, borda):
        # ``loser``'s law serves only y = z, so a mixed criterion still enumerates.
        with pytest.raises(BudgetExceededError):
            evaluate_criterion(parse_criterion("ueu"), LoserReporting(), borda, 9, 3)


class TestPerProfileWelfare:
    def test_fixed_profile_guaranteed_min(self, example_profile, lex):
        # min over agents of the guaranteed utilities (8, 16, 12)
        value = min(profile_utilities(LoserReporting(), example_profile, lex)[1])
        assert value == 8

    def test_fixed_profile_expected_sum(self, example_profile, borda):
        value = sum(profile_utilities(AllReporting(), example_profile, borda)[0])
        assert value == Fraction(29, 6) + 8 + Fraction(15, 2)


class TestExpectedMin:
    def test_all_reporting_two_objects(self, borda):
        assert expected_min_welfare("u", AllReporting(), borda, 2, 2) == Fraction(7, 4)

    def test_alternating_two_objects(self, borda):
        policy = FromSequential(SequentialPolicy((1, 2)))
        assert expected_min_welfare("u", policy, borda, 2, 2) == Fraction(3, 2)

    def test_three_objects(self, borda):
        policy = FromSequential(SequentialPolicy((1, 2, 2)))
        assert expected_min_welfare("u", policy, borda, 3, 2) == 3

    def test_reduction_is_exact(self, borda, full_stream_reference):
        for m, n in [(2, 2), (3, 2), (3, 3)]:
            policy = FromSequential(SequentialPolicy(tuple((k % n) + 1 for k in range(m))))
            full = full_stream_reference(policy, borda, m, n)
            for z in ("u", "e"):
                mean, minimum, mean_min = full[z]
                assert expected_min_welfare(z, policy, borda, m, n) == mean_min
                for agent in range(1, n + 1):
                    assert agent_value(agent, "u", z, policy, borda, m, n) == mean[agent - 1]
                    assert agent_value(agent, "e", z, policy, borda, m, n) == minimum[agent - 1]


class TestIdentityInsensitivity:
    @pytest.mark.parametrize("policy_cls", [AllReporting, LoserReporting])
    @pytest.mark.parametrize("kind", ["borda", "lex"])
    def test_per_agent_values_equal_small(self, policy_cls, kind):
        g = ScoringSpec(kind)
        for m, n in [(2, 2), (3, 2), (3, 3)]:
            stats = profile_aggregates(policy_cls(), g, m, n)
            for z in ("u", "e"):
                expected = stats.expected(z)
                minimum = stats.minimum(z)
                assert len(set(expected)) == 1
                assert len(set(minimum)) == 1
                for y, values in (("u", expected), ("e", minimum)):
                    total = sum(values, Fraction(0))
                    assert total == n * min(values)


class TestSequentialEmbeddingConsistency:
    """The agent law that serves a turn sequence's profile averages, pinned
    to the profile pass of the same sequence."""

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3)])
    def test_welfare_of_embedding_equals_sequential(self, borda, m, n):
        for turns in itertools.product(range(1, n + 1), repeat=m):
            policy = FromSequential(SequentialPolicy(turns))
            util = evaluate_criterion(parse_criterion("uuu"), policy, borda, m, n)
            egal = evaluate_criterion(parse_criterion("euu"), policy, borda, m, n)
            expected = profile_aggregates(policy, borda, m, n).expected("u")
            assert util == sum(expected)
            assert egal == min(expected)

    def test_spot_check_larger(self, borda):
        policy = FromSequential(SequentialPolicy((1, 2, 3, 1)))
        value = evaluate_criterion(parse_criterion("uuu"), policy, borda, 4, 3)
        assert value == sum(profile_aggregates(policy, borda, 4, 3).expected("u"))


def custom_row(m):
    """A strictly decreasing rational score row for m objects."""
    return ScoringSpec.custom([Fraction(3 * (m - k) + 1, k + 2) for k in range(m)])


def assert_law_matches_plain_pass(g, m, n):
    law = symmetric_aggregates(AllReporting(), g, m, n)
    plain = profile_aggregates(AllReporting(), g, m, n)
    assert (law.scale, law.total_weight) == (plain.scale, plain.total_weight)
    assert (law.sums, law.minima) == (plain.sums, plain.minima)


def closed_form(g, m, n):
    """Any one agent's expected and guaranteed utility under all-reporting,
    each averaged over all profiles, by a ``Fraction`` recursion over the
    subsets of agent 1's remaining ranks: the reference for the agent law's
    all-reporting sums.

    Fix agent 1's ranking to the identity: it demands the best remaining
    rank p, and by deferred decisions each other agent's demand is uniform
    over the r remaining objects.  With k others on p, agent 1 banks
    g(p)/(k+1) in expectation and g(p) for sure when k = 0; the next state
    keeps a uniform subset of the other remaining ranks, of a size set by
    how many distinct ones the others hit."""
    row = g.score_row(m)
    laws = {}
    for r in range(1, m + 1):
        hits = [1]  # ways for the others to hit s distinct objects besides p
        for _ in range(n - 1):
            grown = [0] * (len(hits) + 1)
            for s, w in enumerate(hits):
                grown[s] += w * (s + 1)
                grown[s + 1] += w * (r - 1 - s)
            hits = grown
        total = r ** (n - 1)
        moves = [(r - 1 - s, Fraction(w, total * math.comb(r - 1, s))) for s, w in enumerate(hits) if w]
        laws[r] = (Fraction(r**n - (r - 1) ** n, n * total), Fraction((r - 1) ** (n - 1), total), moves)
    memo = {(): (Fraction(0), Fraction(0))}

    def value(remaining):
        if remaining not in memo:
            share, alone, moves = laws[len(remaining)]
            top, rest = row[remaining[0]], remaining[1:]
            expected, guaranteed = top * share, top * alone
            for size, chance in moves:
                for kept in itertools.combinations(rest, size):
                    e, gu = value(kept)
                    expected += chance * e
                    guaranteed += chance * gu
            memo[remaining] = (expected, guaranteed)
        return memo[remaining]

    return value(tuple(range(1, m + 1)))


def law_transitions_by_search(m, n):
    """Count the all-reporting law's transitions by walking every state it
    reaches: one per reveal and number of objects demanded."""
    reached = {(m, 0)}
    count = 0
    for r in range(m, 0, -1):
        objects = [k for k, *_ in _stage_law(r, n - 1)]
        for p in [p for left, p in reached if left == r]:
            reveals = m - p - r + 1
            count += reveals * len(objects)
            reached.update((r - k, p + j + 1) for j in range(reveals) for k in objects)
    return count


# The table 1-4 cells, at which the all-reporting column is printed.
TABLE_CELLS = welfare.TABLE_SPECS[1].cells


class TestQuotientPass:
    """The all-reporting entry of the agent law, pinned to the plain
    enumeration pass, to the ``Fraction`` closed form over remaining ranks
    and to its own budget: every agent's sums and minima of expected and
    guaranteed utility, exactly."""

    @pytest.mark.parametrize("kind", ["borda", "lex", "custom"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_plain_pass(self, kind, m):
        g = custom_row(m) if kind == "custom" else ScoringSpec(kind)
        # (5, 4) is left out: its plain pass enumerates 1.7M profiles.
        for n in (1, 2, 3, 4) if m < 5 else (1, 2, 3):
            assert_law_matches_plain_pass(g, m, n)

    @settings(max_examples=50)
    @given(
        cell=st.sampled_from([(m, n) for m in range(1, 6) for n in range(1, 5) if (m, n) != (5, 4)]),
        data=st.data(),
    )
    def test_random_rational_scores(self, cell, data):
        m, n = cell
        values = data.draw(st.lists(
            st.fractions(min_value=Fraction(1, 50), max_value=100, max_denominator=60),
            min_size=m, max_size=m,
        ))
        assert_law_matches_plain_pass(ScoringSpec.custom(sorted(values, reverse=True)), m, n)

    @pytest.mark.parametrize("kind", ["borda", "lex"])
    @pytest.mark.parametrize("m,n", TABLE_CELLS)
    def test_all_reporting_means_equal_the_closed_form(self, kind, m, n):
        g = ScoringSpec(kind)
        expected, guaranteed = closed_form(g, m, n)
        law = symmetric_aggregates(AllReporting(), g, m, n)
        assert (law.expected("u"), law.expected("e")) == ((expected,) * n, (guaranteed,) * n)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (3, 1), (4, 2), (5, 5), (7, 3), (8, 3), (10, 2), (6, 4)])
    def test_budget_estimate_counts_transitions(self, borda, m, n):
        with pytest.raises(BudgetExceededError) as refused:
            symmetric_aggregates(AllReporting(), borda, m, n, budget_units=0)
        count = refused.value.estimated
        assert count == law_transitions_by_search(m, n)
        symmetric_aggregates(AllReporting(), borda, m, n, budget_units=count)
        with pytest.raises(BudgetExceededError):
            symmetric_aggregates(AllReporting(), borda, m, n, budget_units=count - 1)

    def test_budget_is_exact(self, borda):
        symmetric_aggregates(AllReporting(), borda, 8, 3, budget_units=126)
        with pytest.raises(BudgetExceededError):
            symmetric_aggregates(AllReporting(), borda, 8, 3, budget_units=125)

    def test_timed_out_cells(self, borda):
        # Table 1 cells the enumeration could not answer at the default budget.
        for m, n, printed in ((10, 2, "70.569"), (7, 3, "38.864"), (8, 3, "50.381"), (6, 4, "30.377")):
            expected = symmetric_aggregates(AllReporting(), borda, m, n).expected("u")
            assert close(sum(expected), printed, MILLI / 2)

    def test_rejects_other_policies(self, borda):
        with pytest.raises(ValueError):
            symmetric_aggregates(CustomPolicy(lambda history: (1, 2)), borda, 3, 2)


def sorted_items(rows):
    """The items of ``rows`` whose rankings of agents 2..n are non-decreasing,
    each weighted by the number of distinct orders of those rankings."""
    for orders, weight in rows:
        others = orders[1:]
        if list(others) == sorted(others):
            ways = math.factorial(len(others))
            for ranking in set(others):
                ways //= math.factorial(others.count(ranking))
            yield orders, weight * ways


class TestSymmetrySoundness:
    @pytest.mark.parametrize("kind", ["borda", "lex"])
    @pytest.mark.parametrize("policy_literal", ["all", "loser", "seq"])
    def test_reduced_equals_full(self, kind, policy_literal, full_stream_reference):
        g = ScoringSpec(kind)
        # n >= 4 gives agent-relabeling orbits of every size, ties included.
        for m, n in [(2, 2), (3, 2), (3, 3), (2, 4), (3, 4), (2, 5)]:
            if policy_literal == "seq":
                policy = FromSequential(SequentialPolicy(tuple((k % n) + 1 for k in range(m))))
            elif policy_literal == "all":
                policy = AllReporting()
            else:
                policy = LoserReporting()
            reduced = profile_aggregates(policy, g, m, n)
            full = full_stream_reference(policy, g, m, n)
            for z in ("u", "e"):
                assert (reduced.expected(z), reduced.minimum(z), reduced.expected_min(z)) == full[z]

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 1), (1, 3), (3, 2), (3, 3), (4, 3), (3, 4), (2, 5), (2, 6)])
    def test_orbit_walk_is_the_sorted_part_of_each_chunk(self, m, n):
        for parts in (1, 3, 8):
            for chunk in enumerate_profiles(m, n).partition(parts):
                assert list(welfare._sorted_others(chunk)) == list(sorted_items(chunk.iter_order_rows()))

    def test_anonymous_pass_evaluates_one_profile_per_orbit(self, borda, monkeypatch):
        calls = []

        def counted(orders, int_row, scale):
            calls.append(orders)
            return all_reporting_values_scaled(orders, int_row, scale)

        monkeypatch.setattr(welfare, "all_reporting_values_scaled", counted)
        profile_aggregates(AllReporting(), borda, 4, 3)
        assert len(calls) == 24 * 25 // 2
        assert all(orders[1] <= orders[2] for orders in calls)

    @pytest.mark.parametrize("policy", [AllReporting(), LoserReporting()], ids=["all", "loser"])
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (3, 4), (2, 5), (4, 2), (5, 1)])
    def test_budget_estimate_counts_orbit_items(self, borda, policy, m, n):
        # One unit per object of each profile the pass evaluates.
        with pytest.raises(BudgetExceededError) as refused:
            profile_aggregates(policy, borda, m, n, budget_units=0)
        stream = enumerate_profiles(m, n)
        assert refused.value.estimated == m * sum(1 for _ in welfare._sorted_others(stream))

    def test_orbit_budget_is_exact(self, borda):
        # comb(4! + 1, 2) = 300 profiles of 4 objects each.
        profile_aggregates(LoserReporting(), borda, 4, 3, budget_units=1200)
        with pytest.raises(BudgetExceededError):
            profile_aggregates(LoserReporting(), borda, 4, 3, budget_units=1199)


class TestAllReportingDominance:
    def test_utilitarian_parity_two_agents(self, borda, lex):
        # Empirically the all-reporting value coincides with the optimal
        # sequence for two agents and strictly exceeds it for three.
        for g in (borda, lex):
            for m in (4, 5):
                _, star = optimal_sequential(m, 2, g, Aggregator.UTILITARIAN)
                value_all = evaluate_criterion(parse_criterion("uuu"), AllReporting(), g, m, 2)
                assert value_all == star

    def test_utilitarian_strictly_better_three_agents(self, borda):
        for m in (4, 5):
            _, star = optimal_sequential(m, 3, borda, Aggregator.UTILITARIAN)
            value_all = evaluate_criterion(parse_criterion("uuu"), AllReporting(), borda, m, 3)
            assert value_all > star

    def test_egalitarian_strictly_better(self, borda):
        for m, n in [(4, 2), (5, 2), (4, 3)]:
            _, star = optimal_sequential(m, n, borda, Aggregator.EGALITARIAN)
            value_all = evaluate_criterion(parse_criterion("euu"), AllReporting(), borda, m, n)
            assert value_all > star


class TestTables:
    def test_table_one_small_cells(self):
        rows = reproduce_table(1, cells=[(4, 2), (5, 2), (6, 2)])
        for row, printed in zip(rows, ("12.292", "18.625", "26.396")):
            assert close(row.value_star, printed)
            assert close(row.value_all_reporting, printed)
            assert row.status == "ok"

    def test_table_two_cell(self):
        (row,) = reproduce_table(2, cells=[(4, 3)])
        assert close(row.value_star, "23.000")
        assert close(row.value_all_reporting, "23.460")

    def test_table_four_cell(self):
        (row,) = reproduce_table(4, cells=[(5, 3)])
        assert close(row.value_star, "16.000")
        assert close(row.value_all_reporting, "17.676")

    def test_table_five_rows(self):
        rows = reproduce_table(5, max_m=4)
        expected = [("12", "1.500", "1.750"), ("122", "3.000", "3.500"), ("1221", "5.667", "5.958")]
        assert len(rows) == 3
        for row, (pi, star, all_value) in zip(rows, expected):
            assert row.policy_star.literal() == pi
            assert close(row.value_star, star)
            assert close(row.value_all_reporting, all_value)

    def test_timeout_cells_reported_not_fatal(self):
        # The all-reporting agent law needs 13 work units at (4, 2) and
        # 126 at (8, 3).
        rows = reproduce_table(1, cells=[(4, 2), (8, 3)], budget_units=100)
        assert rows[0].status == "ok"
        assert rows[1].status == "timeout"
        assert rows[1].value_star is None
        assert rows[1].value_all_reporting is None

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            reproduce_table(7)

    def test_budget_refusal_skips_pi_star_search(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return optimal_sequential(*args, **kwargs)

        monkeypatch.setattr(welfare, "optimal_sequential", counting)
        rows = reproduce_table(1, budget_units=1)
        assert len(rows) == 15
        assert all(row.status == "timeout" for row in rows)
        assert calls == []

    def test_expected_min_search_small(self, borda):
        pi, value = optimal_sequential_expected_min(2, 2, borda)
        assert pi.turns == (1, 2)
        assert value == Fraction(3, 2)

    @pytest.mark.parametrize(
        "m, n, g",
        [(1, 1, ScoringSpec.borda()), (4, 1, ScoringSpec.lexicographic()), (5, 2, ScoringSpec.borda()),
         (4, 2, custom_row(4)), (3, 3, ScoringSpec.lexicographic()), (4, 3, custom_row(4)),
         (3, 4, ScoringSpec.borda())],
    )
    def test_expected_min_search_equals_each_candidates_pass(self, monkeypatch, m, n, g):
        # The oracle is every candidate's own profile pass.  The search's
        # integer for each candidate, over the stream's count and the score
        # row's denominator, is that pass's expected minimum.
        scored = {}

        def recording(candidates, value_of):
            return _best_sequence(candidates, lambda turns: scored.setdefault(turns, value_of(turns)))

        monkeypatch.setattr(welfare, "_best_sequence", recording)
        pi, value = optimal_sequential_expected_min(m, n, g)
        candidates = list(canonical_turn_sequences(m, n))
        passes = [
            profile_aggregates(FromSequential(SequentialPolicy(turns)), g, m, n).expected_min("u")
            for turns in candidates
        ]
        scale = enumerate_profiles(m, n).count * g.integer_row(m)[1]
        assert list(scored) == candidates
        assert [Fraction(scored[turns], scale) for turns in candidates] == passes
        best = max(passes)
        assert (pi.turns, value) == (candidates[passes.index(best)], best)

    def test_table_five_starts_no_pool(self, pools):
        # The search and the all-reporting column both run on the joint law
        # of a run, in-process, whatever the worker count.
        serial = reproduce_table(5, jobs=1)
        pooled = reproduce_table(5, jobs=2)
        assert pools == []
        assert pooled == serial
        assert [row.status for row in serial] == ["ok"] * 7


class TestEvaluateCriterion:
    def test_dispatches_both_modes(self, borda):
        policy = AllReporting()
        assert evaluate_criterion(parse_criterion("uuu"), policy, borda, 2, 2) == sum(
            agent_value(agent, "u", "u", policy, borda, 2, 2) for agent in (1, 2)
        )
        assert evaluate_criterion(parse_criterion("em-u"), policy, borda, 2, 2) == Fraction(7, 4)


class TestWorkerCount:
    def test_clamped_to_cpu_count(self):
        assert worker_count(1, 4) == 1
        assert worker_count(3, 4) == 3
        assert worker_count(64, 2) == 2

    def test_unknown_cpu_count_means_one_worker(self):
        assert worker_count(4, None) == 1

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_fewer_than_one(self, jobs):
        with pytest.raises(ValueError):
            worker_count(jobs, 4)

    def test_profile_pass_rejects_zero_jobs(self, borda):
        with pytest.raises(ValueError):
            profile_aggregates(AllReporting(), borda, 2, 2, jobs=0)


class Silent(ParallelPolicy):
    """Names no reporter, so a stage would remove no object."""

    def reporters(self, state, n):
        return frozenset()

    def advance(self, state, reporters, losers):
        return state


class TestPolicyKernelPass:
    """Profile passes for policies served by the memoized integer kernel."""

    def test_stage_without_progress_is_violation(self, borda):
        with pytest.raises(PolicyViolationError):
            profile_aggregates(Silent(), borda, 3, 2)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda history: (),
            lambda history: (4,),
            lambda history: (1,) if not history else (),
            lambda history: (1, 2) if not history else (0,),
        ],
        ids=["empty", "out-of-range", "empty-later", "out-of-range-later"],
    )
    def test_custom_policy_checks_fire(self, borda, fn):
        with pytest.raises(PolicyViolationError):
            profile_aggregates(CustomPolicy(fn), borda, 3, 3)

    @pytest.mark.parametrize(
        "policy,g",
        [
            (LoserReporting(), ScoringSpec.borda()),
            (LoserReporting(), custom_row(4)),
            (AllReporting(), ScoringSpec.borda()),
        ],
        ids=["borda", "custom_row(4)", "all-borda"],
    )
    def test_loser_pool_equals_serial(self, policy, g, pools):
        # The agent-orbit copy is made per chunk, then the chunks merge.
        serial = profile_aggregates(policy, g, 4, 3, jobs=1)
        pooled = profile_aggregates(policy, g, 4, 3, jobs=2)
        assert pools == [2]
        assert pooled == serial

    def test_custom_policy_never_pooled(self, borda, pools):
        # A lambda cannot be pickled for a worker, so the pass stays serial.
        policy = CustomPolicy(lambda history: (1, 2, 3) if len(history) % 2 == 0 else (2, 3))
        serial = profile_aggregates(policy, borda, 4, 3, jobs=1)
        pooled = profile_aggregates(policy, borda, 4, 3, jobs=2)
        assert pools == []
        assert pooled == serial


class TestRoutes:
    """Every profile-space value of ``all`` and of every canonical turn
    sequence comes from the law of one agent's run (y = u, y = e) or the
    joint law of a run (em-*), never a profile pass; each equals the fold of
    the pass."""

    @pytest.mark.parametrize("kind", ["borda", "lex", "custom"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_closed_forms_and_law_equal_the_pass(self, m, n, kind, monkeypatch):
        g = custom_row(m) if kind == "custom" else ScoringSpec(kind)
        policies = [AllReporting()] + [
            FromSequential(SequentialPolicy(turns)) for turns in canonical_turn_sequences(m, n)
        ]
        oracles = [profile_aggregates(policy, g, m, n) for policy in policies]
        passes = []

        def counted(*args, **kwargs):
            passes.append(args)
            return profile_aggregates(*args, **kwargs)

        monkeypatch.setattr(welfare, "profile_aggregates", counted)
        for policy, stats in zip(policies, oracles):
            for z in ("u", "e"):
                for y, values in (("u", stats.expected(z)), ("e", stats.minimum(z))):
                    assert evaluate_criterion(parse_criterion(f"u{y}{z}"), policy, g, m, n) == sum(values)
                    assert evaluate_criterion(parse_criterion(f"e{y}{z}"), policy, g, m, n) == min(values)
                    for agent in range(1, n + 1):
                        assert agent_value(agent, y, z, policy, g, m, n) == values[agent - 1]
                assert evaluate_criterion(parse_criterion(f"em-{z}"), policy, g, m, n) == stats.expected_min(z)
        assert passes == []

    @pytest.mark.parametrize(
        "policy,law_axes,law",
        [
            (AllReporting(), ("uu", "ue", "eu", "ee"), True),
            (FromSequential(SequentialPolicy((1, 2, 2, 1))), ("uu", "ue", "eu", "ee"), True),
            (LoserReporting(), ("uu", "ee"), False),
            (CustomPolicy(lambda history: (len(history) % 2 + 1,), name="alternate"), (), False),
        ],
        ids=["all", "seq", "loser", "custom"],
    )
    def test_each_value_calls_its_producer(self, policy, law_axes, law, monkeypatch, borda):
        # README's code-path table: the agent law for every x y z of `all`
        # and of a sequence and for `loser`'s with y = z, the joint law for
        # em-* of `all` and of a sequence, and a profile pass for every other
        # value, such as `loser`'s ueu and em-u.
        calls = []
        for name in ("symmetric_aggregates", "joint_law_aggregates", "profile_aggregates"):
            def recorded(*args, _name=name, _produce=getattr(welfare, name), **kwargs):
                calls.append(_name)
                return _produce(*args, **kwargs)

            monkeypatch.setattr(welfare, name, recorded)

        for x, y, z in itertools.product("ue", repeat=3):
            per_agent = "symmetric_aggregates" if y + z in law_axes else "profile_aggregates"
            evaluate_criterion(parse_criterion(x + y + z), policy, borda, 4, 2)
            agent_value(2, y, z, policy, borda, 4, 2)
            assert calls == [per_agent] * 2
            calls.clear()
        for z in "ue":
            evaluate_criterion(parse_criterion(f"em-{z}"), policy, borda, 4, 2)
        assert calls == ["joint_law_aggregates" if law else "profile_aggregates"] * 2


@pytest.fixture
def laws(monkeypatch):
    """Every joint law a call builds, to read its count of transitions."""
    built = []

    class Recorded(welfare._RunLaw):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(welfare, "_RunLaw", Recorded)
    return built


def rational_rows(m):
    """Strictly positive, non-increasing rational score rows for m objects."""
    score = st.fractions(min_value=Fraction(1, 50), max_value=100, max_denominator=60)
    values = st.lists(score, min_size=m, max_size=m)
    return values.map(lambda v: ScoringSpec.custom(sorted(v, reverse=True)))


DATA = Path(__file__).resolve().parent / "data"


class TestJointLaw:
    """The joint law of a run, held to the profile pass and to its own
    budget."""

    @settings(max_examples=60)
    @given(cell=st.sampled_from([(m, n) for m in range(1, 6) for n in range(1, 4)]), data=st.data())
    def test_record_equals_the_pass(self, cell, data):
        m, n = cell
        g = data.draw(st.sampled_from([ScoringSpec.borda(), ScoringSpec.lexicographic()]) | rational_rows(m))
        if data.draw(st.booleans(), label="all"):
            policy = AllReporting()
        else:
            policy = FromSequential(SequentialPolicy(data.draw(st.sampled_from(list(canonical_turn_sequences(m, n))))))
        oracle = profile_aggregates(policy, g, m, n)
        for z in ("u", "e"):
            law = welfare.joint_law_aggregates(policy, g, m, n, z)
            assert (law.scale, law.total_weight) == (oracle.scale, oracle.total_weight)
            for statistic in ("sums", "minima", "min_sums"):
                assert getattr(law, statistic)[z] == getattr(oracle, statistic)[z]
        if isinstance(policy, FromSequential):
            assert law == oracle  # one run fills both axes

    def test_rejects_other_policies(self, borda):
        with pytest.raises(ValueError):
            welfare.joint_law_aggregates(LoserReporting(), borda, 3, 2, "u")

    @pytest.mark.parametrize(
        "call",
        [
            lambda budget: evaluate_criterion(parse_criterion("em-u"), AllReporting(), ScoringSpec.borda(), 6, 2,
                                              budget_units=budget),
            lambda budget: evaluate_criterion(parse_criterion("em-e"), AllReporting(), ScoringSpec.lexicographic(),
                                              5, 3, budget_units=budget),
            lambda budget: evaluate_criterion(parse_criterion("em-u"), FromSequential(SequentialPolicy((1, 2, 3) * 2)),
                                              custom_row(6), 6, 3, budget_units=budget),
            lambda budget: optimal_sequential_expected_min(6, 2, ScoringSpec.borda(), budget_units=budget),
        ],
        ids=["all-em-u", "all-em-e", "seq-em-u", "search"],
    )
    def test_budget_is_the_work_count(self, laws, call):
        # One unit per agent entry written: n per transition.
        value = call(10**9)
        (law,) = laws
        count = law.transitions * law.n
        assert call(count) == value
        with pytest.raises(BudgetExceededError) as refused:
            call(count - 1)
        assert (refused.value.estimated, refused.value.budget) == (count, count - 1)

    def test_search_takes_each_prefix_once(self, monkeypatch, borda):
        # Candidates come in lexicographic order and the laws along the
        # current one are kept, so the search takes one turn per distinct
        # prefix of the candidates: one per node of their prefix tree.
        taken = []
        turn = welfare._RunLaw.turn

        def counted(self, law, agent):
            taken.append(agent)
            return turn(self, law, agent)

        monkeypatch.setattr(welfare._RunLaw, "turn", counted)
        optimal_sequential_expected_min(6, 3, borda)
        prefixes = {turns[:k] for turns in canonical_turn_sequences(6, 3) for k in range(1, 7)}
        assert len(taken) == len(prefixes)


def agent_record(policy, g, m, n):
    """The record of the per-agent route, the agent law's one entry for
    all-reporting and turn sequences."""
    return symmetric_aggregates(policy, g, m, n)


def printed_pi_stars(table_id):
    """Every (scoring, m, n, pi*) printed in table ``table_id`` (1-4)."""
    g = ScoringSpec.borda() if table_id in (1, 3) else ScoringSpec.lexicographic()
    for row in csv.DictReader(io.StringIO((DATA / f"table{table_id}.csv").read_text())):
        if row["pi_star"]:
            yield g, int(row["m"]), int(row["n"]), SequentialPolicy.from_literal(row["pi_star"])


def sequence_transitions_by_search(turns, n):
    """Count a turn sequence's agent-law transitions by walking every state
    each agent's law reaches: one per reveal at each of its picks."""
    m = len(turns)
    count = 0
    for agent in range(1, n + 1):
        reached = {0}
        for step in [step for step, t in enumerate(turns, start=1) if t == agent]:
            r = m - step + 1
            grown = set()
            for p in reached:
                reveals = m - p - r + 1
                count += reveals
                grown.update(range(p + 1, p + reveals + 1))
            reached = grown
    return count


class TestAgentLaw:
    """The law of one agent's run, which serves every per-agent value of
    ``all`` and of a turn sequence, held to the profile pass, to the joint
    law of a run and to its budget."""

    def test_sequence_budget_estimate_counts_transitions(self, borda):
        checked = 0
        for m in range(1, 9):
            for n in range(1, 4):
                for turns in canonical_turn_sequences(m, n):
                    policy = FromSequential(SequentialPolicy(turns))
                    with pytest.raises(BudgetExceededError) as refused:
                        symmetric_aggregates(policy, borda, m, n, budget_units=0)
                    count = refused.value.estimated
                    assert count == sequence_transitions_by_search(turns, n)
                    symmetric_aggregates(policy, borda, m, n, budget_units=count)
                    with pytest.raises(BudgetExceededError):
                        symmetric_aggregates(policy, borda, m, n, budget_units=count - 1)
                    checked += 1
        assert checked == 8 + 255 + 1644  # n = 1, 2 and 3

    @pytest.mark.parametrize(
        "policy,module,name",
        [
            (AllReporting(), sequential, "_agent_law"),
            (FromSequential(SequentialPolicy((1, 2, 1, 1, 2))), sequential, "_agent_law"),
            (LoserReporting(), welfare, "_loser_law"),
        ],
        ids=["all", "seq", "loser"],
    )
    def test_zero_budget_refuses_before_the_law(self, policy, module, name, monkeypatch, borda):
        def law(*args):
            raise AssertionError("the agent law ran")

        monkeypatch.setattr(module, name, law)
        with pytest.raises(AssertionError, match="the agent law ran"):
            symmetric_aggregates(policy, borda, 5, 2)
        with pytest.raises(BudgetExceededError):
            symmetric_aggregates(policy, borda, 5, 2, budget_units=0)

    def test_misfit_sequence_is_refused_before_the_budget(self, borda):
        with pytest.raises(PolicyViolationError):
            symmetric_aggregates(FromSequential(SequentialPolicy((1, 2, 3))), borda, 3, 2, budget_units=0)

    @pytest.mark.parametrize(
        "read",
        [
            lambda g: symmetric_aggregates(AllReporting(), g, 3, 2).expected_min("u"),
            lambda g: symmetric_aggregates(FromSequential(SequentialPolicy((1, 2, 1))), g, 3, 2).expected_min("e"),
            lambda g: welfare.joint_law_aggregates(AllReporting(), g, 3, 2, "u").expected("e"),
            lambda g: welfare.joint_law_aggregates(AllReporting(), g, 3, 2, "e").minimum("u"),
            lambda g: symmetric_aggregates(LoserReporting(), g, 3, 2).values("u", "e"),
            lambda g: symmetric_aggregates(LoserReporting(), g, 3, 2).values("e", "u"),
            lambda g: symmetric_aggregates(LoserReporting(), g, 3, 2).expected_min("u"),
            lambda g: symmetric_aggregates(LoserReporting(), g, 3, 2).expected_min("e"),
        ],
        ids=[
            "all-expected-min", "seq-expected-min", "joint-expected", "joint-minimum",
            "loser-ue", "loser-eu", "loser-expected-min-u", "loser-expected-min-e",
        ],
    )
    def test_records_refuse_what_they_do_not_hold(self, read, borda):
        with pytest.raises(ValueError, match="holds no (min_sums|sums|minima) for lottery axis"):
            read(borda)

    @settings(max_examples=60)
    @given(cell=st.sampled_from([(m, n) for m in range(1, 6) for n in range(1, 4)]), data=st.data())
    def test_record_equals_the_pass(self, cell, data):
        m, n = cell
        g = data.draw(st.sampled_from([ScoringSpec.borda(), ScoringSpec.lexicographic()]) | rational_rows(m))
        if data.draw(st.booleans(), label="all"):
            policy = AllReporting()
        else:
            policy = FromSequential(SequentialPolicy(data.draw(st.sampled_from(list(canonical_turn_sequences(m, n))))))
        law, oracle = agent_record(policy, g, m, n), profile_aggregates(policy, g, m, n)
        assert (law.scale, law.total_weight) == (oracle.scale, oracle.total_weight)
        assert (law.sums, law.minima) == (oracle.sums, oracle.minima)

    @pytest.mark.parametrize("m,n", [(7, 3), (6, 4), (10, 2)])
    def test_all_reporting_minima_equal_the_joint_law(self, borda, m, n):
        law = symmetric_aggregates(AllReporting(), borda, m, n)
        for z in ("u", "e"):
            joint = welfare.joint_law_aggregates(AllReporting(), borda, m, n, z, budget_units=10**9)
            assert (law.sums[z], law.minima[z]) == (joint.sums[z], joint.minima[z])

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (4, 3), (5, 2), (6, 3), (7, 2), (8, 3), (9, 2)])
    def test_sequence_minima_are_the_picking_steps(self, m, n):
        # No lottery ever runs, so both axes agree, and at worst the others
        # take an agent's top choices first: picking at step s, it gets its
        # s-th choice.
        for g in (ScoringSpec.borda(), ScoringSpec.lexicographic()):
            for turns in canonical_turn_sequences(m, n):
                law = agent_record(FromSequential(SequentialPolicy(turns)), g, m, n)
                worst = tuple(sum(g.score(s, m) for s, t in enumerate(turns, 1) if t == a) for a in range(1, n + 1))
                assert law.minimum("u") == law.minimum("e") == worst
                assert law.sums["u"] == law.sums["e"]

    @pytest.mark.parametrize("m", [1, 4, 9, 20])
    def test_lone_agent_under_all_reporting_takes_every_object(self, m):
        # With one agent, all-reporting is the turn sequence 1...1.
        for g in (ScoringSpec.borda(), ScoringSpec.lexicographic(), custom_row(m)):
            law = agent_record(AllReporting(), g, m, 1)
            alone = agent_record(FromSequential(SequentialPolicy((1,) * m)), g, m, 1)
            total = (sum(g.score_row(m)[1:]),)
            for z in ("u", "e"):
                assert law.expected(z) == law.minimum(z) == alone.expected(z) == alone.minimum(z) == total

    @settings(max_examples=40)
    @given(cell=st.sampled_from([(m, n) for m in range(1, 8) for n in range(2, 4)]), data=st.data())
    def test_sequence_record_follows_agent_names(self, cell, data):
        # Renaming the agents of a turn sequence renames its record's entries.
        m, n = cell
        turns = data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m), label="turns")
        names = data.draw(st.permutations(range(1, n + 1)), label="names")
        renamed = tuple(names[t - 1] for t in turns)
        law = agent_record(FromSequential(SequentialPolicy(tuple(turns))), ScoringSpec.borda(), m, n)
        other = agent_record(FromSequential(SequentialPolicy(renamed)), ScoringSpec.borda(), m, n)
        for z in ("u", "e"):
            assert all(other.sums[z][names[a] - 1] == law.sums[z][a] for a in range(n))
            assert all(other.minima[z][names[a] - 1] == law.minima[z][a] for a in range(n))

    @pytest.mark.parametrize("table_id", [1, 2, 3, 4])
    def test_printed_pi_stars_equal_the_joint_law(self, table_id):
        checked = 0
        for g, m, n, policy in printed_pi_stars(table_id):
            law = agent_record(FromSequential(policy), g, m, n)
            joint = welfare.joint_law_aggregates(FromSequential(policy), g, m, n, "u")
            assert (law.total_weight, law.sums, law.minima) == (joint.total_weight, joint.sums, joint.minima)
            checked += 1
        assert checked == 15


# The cells at which the law of one agent's run under ``loser`` is held to the
# profile pass: the pass's cost grows as comb(m! + n - 2, n - 1).
LOSER_CELLS = [(m, n) for m in range(1, 6) for n in range(1, 4)] + [
    (m, n) for n, top in ((4, 4), (5, 3), (6, 2)) for m in range(1, top + 1)
]


def loser_transitions_by_search(m, n):
    """Count the transitions of the law of one agent's run under ``loser`` by
    walking every state (r, p, a, k) it reaches: where the agent reports,
    one per reveal, number d of objects demanded and lottery result (a loss
    only when someone lost); elsewhere one per d."""
    count, layers = 0, {m: {(0, 1, n - 1)}}
    for r in range(m, 0, -1):
        for p, a, k in layers.pop(r, set()):
            qs = range(p + 1, m - r + 2) if a else (p,)
            for d in range(1, min(r, k + a) + 1):
                losers = a + k - d
                after = [(0, losers) if losers else (1, n - 1)]
                if a and d <= k:
                    after.append((1, losers - 1))
                for state in after:
                    count += len(qs)
                    layers.setdefault(r - d, set()).update((q, *state) for q in qs)
    return count


def assert_loser_law_matches_the_pass(g, m, n):
    """The law's record holds the pass's u sums and e minima, integer for
    integer, and serves every agent's uu and ee value."""
    law, oracle = symmetric_aggregates(LoserReporting(), g, m, n), profile_aggregates(LoserReporting(), g, m, n)
    assert (law.scale, law.total_weight) == (oracle.scale, oracle.total_weight)
    assert (law.sums, law.minima) == ({"u": oracle.sums["u"]}, {"e": oracle.minima["e"]})
    for agent in range(1, n + 1):
        for y, z in ("uu", "ee"):
            assert agent_value(agent, y, z, LoserReporting(), g, m, n) == oracle.values(y, z)[agent - 1]


class TestLoserLaw:
    """The law of one agent's run under ``loser``, which serves its uuu, euu,
    uee and eee, held to the profile pass and to its budget."""

    @pytest.mark.parametrize("kind", ["borda", "lex"])
    def test_record_equals_the_pass(self, kind):
        g = ScoringSpec(kind)
        for m, n in LOSER_CELLS:
            assert_loser_law_matches_the_pass(g, m, n)

    @settings(max_examples=40)
    @given(cell=st.sampled_from(LOSER_CELLS), data=st.data())
    def test_rational_rows_equal_the_pass(self, cell, data):
        m, n = cell
        assert_loser_law_matches_the_pass(data.draw(rational_rows(m)), m, n)

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 1), (1, 4), (2, 6), (5, 3), (4, 4), (7, 3), (9, 5), (12, 4)])
    def test_budget_estimate_counts_transitions(self, borda, m, n):
        with pytest.raises(BudgetExceededError) as refused:
            symmetric_aggregates(LoserReporting(), borda, m, n, budget_units=0)
        count = refused.value.estimated
        assert count == loser_transitions_by_search(m, n)
        symmetric_aggregates(LoserReporting(), borda, m, n, budget_units=count)
        with pytest.raises(BudgetExceededError):
            symmetric_aggregates(LoserReporting(), borda, m, n, budget_units=count - 1)

    def test_count_takes_no_stage_counts(self, borda, monkeypatch):
        # The count walks states without weights, so a refusal costs no
        # stage's big-integer counts, however large the cell.
        def counted(*args):
            raise AssertionError("a stage was counted")

        monkeypatch.setattr(sequential, "_stage_law", counted)
        monkeypatch.setattr(sequential, "_surjections", counted)
        with pytest.raises(BudgetExceededError) as refused:
            symmetric_aggregates(LoserReporting(), borda, 150, 60, budget_units=0)
        assert refused.value.estimated == sequential._loser_transitions(150, 60)


class TestPoolChunks:
    """A pooled pass over one profile per agent orbit is cut into chunks of
    about equal numbers of walked profiles."""

    @pytest.mark.parametrize("m,n", [(6, 3), (5, 4)])
    def test_chunks_hold_equal_shares(self, m, n):
        stream = enumerate_profiles(m, n)
        items = welfare._orbit_items(m, n)
        sizes = [sum(1 for _ in welfare._sorted_others(chunk)) for chunk in stream.partition(8, items)]
        assert len(sizes) == 8
        assert max(sizes) <= sum(sizes) / 8 + items(0)  # the first ranking leads the most profiles

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 3), (3, 4), (2, 5)])
    def test_orbit_items_count_the_walk(self, m, n):
        stream = enumerate_profiles(m, n)
        items = welfare._orbit_items(m, n)
        for chunk in stream.partition(math.factorial(m)):
            assert sum(1 for _ in welfare._sorted_others(chunk)) == items(chunk.lo)

    @pytest.mark.parametrize("policy", [AllReporting(), LoserReporting()], ids=["all", "loser"])
    @pytest.mark.parametrize("m,n", [(4, 3), (3, 4), (2, 5)])
    def test_merged_chunks_equal_the_whole(self, policy, m, n, borda):
        stream = enumerate_profiles(m, n)
        chunks = stream.partition(8, welfare._orbit_items(m, n))
        merged = welfare.ProfileAggregates.merge([welfare._compute_chunk((c, policy, borda)) for c in chunks])
        assert merged == welfare._compute_chunk((stream, policy, borda))
