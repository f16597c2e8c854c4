import itertools
import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # The worst profile (y = e) has no closed form, so it still enumerates.
        with pytest.raises(BudgetExceededError):
            evaluate_criterion(parse_criterion("ueu"), AllReporting(), borda, 9, 3)


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
    """The positions DP that serves a turn sequence's profile averages,
    pinned to the profile pass of the same sequence."""

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


def assert_closed_form_matches_plain_pass(g, m, n):
    expected, guaranteed = symmetric_aggregates(AllReporting(), g, m, n)
    plain = profile_aggregates(AllReporting(), g, m, n)
    assert plain.expected("u") == (expected,) * n
    assert plain.expected("e") == (guaranteed,) * n


def transitions_by_search(m, n):
    """Count the closed form's transitions by walking every reachable state."""
    seen = {tuple(range(1, m + 1))}
    todo = list(seen)
    count = 0
    while todo:
        rest = todo.pop()[1:]
        for dropped in range(min(n - 1, len(rest)) + 1):
            for kept in itertools.combinations(rest, len(rest) - dropped):
                count += 1
                if kept and kept not in seen:
                    seen.add(kept)
                    todo.append(kept)
    return count


class TestQuotientPass:
    """The all-reporting closed form, which replaced the quotient pass, pinned
    to the plain enumeration pass: every agent's profile-averaged expected
    and guaranteed utility, exactly."""

    @pytest.mark.parametrize("kind", ["borda", "lex", "custom"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_plain_pass(self, kind, m):
        g = custom_row(m) if kind == "custom" else ScoringSpec(kind)
        # (5, 4) is left out: its plain pass enumerates 1.7M profiles.
        for n in (1, 2, 3, 4) if m < 5 else (1, 2, 3):
            assert_closed_form_matches_plain_pass(g, m, n)

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
        assert_closed_form_matches_plain_pass(ScoringSpec.custom(sorted(values, reverse=True)), m, n)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (3, 1), (4, 2), (5, 5), (7, 3), (8, 3), (10, 2), (6, 4)])
    def test_budget_estimate_counts_transitions(self, borda, m, n):
        with pytest.raises(BudgetExceededError) as refused:
            symmetric_aggregates(AllReporting(), borda, m, n, budget_units=0)
        assert refused.value.estimated == transitions_by_search(m, n)

    def test_budget_is_exact(self, borda):
        symmetric_aggregates(AllReporting(), borda, 8, 3, budget_units=614)
        with pytest.raises(BudgetExceededError):
            symmetric_aggregates(AllReporting(), borda, 8, 3, budget_units=613)

    def test_timed_out_cells(self, borda):
        # Table 1 cells the enumeration could not answer at the default budget.
        for m, n, printed in ((10, 2, "70.569"), (7, 3, "38.864"), (8, 3, "50.381"), (6, 4, "30.377")):
            expected, _ = symmetric_aggregates(AllReporting(), borda, m, n)
            assert close(n * expected, printed, MILLI / 2)

    def test_rejects_other_policies(self, borda):
        with pytest.raises(ValueError):
            symmetric_aggregates(LoserReporting(), borda, 3, 2)


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
            for chunk in enumerate_profiles(m, n, reduce_symmetry=True).partition(parts):
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
        stream = enumerate_profiles(m, n, reduce_symmetry=True)
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
        # The all-reporting closed form needs 15 work units at (4, 2) and
        # 614 at (8, 3).
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

    def test_table_five_cell_starts_one_pool(self, pools):
        # The 16 candidates' passes run in-process; only the all-reporting
        # column's pass is spread over workers.
        serial = reproduce_table(5, cells=[(5, 2)], jobs=1)
        assert pools == []
        pooled = reproduce_table(5, cells=[(5, 2)], jobs=2)
        assert pools == [2]
        assert pooled == serial


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
    """Profile averages (y = u) of ``all`` and of every canonical turn
    sequence come from closed forms, never a profile pass; each equals the
    fold of the pass."""

    @pytest.mark.parametrize("kind", ["borda", "lex", "custom"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_closed_forms_equal_the_pass(self, m, n, kind, monkeypatch):
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
                expected = stats.expected(z)
                assert evaluate_criterion(parse_criterion(f"uu{z}"), policy, g, m, n) == sum(expected)
                assert evaluate_criterion(parse_criterion(f"eu{z}"), policy, g, m, n) == min(expected)
                for agent in range(1, n + 1):
                    assert agent_value(agent, "u", z, policy, g, m, n) == expected[agent - 1]
        assert passes == []
