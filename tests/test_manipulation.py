import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocsim.errors import BudgetExceededError, StrategyError
from allocsim.model import Profile, Ranking, ScoringSpec, identity_ranking
from allocsim.manipulation import (
    ManipulationProblem,
    Strategy,
    better,
    brute_force_manipulation,
    find_successful_strategy,
    has_successful_strategy,
    optimal_pessimistic_strategy,
    pessimistic_utility,
    claim_schedule,
    secured_objects,
    sincere_strategy,
)

AGENT2 = Ranking((4, 2, 5, 1, 3))
AGENT3 = Ranking((1, 3, 5, 4, 2))
OTHERS = (AGENT2, AGENT3)


def all_rankings(m):
    return [Ranking(p) for p in itertools.permutations(range(1, m + 1))]


class TestBetterBest:
    def test_better_kept(self):
        assert better(AGENT2, {2}, {3, 5}) == {2}

    def test_better_dropped(self):
        assert better(AGENT3, {2}, {3, 5}) == frozenset()

    def test_better_empty_candidates(self):
        assert better(AGENT2, frozenset(), {1, 2}) == frozenset()

    def test_better_empty_benchmark_keeps_all(self):
        assert better(AGENT2, {1, 3}, frozenset()) == {1, 3}

    def test_better_overlap_rejected(self):
        with pytest.raises(ValueError):
            better(AGENT2, {1, 2}, {2, 3})

    def test_best(self):
        assert AGENT2.best_of({1, 2, 3, 4, 5}) == 4
        assert AGENT3.best_of({3, 5}) == 3
        assert AGENT2.best_of({3}) == 3

    def test_best_empty_rejected(self):
        with pytest.raises(ValueError):
            AGENT2.best_of(frozenset())


class TestMonotonicity:
    def test_nested_sets(self):
        # better grows with the candidate pool and shrinks with the benchmark;
        # best of a superset is at least as good.
        rng = random.Random(5)
        for _ in range(200):
            m = rng.randrange(2, 7)
            ranking = Ranking(tuple(rng.sample(range(1, m + 1), m)))
            objects = list(range(1, m + 1))
            rng.shuffle(objects)
            cut = rng.randrange(1, m + 1)
            c_pool, d_pool = objects[:cut], objects[cut:]
            c = frozenset(rng.sample(c_pool, rng.randrange(1, len(c_pool) + 1)))
            a = frozenset(o for o in c if rng.random() < 0.6)
            d = frozenset(o for o in d_pool if rng.random() < 0.7)
            b = frozenset(o for o in d if rng.random() < 0.6)
            assert better(ranking, a, d) <= better(ranking, c, d) <= better(ranking, c, b)
            if a:
                if ranking.best_of(c) in a:
                    assert ranking.best_of(c) == ranking.best_of(a)
                else:
                    assert ranking.prefers(ranking.best_of(c), ranking.best_of(a))


class TestClaimSchedule:
    def test_worked_example_single_target(self):
        schedule = claim_schedule(OTHERS, {2})
        stages = [(sorted(a), sorted(c), sorted(t)) for a, c, t in schedule.stages]
        assert stages == [
            ([1, 2, 3, 4, 5], [], [1, 4]),
            ([2, 3, 5], [2], [3, 5]),
        ]
        _, claimed, taken = schedule.stages[1]
        assert 2 in claimed | taken

    def test_empty_target_claims_nothing(self):
        schedule = claim_schedule(OTHERS, frozenset())
        assert all(not claimed for _, claimed, _ in schedule.stages)

    def test_top_object_claimed_first(self):
        schedule = claim_schedule(OTHERS, {1})
        _, claimed, _ = schedule.stages[0]
        assert 1 in claimed

    def test_stages_partition_objects(self):
        rng = random.Random(9)
        for _ in range(100):
            m = rng.randrange(2, 6)
            n = rng.randrange(2, 4)
            others = tuple(Ranking(tuple(rng.sample(range(1, m + 1), m))) for _ in range(n - 1))
            target = frozenset(o for o in range(1, m + 1) if rng.random() < 0.4)
            schedule = claim_schedule(others, target)
            seen = sorted(o for _, c, t in schedule.stages for o in c | t)
            assert seen == list(range(1, m + 1))
            available = frozenset(range(1, m + 1))
            for avail, claimed, taken in schedule.stages:
                assert avail == available
                available = available - claimed - taken

    def test_cumulative_claims_nested_for_subsets(self):
        rng = random.Random(21)
        for _ in range(150):
            m = rng.randrange(2, 6)
            n = rng.randrange(2, 4)
            others = tuple(Ranking(tuple(rng.sample(range(1, m + 1), m))) for _ in range(n - 1))
            big = frozenset(o for o in range(1, m + 1) if rng.random() < 0.5)
            small = frozenset(o for o in big if rng.random() < 0.6)
            rho_small = claim_schedule(others, small)
            rho_big = claim_schedule(others, big)
            claims_small = claims_big = frozenset()
            both_small = both_big = frozenset()
            for k in range(max(len(rho_small.stages), len(rho_big.stages))):
                if k < len(rho_small.stages):
                    _, c, t = rho_small.stages[k]
                    claims_small |= c
                    both_small |= c | t
                if k < len(rho_big.stages):
                    _, c, t = rho_big.stages[k]
                    claims_big |= c
                    both_big |= c | t
                assert claims_small <= claims_big
                assert both_small <= both_big


class TestFeasibility:
    def test_worked_example(self):
        assert has_successful_strategy(ManipulationProblem(OTHERS, frozenset({2})))
        assert not has_successful_strategy(ManipulationProblem(OTHERS, frozenset({1})))
        assert not has_successful_strategy(ManipulationProblem(OTHERS, frozenset({2, 3})))

    def test_empty_target_always_feasible(self):
        for others in itertools.product(all_rankings(3), repeat=2):
            assert has_successful_strategy(ManipulationProblem(tuple(others), frozenset()))

    def test_matches_algorithm_failure(self):
        rng = random.Random(2)
        rankings = all_rankings(4)
        for _ in range(150):
            others = tuple(rng.choice(rankings) for _ in range(rng.randrange(1, 3)))
            target = frozenset(o for o in range(1, 5) if rng.random() < 0.5)
            problem = ManipulationProblem(others, target)
            assert has_successful_strategy(problem) == (
                find_successful_strategy(problem) is not None
            )


class TestFindStrategy:
    def test_worked_example_default_pick(self):
        strategy = find_successful_strategy(ManipulationProblem(OTHERS, frozenset({2})))
        assert strategy.reports == (2, 3)

    def test_worked_example_seeded_pick(self):
        seen = set()
        for seed in range(20):
            strategy = find_successful_strategy(
                ManipulationProblem(OTHERS, frozenset({2})), random.Random(seed)
            )
            seen.add(strategy.reports)
        assert seen <= {(2, 3), (2, 5)}
        assert len(seen) == 2

    def test_infeasible_returns_none(self):
        assert find_successful_strategy(ManipulationProblem(OTHERS, frozenset({2, 3}))) is None
        assert find_successful_strategy(ManipulationProblem(OTHERS, frozenset({1}))) is None

    def test_strategy_secures_target_and_respects_stage_bound(self):
        rng = random.Random(13)
        rankings = all_rankings(5)
        for _ in range(200):
            n = rng.randrange(2, 4)
            others = tuple(rng.choice(rankings) for _ in range(n - 1))
            target = frozenset(o for o in range(1, 6) if rng.random() < 0.4)
            problem = ManipulationProblem(others, target)
            strategy = find_successful_strategy(problem)
            if strategy is None:
                continue
            assert target <= secured_objects(strategy, others)
            schedule = claim_schedule(others, target)
            rounds = {o: k for k, (_, c, t) in enumerate(schedule.stages, start=1) for o in c | t}
            for position, obj in enumerate(strategy.reports, start=1):
                if obj in target:
                    assert position < rounds[obj]

    def test_no_opponents_rejected(self):
        with pytest.raises(ValueError):
            ManipulationProblem((), frozenset({2, 3}))


class TestStrategyPlay:
    def test_pessimistic_value_worked_example(self, example_profile, lex):
        assert pessimistic_utility(Strategy((2, 3)), example_profile, lex) == 8

    def test_sincere_play_is_worthless_here(self, example_profile, lex, borda):
        sincere = sincere_strategy(example_profile)
        assert sincere.reports == (1, 2, 5)
        assert pessimistic_utility(sincere, example_profile, lex) == 0
        assert pessimistic_utility(sincere, example_profile, borda) == 0

    def test_too_short_strategy_rejected(self, example_profile, lex):
        with pytest.raises(StrategyError):
            pessimistic_utility(Strategy((2,)), example_profile, lex)

    def test_unavailable_report_rejected(self, example_profile, lex):
        # agent 3 takes object 1 at stage 1, so reporting it at stage 2 fails
        with pytest.raises(StrategyError) as err:
            pessimistic_utility(Strategy((2, 1, 3)), example_profile, lex)
        assert err.value.stage == 2

    def test_repeat_rejected(self):
        with pytest.raises(ValueError):
            Strategy((1, 2, 1))


class TestOptimalPessimistic:
    def test_worked_example(self, example_profile, lex):
        strategy, achieved, value = optimal_pessimistic_strategy(example_profile, lex)
        assert achieved == {2}
        assert value == 8
        assert strategy.reports in {(2, 3), (2, 5)}

    def test_identical_rankings_two_objects(self, lex):
        # The truthful agent demands object 1 first, so object 2 can be
        # grabbed uncontested at stage 1 (brute force agrees).
        profile = Profile((identity_ranking(2), identity_ranking(2)))
        strategy, achieved, value = optimal_pessimistic_strategy(profile, lex)
        assert achieved == {2}
        assert value == 1
        exists, best_value, _ = brute_force_manipulation(
            ManipulationProblem((identity_ranking(2),), frozenset({2})), lex
        )
        assert exists and best_value == 1

    def test_reversed_opponent_secures_top(self, lex):
        profile = Profile((Ranking((1, 2, 3)), Ranking((3, 2, 1))))
        strategy, achieved, value = optimal_pessimistic_strategy(profile, lex)
        assert 1 in achieved
        _, best_value, _ = brute_force_manipulation(
            ManipulationProblem((Ranking((3, 2, 1)),), frozenset()), lex, ranking=profile.rankings[0]
        )
        assert value == best_value == 4

    def test_single_agent_gets_everything(self, lex):
        profile = Profile((Ranking((2, 1, 3)),))
        strategy, achieved, value = optimal_pessimistic_strategy(profile, lex)
        assert strategy.reports == (2, 1, 3)
        assert achieved == {1, 2, 3}
        assert value == 4 + 2 + 1

    def test_deterministic(self, example_profile, lex):
        first = optimal_pessimistic_strategy(example_profile, lex)
        second = optimal_pessimistic_strategy(example_profile, lex)
        assert first == second


class TestBruteForce:
    def test_worked_example_agreement(self, example_profile, lex):
        problem = ManipulationProblem(OTHERS, frozenset({2}))
        exists, best_value, witness = brute_force_manipulation(
            problem, lex, ranking=example_profile.rankings[0]
        )
        assert exists
        assert best_value == 8
        assert frozenset({2}) <= secured_objects(witness, OTHERS)

        exists, _, witness = brute_force_manipulation(
            ManipulationProblem(OTHERS, frozenset({1})), lex
        )
        assert not exists and witness is None

    def test_exhaustive_equivalence_three_objects(self, borda):
        for other in all_rankings(3):
            for bits in range(8):
                target = frozenset(o for o in (1, 2, 3) if bits >> (o - 1) & 1)
                problem = ManipulationProblem((other,), target)
                exists, _, _ = brute_force_manipulation(problem, borda)
                assert exists == has_successful_strategy(problem)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_feasibility_and_construction_match_brute_force(self, data):
        m = data.draw(st.integers(1, 6), label="m")
        opponents = data.draw(st.integers(1, 3), label="opponents")
        others = tuple(
            Ranking(tuple(data.draw(st.permutations(range(1, m + 1))))) for _ in range(opponents)
        )
        target = frozenset(data.draw(st.sets(st.integers(1, m)), label="target"))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        problem = ManipulationProblem(others, target)
        exists, _, _ = brute_force_manipulation(problem, ScoringSpec.borda())
        assert has_successful_strategy(problem) == exists
        for rng in (None, random.Random(seed)):
            strategy = find_successful_strategy(problem, rng)
            assert (strategy is None) == (not exists)
            if strategy is not None:
                assert target <= secured_objects(strategy, others)

    def test_size_limit(self, borda):
        others = (identity_ranking(7),)
        with pytest.raises(BudgetExceededError):
            brute_force_manipulation(ManipulationProblem(others, frozenset()), borda)
