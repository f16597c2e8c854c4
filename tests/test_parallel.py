import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocsim.errors import BudgetExceededError, PolicyViolationError
from allocsim.model import Profile, Ranking, ScoringSpec, enumerate_profiles, identity_ranking
from allocsim.parallel import (
    STOP,
    AllocationStructure,
    AllReporting,
    CustomPolicy,
    FromSequential,
    LoserReporting,
    ParallelPolicy,
    all_reporting_values_scaled,
    build_structure,
    enumerate_outcomes,
    guaranteed_utilities,
    lottery_expected_utilities,
    parse_policy,
    policy_values_scaled,
    sequential_values_scaled,
)
from allocsim.sequential import SequentialPolicy
from allocsim.welfare import profile_utilities


def identical_profile(m, n):
    return Profile(tuple(identity_ranking(m) for _ in range(n)))


class NoReporters(ParallelPolicy):
    """Names no reporter; its state stays put or grows by one every stage."""

    def __init__(self, grow):
        self.grow = grow

    def initial_state(self):
        return 0

    def reporters(self, state, n):
        return frozenset()

    def advance(self, state, reporters, losers):
        return state + 1 if self.grow else state


def random_profiles(m, n, count, seed):
    rng = random.Random(seed)
    perms = list(itertools.permutations(range(1, m + 1)))
    return [Profile(tuple(Ranking(rng.choice(perms)) for _ in range(n))) for _ in range(count)]


class TestPolicies:
    """Each policy's reporter sets, stepped through its own state machine."""

    def test_all_reporting(self):
        policy = AllReporting()
        state = policy.initial_state()
        assert policy.reporters(state, 3) == {1, 2, 3}
        state = policy.advance(state, frozenset({1, 2, 3}), frozenset({2}))
        assert policy.reporters(state, 3) == {1, 2, 3}

    def test_loser_reporting_with_losers(self):
        policy = LoserReporting()
        state = policy.advance(policy.initial_state(), frozenset({1, 2, 3}), frozenset({1}))
        assert policy.reporters(state, 3) == {1}

    def test_loser_reporting_without_losers(self):
        policy = LoserReporting()
        state = policy.advance(policy.initial_state(), frozenset({1, 2, 3}), frozenset())
        assert policy.reporters(state, 3) == {1, 2, 3}

    def test_sequential_embedding(self):
        policy = FromSequential(SequentialPolicy((1, 2, 3, 3, 2)))
        state = policy.initial_state()
        seen = []
        for _ in range(5):
            reporters = policy.reporters(state, 3)
            seen.append(reporters)
            state = policy.advance(state, reporters, frozenset())
        assert seen == [{1}, {2}, {3}, {3}, {2}]
        with pytest.raises(PolicyViolationError):
            policy.reporters(state, 3)

    def test_sequential_agent_out_of_range_is_violation(self):
        policy = FromSequential(SequentialPolicy((1, 2, 3)))
        state = policy.advance(policy.initial_state(), frozenset({1}), frozenset())
        assert policy.reporters(state, 2) == {2}
        state = policy.advance(state, frozenset({2}), frozenset())
        with pytest.raises(PolicyViolationError):
            policy.reporters(state, 2)

    def test_custom_sees_the_history(self):
        # The function gets every earlier stage's (reporters, losers) pair.
        histories = []
        policy = CustomPolicy(lambda prefix: histories.append(prefix) or (len(prefix) % 2 + 1,))
        state = policy.initial_state()
        for losers in (frozenset(), frozenset({2})):
            reporters = policy.reporters(state, 2)
            state = policy.advance(state, reporters, losers)
        assert policy.reporters(state, 2) == {1}
        assert histories == [(), ((frozenset({1}), frozenset()),),
                             ((frozenset({1}), frozenset()), (frozenset({2}), frozenset({2})))]

    def test_custom_empty_is_violation(self):
        policy = CustomPolicy(lambda prefix: ())
        with pytest.raises(PolicyViolationError):
            policy.reporters(policy.initial_state(), 3)

    def test_custom_out_of_range_is_violation(self):
        policy = CustomPolicy(lambda prefix: (4,))
        with pytest.raises(PolicyViolationError):
            policy.reporters(policy.initial_state(), 3)

    def test_parse_policy(self):
        assert isinstance(parse_policy("all"), AllReporting)
        assert isinstance(parse_policy("loser"), LoserReporting)
        assert parse_policy("seq:121").policy.turns == (1, 2, 1)
        with pytest.raises(ValueError):
            parse_policy("everyone")


class TestBuildStructure:
    def test_all_reporting_worked_example(self, example_profile):
        structure = build_structure(AllReporting(), example_profile)
        remaining = sorted((sorted(node.remaining) for node in structure.nodes), key=len)
        assert remaining == [[5], [2, 3, 5], [1, 2, 3, 4, 5]]

    def test_sequential_embedding_single_path(self, example_profile):
        structure = build_structure(FromSequential(SequentialPolicy((1, 2, 3, 3, 2))), example_profile)
        assert len(structure.nodes) == 5
        assert all(node.out_degree == 1 for node in structure.nodes)
        assert all(losers == frozenset() for node in structure.nodes for losers, _ in node.edges)

    def test_identical_two_by_two(self):
        structure = build_structure(AllReporting(), identical_profile(2, 2))
        assert len(structure.nodes) == 2
        for node in structure.nodes:
            assert sorted(sorted(l) for l, _ in node.edges) == [[1], [2]]

    def test_loser_reporting_worked_example(self, example_profile):
        structure = build_structure(LoserReporting(), example_profile)
        assert len(structure.nodes) == 5
        reporters = sorted(sorted(node.reporters) for node in structure.nodes)
        assert reporters == [[1], [1, 2, 3], [1, 2, 3], [1, 2, 3], [3]]

    def test_all_reporting_is_a_chain(self):
        for profile in random_profiles(4, 3, 15, seed=11):
            structure = build_structure(AllReporting(), profile)
            by_remaining = {node.remaining for node in structure.nodes}
            assert len(by_remaining) == len(structure.nodes)
            sizes = sorted(len(r) for r in by_remaining)
            assert sizes == sorted(set(sizes))

    def test_winner_uniqueness_labels(self, example_profile):
        structure = build_structure(AllReporting(), example_profile)
        for node in structure.nodes:
            groups = node.contenders()
            for losers, _ in node.edges:
                assert losers < node.reporters
                for obj, agents in groups.items():
                    assert len([a for a in agents if a not in losers]) == 1

    def test_custom_policy_with_deep_history(self):
        # Reporters cycle 1, 2, 1, 2, ... based on the full history length,
        # which only a history-aware key can tell apart.
        policy = CustomPolicy(lambda prefix: ((len(prefix) % 2) + 1,), name="alternate")
        profile = Profile((Ranking((1, 2, 3)), Ranking((3, 2, 1))))
        structure = build_structure(policy, profile)
        embedded = build_structure(FromSequential(SequentialPolicy((1, 2, 1))), profile)
        assert lottery_expected_utilities(structure, ScoringSpec.borda()) == \
            lottery_expected_utilities(embedded, ScoringSpec.borda())

    def test_exhausted_sequence_is_violation(self, example_profile):
        with pytest.raises(PolicyViolationError):
            build_structure(FromSequential(SequentialPolicy((1, 2))), example_profile)
        with pytest.raises(PolicyViolationError, match="does not fit m=5 objects and n=3 agents"):
            build_structure(FromSequential(SequentialPolicy((1, 2, 4, 3, 2))), example_profile)

    def test_nodes_in_stage_order(self):
        # Runs of three and of four stages reach remaining {5}; that node
        # keeps the first stage that reaches it, and nodes are listed by stage.
        profile = Profile((Ranking((1, 2, 3, 4, 5)), Ranking((1, 4, 2, 5, 3))))
        structure = build_structure(LoserReporting(), profile)
        assert structure.nodes[0] is structure.root
        assert [(node.stage, len(node.remaining)) for node in structure.nodes] == [
            (1, 5), (2, 4), (2, 4), (3, 3), (3, 3), (4, 2), (4, 2), (4, 1), (5, 1)
        ]
        for node in structure.nodes:
            for _, target in node.edges:
                assert target is STOP or target.stage <= node.stage + 1

    @pytest.mark.parametrize("grow", [False, True], ids=["constant-state", "growing-state"])
    def test_stage_without_reporters_is_violation(self, grow):
        with pytest.raises(PolicyViolationError, match="no reporters"):
            build_structure(NoReporters(grow), identical_profile(3, 2))


class TestRecursions:
    def test_expected_worked_example(self, example_profile, borda):
        structure = build_structure(AllReporting(), example_profile)
        assert lottery_expected_utilities(structure, borda) == (Fraction(29, 6), 8, Fraction(15, 2))
        assert lottery_expected_utilities(structure, borda)[1 - 1] == Fraction(29, 6)

    def test_expected_matches_sequential_on_embedding(self, example_profile, borda):
        pi = SequentialPolicy((1, 2, 3, 3, 2))
        structure = build_structure(FromSequential(pi), example_profile)
        assert lottery_expected_utilities(structure, borda) == (5, 9, 7)
        assert guaranteed_utilities(structure, borda) == (5, 9, 7)
        assert profile_utilities(FromSequential(pi), example_profile, borda)[0] == (5, 9, 7)

    def test_expected_identical_two_by_two(self, borda):
        structure = build_structure(AllReporting(), identical_profile(2, 2))
        assert lottery_expected_utilities(structure, borda) == (Fraction(3, 2), Fraction(3, 2))

    def test_guaranteed_worked_example(self, example_profile, lex):
        structure = build_structure(LoserReporting(), example_profile)
        assert guaranteed_utilities(structure, lex) == (8, 16, 12)
        assert guaranteed_utilities(structure, lex)[2 - 1] == 16

    def test_guaranteed_identical_all_reporting_is_zero(self, borda, lex):
        for g in (borda, lex):
            structure = build_structure(AllReporting(), identical_profile(3, 2))
            assert guaranteed_utilities(structure, g) == (0, 0)

    def test_agent_index_validation(self, example_profile, borda):
        # One value per agent 1..n: agent 4 of three has none.
        structure = build_structure(AllReporting(), example_profile)
        with pytest.raises(IndexError):
            lottery_expected_utilities(structure, borda)[4 - 1]
        with pytest.raises(IndexError):
            guaranteed_utilities(structure, borda)[4 - 1]

    def test_no_reference_cycles_left(self, borda):
        # The memoized recursions must not keep a structure or a memo alive
        # until the cyclic collector runs: each per-profile command drops them
        # by reference counting.
        profile = random_profiles(6, 4, 1, seed=5)[0]
        orders = tuple(r.order for r in profile.rankings)
        int_row, _ = borda.integer_row(6)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            structure = build_structure(LoserReporting(), profile)
            lottery_expected_utilities(structure, borda)
            guaranteed_utilities(structure, borda)
            policy_values_scaled(LoserReporting(), orders, int_row, math.lcm(1, 2, 3, 4) ** 6)
            root = weakref.ref(structure.root)
            del structure
            assert root() is None
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_expected_at_least_guaranteed_at_every_node(self, borda):
        # Each node is a valid root for the recursions, so check them all.
        for profile in random_profiles(4, 3, 10, seed=23):
            for policy in (AllReporting(), LoserReporting()):
                structure = build_structure(policy, profile)
                for node in structure.nodes:
                    sub = AllocationStructure(node, (node,), policy, profile)
                    hat = lottery_expected_utilities(sub, borda)
                    under = guaranteed_utilities(sub, borda)
                    assert all(h >= u >= 0 for h, u in zip(hat, under))


class TestOutcomes:
    def test_single_path_single_outcome(self, example_profile):
        structure = build_structure(FromSequential(SequentialPolicy((1, 2, 3, 3, 2))), example_profile)
        outcomes = enumerate_outcomes(structure)
        assert len(outcomes) == 1
        allocation, prob = outcomes[0]
        assert prob == 1
        assert allocation == {1: frozenset({1}), 2: frozenset({4, 2}), 3: frozenset({3, 5})}

    def test_identical_two_by_two_quarters(self):
        structure = build_structure(AllReporting(), identical_profile(2, 2))
        outcomes = enumerate_outcomes(structure)
        assert len(outcomes) == 4
        assert all(p == Fraction(1, 4) for _, p in outcomes)

    def test_budget(self, example_profile):
        structure = build_structure(AllReporting(), example_profile)
        with pytest.raises(BudgetExceededError):
            enumerate_outcomes(structure, max_outcomes=2)

    @pytest.mark.parametrize("policy_literal", ["all", "loser"])
    def test_outcomes_partition_objects(self, policy_literal):
        for profile in random_profiles(4, 3, 8, seed=5):
            structure = build_structure(parse_policy(policy_literal), profile)
            outcomes = enumerate_outcomes(structure)
            assert sum(p for _, p in outcomes) == 1
            for allocation, _ in outcomes:
                everything = sorted(o for objs in allocation.values() for o in objs)
                assert everything == list(range(1, 5))


def _oracle_expected(structure, profile, g):
    row = g.score_row(profile.m)
    totals = [Fraction(0)] * profile.n
    for allocation, p in enumerate_outcomes(structure):
        for i in range(1, profile.n + 1):
            totals[i - 1] += p * sum(row[profile.rankings[i - 1].rank_of(o)] for o in allocation[i])
    return tuple(totals)


def _oracle_guaranteed(structure, profile, g):
    """Minimum realized score over runs in which the agent loses every
    lottery she takes part in, by explicit path enumeration."""
    row = g.score_row(profile.m)
    n = profile.n
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
    return tuple(min(g_[i] for g_, lost in paths if lost[i]) for i in range(n))


class TestOracleEquivalence:
    @pytest.mark.parametrize("policy_literal", ["all", "loser", "seq"])
    def test_recursions_match_outcome_enumeration(self, policy_literal, borda):
        rng = random.Random(99)
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                for profile, _ in enumerate_profiles(m, n):
                    if policy_literal == "seq":
                        turns = tuple(rng.randrange(1, n + 1) for _ in range(m))
                        policy = FromSequential(SequentialPolicy(turns))
                    else:
                        policy = parse_policy(policy_literal)
                    structure = build_structure(policy, profile)
                    assert lottery_expected_utilities(structure, borda) == _oracle_expected(
                        structure, profile, borda
                    )
                    assert guaranteed_utilities(structure, borda) == _oracle_guaranteed(
                        structure, profile, borda
                    )


class TestFloorGuarantee:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_loser_reporting_floor_small(self, m, n):
        floor = m // n
        for profile, _ in enumerate_profiles(m, n):
            structure = build_structure(LoserReporting(), profile)
            for allocation, _ in enumerate_outcomes(structure):
                assert all(len(objs) >= floor for objs in allocation.values())


class TestEquivariance:
    @pytest.mark.parametrize("policy_literal", ["all", "loser"])
    def test_agent_permutation(self, policy_literal, borda):
        rng = random.Random(17)
        policy = parse_policy(policy_literal)
        for profile in random_profiles(4, 3, 10, seed=31):
            sigma = [1, 2, 3]
            rng.shuffle(sigma)  # sigma[i-1] = new name of agent i
            inverse = {sigma[i - 1]: i for i in (1, 2, 3)}
            permuted = Profile(tuple(profile.rankings[inverse[j] - 1] for j in (1, 2, 3)))
            base_hat = lottery_expected_utilities(build_structure(policy, profile), borda)
            base_under = guaranteed_utilities(build_structure(policy, profile), borda)
            moved_hat = lottery_expected_utilities(build_structure(policy, permuted), borda)
            moved_under = guaranteed_utilities(build_structure(policy, permuted), borda)
            assert tuple(moved_hat[sigma[i - 1] - 1] for i in (1, 2, 3)) == base_hat
            assert tuple(moved_under[sigma[i - 1] - 1] for i in (1, 2, 3)) == base_under


def rotating_with_losers(n):
    """Stage t: agent t mod n + 1 and every lottery loser of stage t - 1.
    It reads the history's length, so no smaller state summarizes it."""
    return CustomPolicy(
        lambda history: {len(history) % n + 1} | (history[-1][1] if history else frozenset()),
        name="rotate",
    )


class TestKernelsProperty:
    """Every per-profile kernel, and the one-item route of
    ``profile_utilities`` that dispatches to them, against the structure
    recursions, and those against the complete runs of ``enumerate_outcomes``."""

    @settings(max_examples=120)
    @given(data=st.data())
    def test_kernels_match_structure_and_outcomes(self, data):
        m = data.draw(st.integers(1, 6), label="m")
        n = data.draw(st.integers(1, 4), label="n")
        orders = tuple(tuple(data.draw(st.permutations(range(1, m + 1)))) for _ in range(n))
        values = data.draw(st.lists(
            st.fractions(min_value=Fraction(1, 12), max_value=50, max_denominator=12),
            min_size=m, max_size=m,
        ))
        g = data.draw(st.sampled_from([
            ScoringSpec.borda(), ScoringSpec.lexicographic(), ScoringSpec.custom(sorted(values, reverse=True)),
        ]))
        turns = tuple(data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m), label="turns"))
        profile = Profile(tuple(Ranking(o) for o in orders))
        row = g.score_row(m)
        int_row, denom = g.integer_row(m)
        lottery_scale = math.lcm(*range(1, n + 1))

        def exact(scaled, scale):
            return tuple(Fraction(v, scale * denom) for v in scaled)

        everyone = AllReporting()
        sequence = FromSequential(SequentialPolicy(turns))
        realized_turns = sequential_values_scaled(turns, orders, int_row, 1)
        fast = {
            everyone: (all_reporting_values_scaled(orders, int_row, lottery_scale), lottery_scale),
            sequence: ((realized_turns, realized_turns), 1),
        }
        for policy in (everyone, LoserReporting(), sequence, rotating_with_losers(n)):
            structure = build_structure(policy, profile)
            hat = lottery_expected_utilities(structure, g)
            under = guaranteed_utilities(structure, g)
            outcomes = enumerate_outcomes(structure)
            realized = [
                (tuple(sum(row[profile.rankings[i].rank_of(o)] for o in won[i + 1]) for i in range(n)), p)
                for won, p in outcomes
            ]
            assert hat == tuple(sum(u[i] * p for u, p in realized) for i in range(n))
            assert under == tuple(min(u[i] for u, _ in realized) for i in range(n))
            kernel_hat, kernel_under = policy_values_scaled(policy, orders, int_row, lottery_scale**m)
            assert exact(kernel_hat, lottery_scale**m) == hat
            assert exact(kernel_under, lottery_scale**m) == under
            assert profile_utilities(policy, profile, g) == (hat, under)
            if policy in fast:
                (fast_hat, fast_under), scale = fast[policy]
                assert exact(fast_hat, scale) == hat
                assert exact(fast_under, scale) == under
