import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocsim.errors import BudgetExceededError, PolicyViolationError
from allocsim.model import Profile, Ranking, ScoringSpec, identity_ranking
from allocsim.parallel import STOP, FromSequential, build_structure, enumerate_outcomes
from allocsim import sequential
from allocsim.sequential import (
    Aggregator,
    SequentialPolicy,
    _agent_law,
    _best_sequence,
    _canonical_count,
    _pick_set_sums,
    _reveals,
    _sequence_transitions,
    _stage_law,
    _table_transitions,
    canonical_turn_sequences,
    canonicalize_turns,
    optimal_sequential,
)
from allocsim.welfare import agent_value, evaluate_criterion, parse_criterion, profile_aggregates, profile_utilities

PI = SequentialPolicy.from_literal("seq:12332")


def picks(pi, profile):
    """The ``(agent, object)`` picks of a truthful run, read off the chain of
    its structure, root first: a turn sequence has one reporter per stage
    and so one demand and one edge."""
    out = []
    node = build_structure(FromSequential(pi), profile).root
    while node is not STOP:
        (agent,) = node.reporters
        out.append((agent, node.demands[agent]))
        ((_, node),) = node.edges
    return tuple(out)


def fraction_positions_dp(m, score_row, picks):
    """Expected total score of an agent picking at the given steps, by the
    positions DP in ``Fraction`` probabilities: the reference for the
    library's integer law of one agent's run.

    Marginalizing over everyone else's uniform, independent rankings, each
    foreign pick removes a uniformly random remaining object of this agent's
    ranking, while her own picks remove the best remaining one.  For each rank
    position p, the DP state is the number of removed positions above p;
    probability mass where p itself was removed is dropped.
    """
    total = Fraction(0)
    for p in range(1, m + 1):
        states = {0: Fraction(1)}
        for k in range(1, m + 1):
            r = m - k + 1
            new: dict[int, Fraction] = {}
            if k in picks:
                for above, pr in states.items():
                    if above == p - 1:
                        total += pr * score_row[p]
                    else:
                        new[above + 1] = new.get(above + 1, Fraction(0)) + pr
            else:
                for above, pr in states.items():
                    low = (p - 1) - above
                    if low:
                        new[above + 1] = new.get(above + 1, Fraction(0)) + pr * Fraction(low, r)
                    survive = r - low - 1
                    if survive:
                        new[above] = new.get(above, Fraction(0)) + pr * Fraction(survive, r)
            states = new
            if not states:
                break
    return total


def rational_row(m):
    """A strictly decreasing rational score row for m objects."""
    return ScoringSpec.custom([Fraction(3 * (m - k) + 1, k + 2) for k in range(m)])


def reference_search(m, n, g):
    """The pi* search as a fold over every canonical candidate, in
    lexicographic order: each agent's law of its own pick set, from
    :func:`_agent_law`, summed or minimized, the first best candidate kept.
    Returns ``{aggregator: (turns, value)}``; each pick set's law is computed
    once for both folds."""
    int_row, denom = g.integer_row(m)
    law = functools.cache(lambda picks: _agent_law(m, int_row, 0, picks)[1])
    laws = {
        turns: [law(frozenset(s for s, t in enumerate(turns, start=1) if t == agent)) for agent in range(1, n + 1)]
        for turns in itertools.product(range(1, n + 1), repeat=m)
        if turns == canonicalize_turns(turns)
    }
    found = {}
    for aggregator in Aggregator:
        pi, best = _best_sequence(laws, lambda turns: aggregator.apply(laws[turns]))
        found[aggregator] = (pi.turns, Fraction(best, math.factorial(m) * denom))
    return found


def realized(pi, profile, g):
    return profile_utilities(FromSequential(pi), profile, g)[0]


def expected_utility(pi, g, agent, n):
    return agent_value(agent, "u", "u", FromSequential(pi), g, pi.m, n)


def expected_welfare(pi, g, aggregator, n):
    return evaluate_criterion(parse_criterion(aggregator.value + "uu"), FromSequential(pi), g, pi.m, n)


class TestPolicyLiteral:
    def test_digit_form(self):
        assert SequentialPolicy.from_literal("seq:12332").turns == (1, 2, 3, 3, 2)

    def test_comma_form(self):
        assert SequentialPolicy.from_literal("seq:1,2,10").turns == (1, 2, 10)

    def test_round_trip(self):
        assert SequentialPolicy((1, 2, 3)).literal() == "123"
        assert SequentialPolicy((1, 11)).literal() == "1,11"

    def test_invalid(self):
        with pytest.raises(ValueError):
            SequentialPolicy.from_literal("seq:1a2")
        with pytest.raises(ValueError):
            SequentialPolicy(())


class TestSimulate:
    def test_worked_example_history(self, example_profile):
        assert picks(PI, example_profile) == ((1, 1), (2, 4), (3, 3), (3, 5), (2, 2))

    def test_shared_ranking_two_agents(self):
        profile = Profile((identity_ranking(2), identity_ranking(2)))
        assert picks(SequentialPolicy((1, 2)), profile) == ((1, 1), (2, 2))

    def test_single_agent(self):
        profile = Profile((Ranking((2, 1)),))
        assert picks(SequentialPolicy((1, 1)), profile) == ((1, 2), (1, 1))

    def test_length_mismatch(self, example_profile):
        with pytest.raises(PolicyViolationError):
            picks(SequentialPolicy((1, 2)), example_profile)
        with pytest.raises(PolicyViolationError):
            picks(SequentialPolicy((1, 4, 1, 1, 1)), example_profile)

    @pytest.mark.parametrize("literal", ["seq:12", "seq:12341", "seq:123123"])
    def test_misfit_raises_one_error_everywhere(self, literal, example_profile, borda):
        # One fit rule serves every welfare route and the allocation
        # structure, with one message; a sequence longer than m would
        # otherwise build a silent chain of m stages.  The agent law is
        # asked at the sequence's own length here, so only the agent misfit
        # reaches it.
        pi = SequentialPolicy.from_literal(literal)
        calls = [
            lambda: enumerate_outcomes(build_structure(FromSequential(pi), example_profile)),
            lambda: profile_utilities(FromSequential(pi), example_profile, borda),
            lambda: evaluate_criterion(parse_criterion("uuu"), FromSequential(pi), borda, 5, 3),
            lambda: evaluate_criterion(parse_criterion("em-u"), FromSequential(pi), borda, 5, 3),
        ]
        if pi.max_agent > 3:
            calls.append(lambda: agent_value(1, "u", "u", FromSequential(pi), borda, pi.m, 3))
        for call in calls:
            with pytest.raises(PolicyViolationError) as info:
                call()
            assert str(info.value) == f"turn sequence {pi.literal()} does not fit m=5 objects and n=3 agents"

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_every_object_allocated_once(self, m, n):
        rng = random.Random(7)
        perms = list(itertools.permutations(range(1, m + 1)))
        for _ in range(20):
            profile = Profile(tuple(Ranking(rng.choice(perms)) for _ in range(n)))
            turns = tuple(rng.randrange(1, n + 1) for _ in range(m))
            history = picks(SequentialPolicy(turns), profile)
            objs = [o for _, o in history]
            assert sorted(objs) == list(range(1, m + 1))
            assert [a for a, _ in history] == list(turns)


class TestRealizedUtility:
    def test_worked_example_borda(self, example_profile, borda):
        assert realized(PI, example_profile, borda) == (5, 9, 7)

    def test_worked_example_lex(self, example_profile, lex):
        assert realized(PI, example_profile, lex) == (16, 24, 12)

    def test_single_agent_total(self, borda):
        profile = Profile((Ranking((2, 1)),))
        assert realized(SequentialPolicy((1, 1)), profile, borda)[0] == 3


class TestExpectedUtility:
    def test_worked_example_borda_exact(self, borda):
        values = [expected_utility(PI, borda, i, n=3) for i in (1, 2, 3)]
        assert values == [5, Fraction(36, 5), Fraction(15, 2)]

    def test_worked_example_lex(self, lex):
        values = [expected_utility(PI, lex, i, n=3) for i in (1, 2, 3)]
        assert values[0] == 16
        assert abs(values[1] - Fraction(178667, 10000)) < Fraction(1, 10000)
        assert values[2] == 17

    def test_two_agents_two_objects(self, borda):
        pi = SequentialPolicy((1, 2))
        assert expected_utility(pi, borda, 1, n=2) == 2
        assert expected_utility(pi, borda, 2, n=2) == Fraction(3, 2)

    @pytest.mark.parametrize("method", ["positions", "enumerate"])
    def test_methods_agree_on_worked_example(self, borda, method):
        if method == "positions":
            value = expected_utility(PI, borda, 2, n=3)
        else:
            value = profile_aggregates(FromSequential(PI), borda, 5, 3).expected("u")[1]
        assert value == Fraction(36, 5)

    @pytest.mark.parametrize("kind", ["borda", "lex"])
    def test_positions_equals_enumeration_exactly(self, kind):
        g = ScoringSpec(kind)
        for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for turns in itertools.product(range(1, n + 1), repeat=m):
                pi = SequentialPolicy(turns)
                slow = profile_aggregates(FromSequential(pi), g, m, n).expected("u")
                for agent in range(1, n + 1):
                    assert expected_utility(pi, g, agent, n=n) == slow[agent - 1]

    @settings(max_examples=200)
    @given(data=st.data())
    def test_integer_positions_dp_equals_fraction_dp(self, data):
        # The agent law's sum, for one agent picking at the given steps of a
        # turn sequence, at the scale m! * denom.
        m = data.draw(st.integers(1, 8), label="m")
        picks = frozenset(data.draw(st.sets(st.integers(1, m)), label="picks"))
        values = data.draw(st.lists(
            st.fractions(min_value=Fraction(1, 12), max_value=50, max_denominator=12),
            min_size=m, max_size=m,
        ))
        g = data.draw(st.sampled_from([
            ScoringSpec.borda(), ScoringSpec.lexicographic(), ScoringSpec.custom(sorted(values, reverse=True)),
        ]))
        int_row, denom = g.integer_row(m)
        weight, counted, *_ = _agent_law(m, int_row, 0, picks)
        assert weight == math.factorial(m)
        assert Fraction(counted, math.factorial(m) * denom) == fraction_positions_dp(m, g.score_row(m), picks)

    def test_symmetry_reduction_is_exact(self, borda, full_stream_reference):
        for m, n in [(2, 2), (3, 2), (3, 3)]:
            for turns in [(1,) * m, tuple((k % n) + 1 for k in range(m))]:
                policy = FromSequential(SequentialPolicy(turns))
                reduced = profile_aggregates(policy, borda, m, n)
                full = full_stream_reference(policy, borda, m, n)
                for z in ("u", "e"):
                    assert (reduced.expected(z), reduced.minimum(z), reduced.expected_min(z)) == full[z]


class TestExpectedWelfare:
    def test_worked_example_utilitarian(self, borda):
        value = expected_welfare(PI, borda, Aggregator.UTILITARIAN, n=3)
        assert value == Fraction(197, 10)

    def test_worked_example_egalitarian(self, lex):
        assert expected_welfare(PI, lex, Aggregator.EGALITARIAN, n=3) == 16

    def test_small_utilitarian(self, borda):
        pi = SequentialPolicy((1, 2))
        assert expected_welfare(pi, borda, Aggregator.UTILITARIAN, n=2) == Fraction(7, 2)

    def test_utilitarian_welfare_is_sum_of_expectations(self, borda):
        for turns in [(1, 2, 1), (2, 1, 2), (1, 1, 2)]:
            pi = SequentialPolicy(turns)
            total = sum(expected_utility(pi, borda, i, n=2) for i in (1, 2))
            assert expected_welfare(pi, borda, Aggregator.UTILITARIAN, n=2) == total


class TestRenamingEquivariance:
    def test_relabeling_agents_permutes_utilities(self, borda):
        rng = random.Random(3)
        perms = list(itertools.permutations(range(1, 5)))
        for _ in range(25):
            n = rng.choice((2, 3))
            profile = Profile(tuple(Ranking(rng.choice(perms)) for _ in range(n)))
            turns = tuple(rng.randrange(1, n + 1) for _ in range(4))
            sigma = list(range(1, n + 1))
            rng.shuffle(sigma)  # sigma[i-1] is the new name of agent i
            relabeled_turns = tuple(sigma[t - 1] for t in turns)
            inverse = {sigma[i - 1]: i for i in range(1, n + 1)}
            permuted_profile = Profile(tuple(profile.rankings[inverse[j] - 1] for j in range(1, n + 1)))
            base = realized(SequentialPolicy(turns), profile, borda)
            moved = realized(SequentialPolicy(relabeled_turns), permuted_profile, borda)
            assert tuple(moved[sigma[i - 1] - 1] for i in range(1, n + 1)) == base


class TestOptimalSearch:
    def test_table_values(self, borda):
        pi, value = optimal_sequential(4, 2, borda, Aggregator.UTILITARIAN)
        assert pi.turns == (1, 2, 1, 2)
        assert abs(value - Fraction(12292, 1000)) <= Fraction(1, 1000)

        pi, value = optimal_sequential(5, 3, borda, Aggregator.UTILITARIAN)
        assert pi.turns == (1, 2, 3, 1, 2)
        assert abs(value - Fraction(20033, 1000)) <= Fraction(1, 1000)

        pi, value = optimal_sequential(4, 2, borda, Aggregator.EGALITARIAN)
        assert pi.turns == (1, 2, 2, 1)
        assert value == 6

    @pytest.mark.parametrize("m", range(2, 13))
    def test_strict_alternation_is_optimal_for_two_agents_under_borda(self, borda, m):
        # Kalinowski, Narodytska and Walsh (IJCAI 2013): for two agents and
        # Borda scores, strict alternation maximizes expected utilitarian
        # welfare; the search's lexicographic tie-break starts it with agent 1.
        pi, _ = optimal_sequential(m, 2, borda, Aggregator.UTILITARIAN)
        assert pi.literal() == "12" * (m // 2) + "1" * (m % 2)

    def test_canonicalize(self):
        assert canonicalize_turns((2, 1)) == (1, 2)
        assert canonicalize_turns((3, 3, 2, 1, 1)) == (1, 1, 2, 3, 3)

    def test_canonical_sequences_cover_orbits(self):
        # Every orbit once, in lexicographic order, through heads and tails
        # of every split the generator may choose, and more agents than steps.
        for m in range(0, 9):
            for n in range(1, 6):
                if n**m > 50_000:
                    continue
                orbits = sorted({canonicalize_turns(t) for t in itertools.product(range(1, n + 1), repeat=m)})
                assert list(canonical_turn_sequences(m, n)) == orbits, (m, n)
                assert _canonical_count(m, n) == len(orbits), (m, n)
        assert _canonical_count(15, 3) == 2_391_485
        # No recursion as deep as the sequence is long.
        assert list(canonical_turn_sequences(3000, 1)) == [(1,) * 3000]

    @pytest.mark.parametrize("aggregator", [Aggregator.UTILITARIAN, Aggregator.EGALITARIAN])
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_matches_unpruned_argmax(self, borda, aggregator, m, n):
        best_value = None
        best_turns = None
        for turns in itertools.product(range(1, n + 1), repeat=m):
            pi = SequentialPolicy(turns)
            value = aggregator.apply(
                expected_utility(pi, borda, i, n=n) for i in range(1, n + 1)
            )
            if best_value is None or value > best_value:
                best_value, best_turns = value, turns
        pi, value = optimal_sequential(m, n, borda, aggregator)
        assert value == best_value
        assert pi.turns == best_turns  # full-scan lex winner is the canonical form

    def test_budget_refusal(self, borda):
        with pytest.raises(BudgetExceededError):
            optimal_sequential(30, 2, borda, Aggregator.UTILITARIAN)

    @pytest.mark.parametrize("m, n", [(1, 1), (9, 1), (1, 3), (4, 2), (6, 3), (5, 7)])
    def test_budget_is_the_table_and_the_candidates(self, monkeypatch, borda, m, n):
        # One unit per transition of the table's law (one agent's run of m
        # transitions when n = 1) and one per canonical candidate, all
        # counted before the table is built.
        count = (_table_transitions(m) if n > 1 else m) + _canonical_count(m, n)
        want = optimal_sequential(m, n, borda, Aggregator.UTILITARIAN)
        assert optimal_sequential(m, n, borda, Aggregator.UTILITARIAN, budget_units=count) == want
        built = []
        monkeypatch.setattr(sequential, "_pick_set_sums", lambda *args: built.append(args))
        monkeypatch.setattr(sequential, "_agent_law", lambda *args: built.append(args))
        with pytest.raises(BudgetExceededError) as refused:
            optimal_sequential(m, n, borda, Aggregator.UTILITARIAN, budget_units=count - 1)
        assert (refused.value.estimated, refused.value.budget) == (count, count - 1)
        assert built == []

    def test_budget_of_the_largest_two_agent_cell_at_the_default(self):
        # (18, 2) still fits the default 12M units; (19, 2) does not.
        assert _table_transitions(18) + _canonical_count(18, 2) == 11_993_279
        assert _table_transitions(19) + _canonical_count(19, 2) > 12_000_000

    def test_table_transitions_count_each_pick_sets_last_pick(self):
        # An agent picking at the steps in `picks`, every other step taken by
        # an agent of its own, which makes s transitions at its step s.
        def agent(m, picks):
            turns = [1 if s in picks else s + 1 for s in range(1, m + 1)]
            return _sequence_transitions(turns) - sum(s for s in range(1, m + 1) if s not in picks)

        for m in range(1, 11):
            total = sum(
                agent(m, picks) - agent(m, picks[:-1])
                for k in range(1, m + 1)
                for picks in itertools.combinations(range(1, m + 1), k)
            )
            assert _table_transitions(m) == total, m

    @pytest.mark.parametrize("g", [ScoringSpec.borda(), ScoringSpec.lexicographic(), None])
    def test_table_holds_the_agent_law_of_every_pick_set(self, g):
        for m in range(1, 9):
            int_row, _ = (g or rational_row(m)).integer_row(m)
            sums = _pick_set_sums(m, int_row)
            assert len(sums) == 2**m
            for mask in range(2**m):
                picks = frozenset(s for s in range(1, m + 1) if mask >> (s - 1) & 1)
                assert sums[mask] == _agent_law(m, int_row, 0, picks)[1], (m, sorted(picks))

    @pytest.mark.parametrize("scoring", ["borda", "lex", "rational"])
    def test_matches_the_per_candidate_fold(self, scoring):
        # The search before the pick-set table, as the reference: every
        # (m, n) with m <= 9 and n <= 4, under both aggregators.
        for m in range(1, 10):
            g = {"borda": ScoringSpec.borda(), "lex": ScoringSpec.lexicographic()}.get(scoring) or rational_row(m)
            for n in range(1, 5):
                for aggregator, (turns, value) in reference_search(m, n, g).items():
                    pi, found = optimal_sequential(m, n, g, aggregator)
                    assert (pi.turns, found) == (turns, value), (m, n, aggregator)

    def test_positions_cache_is_bounded(self, borda, lex):
        # The agent law keeps no cache: a search builds its pick-set table
        # per call and drops it, and a pass computes each law it needs once.
        # What the module still caches is keyed by sizes alone, so searches
        # under new scorings add nothing.
        assert not hasattr(_agent_law, "cache_info")
        sized = (_reveals, _stage_law)
        optimal_sequential(8, 3, borda, Aggregator.UTILITARIAN)
        optimal_sequential(8, 1, borda, Aggregator.UTILITARIAN)
        before = [cached.cache_info().currsize for cached in sized]
        for g in (lex, rational_row(8)):
            for n in (1, 3):
                optimal_sequential(8, n, g, Aggregator.EGALITARIAN)
        assert [cached.cache_info().currsize for cached in sized] == before
