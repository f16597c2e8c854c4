import itertools
import math
import operator
from fractions import Fraction

import pytest

from allocsim.errors import ProfileParseError
from allocsim.model import (
    Profile,
    Ranking,
    ScoringSpec,
    enumerate_profiles,
    identity_ranking,
    parse_profile_text,
    parse_scoring_text,
)


class TestRanking:
    def test_rank_of_identity(self):
        r = identity_ranking(5)
        assert r.rank_of(3) == 3

    def test_rank_of_example_agent2(self):
        r = Ranking((4, 2, 5, 1, 3))
        assert r.rank_of(2) == 2
        assert r.rank_of(3) == 5

    def test_rank_of_out_of_range(self):
        r = identity_ranking(3)
        with pytest.raises(ValueError):
            r.rank_of(0)
        with pytest.raises(ValueError):
            r.rank_of(4)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Ranking((1, 1, 2))
        with pytest.raises(ValueError):
            Ranking((2, 3))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_rank_of_is_bijection(self, m):
        for perm in itertools.permutations(range(1, m + 1)):
            r = Ranking(perm)
            assert sorted(r.rank_of(o) for o in range(1, m + 1)) == list(range(1, m + 1))

    def test_best_of(self):
        r = Ranking((4, 2, 5, 1, 3))
        assert r.best_of([1, 2, 3, 4, 5]) == 4
        assert r.best_of({3, 5}) == 5
        with pytest.raises(ValueError):
            r.best_of([])


class TestScoring:
    def test_borda_top(self):
        assert ScoringSpec.borda().score(1, 5) == 5

    def test_lex_bottom(self):
        assert ScoringSpec.lexicographic().score(5, 5) == 1

    @pytest.mark.parametrize("m", range(1, 8))
    def test_borda_last_rank_is_one(self, m):
        assert ScoringSpec.borda().score(m, m) == 1

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            ScoringSpec.borda().score(0, 4)
        with pytest.raises(ValueError):
            ScoringSpec.borda().score(5, 4)

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("kind", ["borda", "lex"])
    def test_non_increasing(self, kind, m):
        g = ScoringSpec(kind)
        row = [g.score(k, m) for k in range(1, m + 1)]
        assert all(a >= b for a, b in zip(row, row[1:]))
        assert all(v > 0 for v in row)

    def test_custom_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            ScoringSpec.custom([3, 2, 0])
        with pytest.raises(ValueError):
            ScoringSpec.custom([3, -1, 1])

    def test_custom_rejects_increasing(self):
        with pytest.raises(ValueError):
            ScoringSpec.custom([1, 2, 3])

    def test_custom_length_must_match_m(self):
        g = ScoringSpec.custom([3, 2, 1])
        with pytest.raises(ValueError):
            g.score(1, 4)

    def test_integer_row_clears_denominators(self):
        g = ScoringSpec.custom([Fraction(3, 2), Fraction(2, 3), Fraction(1, 6)])
        row, denom = g.integer_row(3)
        assert denom == 6
        assert row == (0, 9, 4, 1)


class TestEnumeration:
    def test_counts_reduced_5_3(self):
        stream = enumerate_profiles(5, 3)
        assert stream.count == 14400
        assert stream.item_weight == 120
        assert stream.total_weight == 120**3

    def test_zero_sizes_rejected(self):
        with pytest.raises(ValueError):
            enumerate_profiles(0, 2)
        with pytest.raises(ValueError):
            enumerate_profiles(2, 0)

    def test_reduced_fixes_agent_one(self):
        for profile, w in enumerate_profiles(3, 2):
            assert profile.rankings[0].order == (1, 2, 3)
            assert w == 6

    def test_lexicographic_order_and_distinct(self):
        seen = [p.order_rows() for p, _ in enumerate_profiles(3, 3)]
        assert len(set(seen)) == 36
        assert seen == sorted(seen)

    # (m, n): a stream whose later agent runs over all m! rankings, one with
    # no varying agent, and a one-varying-agent walk over 9! rankings.  The
    # cases run in one test so that it keeps its id.  Chunks are compared
    # item by item as they stream, so that no second 9!-item list is held.
    PARTITION_CASES = ((4, 3), (3, 1), (9, 2))

    def test_partition_covers_stream(self):
        for m, n in self.PARTITION_CASES:
            stream = enumerate_profiles(m, n)
            whole = list(stream.iter_order_rows())
            assert len(whole) == stream.count
            for parts in (1, 2, 4, 5):
                chunks = stream.partition(parts)
                assert sum(c.count for c in chunks) == stream.count
                glued = itertools.chain.from_iterable(c.iter_order_rows() for c in chunks)
                pairs = itertools.zip_longest(glued, whole)
                assert all(itertools.starmap(operator.eq, pairs)), (m, n, parts)

    def test_partition_weighted_sum_invariant(self):
        stream = enumerate_profiles(3, 3)
        total = sum(w * p.rankings[2].rank_of(1) for p, w in stream)
        for parts in (2, 3):
            split = sum(
                w * p.rankings[2].rank_of(1)
                for c in stream.partition(parts)
                for p, w in c
            )
            assert split == total


class TestParsing:
    def test_profile_round_trip(self, example_profile):
        text = "1 2 3 4 5\n4 2 5 1 3\n1 3 5 4 2\n"
        assert parse_profile_text(text) == example_profile

    def test_profile_skips_comments_and_blanks(self):
        text = "# agents\n\n1 2\n2 1\n"
        assert parse_profile_text(text).n == 2

    def test_profile_error_carries_line_number(self):
        with pytest.raises(ProfileParseError) as err:
            parse_profile_text("1 2 3\n3 oops 1\n")
        assert err.value.line == 2

    def test_profile_bad_permutation(self):
        with pytest.raises(ProfileParseError):
            parse_profile_text("1 2 3\n1 1 3\n")

    def test_profile_mismatched_lengths(self):
        with pytest.raises(ValueError):
            parse_profile_text("1 2 3\n2 1\n")

    def test_scoring_text(self):
        g = parse_scoring_text("3 3/2 0.5")
        assert g.table == (Fraction(3), Fraction(3, 2), Fraction(1, 2))

    def test_scoring_text_rejects_zero(self):
        with pytest.raises(ProfileParseError):
            parse_scoring_text("2 1 0")
