"""Sequential picking protocol: truthful simulation, realized and expected
utilities, expected social welfare, and exhaustive optimal-policy search.

Expected utilities come from one route, a per-rank dynamic program over the
steps at which an agent picks: from one agent's point of view every pick by
another agent removes a uniformly random remaining object, while her own
picks remove her best remaining one.  This makes the expectation a function
of the set of steps at which the agent picks, and is what makes exhaustive
policy search affordable.  The test suite pins it, exactly, to an
independent per-profile pass over the same profile stream
(``profile_aggregates`` of the turn sequence as a parallel policy).

A turn sequence fits m objects and n agents when it has m turns and names no
agent above n.  Every function here and in :mod:`allocsim.welfare` that plays
a given sequence refuses a misfit through :meth:`SequentialPolicy.check_fit`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, PolicyViolationError
from .model import Profile, ScoringSpec

__all__ = [
    "Aggregator",
    "SequentialPolicy",
    "SequentialHistory",
    "simulate_sequential",
    "realized_utilities",
    "expected_utility_sequential",
    "expected_welfare_sequential",
    "optimal_sequential",
    "canonical_turn_sequences",
    "canonicalize_turns",
]

DEFAULT_SEARCH_BUDGET = 10**7


class Aggregator(enum.Enum):
    """How per-agent values are folded into a social value.  The values are
    the criterion axis letters, so ``Aggregator(criterion.x)`` is the fold
    over agents."""

    UTILITARIAN = "u"  # sum
    EGALITARIAN = "e"  # min

    def apply(self, values: Iterable[Fraction]) -> Fraction:
        values = list(values)
        if self is Aggregator.UTILITARIAN:
            return sum(values, Fraction(0))
        return min(values)


@dataclass(frozen=True)
class SequentialPolicy:
    """A length-m turn sequence; ``turns[k-1]`` picks at step k."""

    turns: tuple[int, ...]

    def __post_init__(self):
        turns = tuple(int(t) for t in self.turns)
        object.__setattr__(self, "turns", turns)
        if not turns:
            raise ValueError("a sequential policy needs at least one turn")
        if any(t < 1 for t in turns):
            raise ValueError("agent indices must be positive")

    @property
    def m(self) -> int:
        return len(self.turns)

    @property
    def max_agent(self) -> int:
        return max(self.turns)

    def check_fit(self, m: int, n: int) -> None:
        """Refuse play with ``m`` objects and ``n`` agents unless the sequence
        has ``m`` turns and names no agent above ``n``."""
        if self.m != m or self.max_agent > n:
            raise PolicyViolationError(f"turn sequence {self.literal()} does not fit m={m} objects and n={n} agents")

    def positions(self, agent: int) -> frozenset[int]:
        """Steps (1-based) at which ``agent`` picks."""
        return frozenset(k for k, t in enumerate(self.turns, start=1) if t == agent)

    def literal(self) -> str:
        if self.max_agent <= 9:
            return "".join(str(t) for t in self.turns)
        return ",".join(str(t) for t in self.turns)

    @classmethod
    def from_literal(cls, text: str) -> "SequentialPolicy":
        body = text[4:] if text.startswith("seq:") else text
        if "," in body:
            turns = tuple(int(tok) for tok in body.split(","))
        else:
            if not body.isdigit():
                raise ValueError(f"invalid turn sequence {text!r}")
            turns = tuple(int(ch) for ch in body)
        return cls(turns)


@dataclass(frozen=True)
class SequentialHistory:
    """The picks of one truthful run: ``(agent, object)`` per step."""

    picks: tuple[tuple[int, int], ...]


def simulate_sequential(pi: SequentialPolicy, profile: Profile) -> SequentialHistory:
    """Truthful run: at each step the designated agent takes her best
    remaining object."""
    pi.check_fit(profile.m, profile.n)
    orders = profile.order_rows()
    taken = [False] * (profile.m + 1)
    ptr = [0] * profile.n
    picks = []
    for agent in pi.turns:
        row = orders[agent - 1]
        p = ptr[agent - 1]
        while taken[row[p]]:
            p += 1
        ptr[agent - 1] = p
        obj = row[p]
        taken[obj] = True
        picks.append((agent, obj))
    return SequentialHistory(tuple(picks))


def realized_utilities(pi: SequentialPolicy, profile: Profile, g: ScoringSpec) -> tuple[Fraction, ...]:
    """Utility of every agent at one profile under truthful play."""
    history = simulate_sequential(pi, profile)
    row = g.score_row(profile.m)
    ranks = profile.rank_rows()
    totals = [Fraction(0)] * profile.n
    for agent, obj in history.picks:
        totals[agent - 1] += row[ranks[agent - 1][obj]]
    return tuple(totals)


# ---------------------------------------------------------------------------
# Expected utilities


@lru_cache(maxsize=None)
def _expected_score_for_positions(
    m: int, score_row: tuple[Fraction, ...], picks: frozenset[int]
) -> Fraction:
    """Expected total score of an agent picking at the given steps.

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


def expected_utility_sequential(
    pi: SequentialPolicy,
    g: ScoringSpec,
    agent: int,
    n: int | None = None,
) -> Fraction:
    """Expected utility of ``agent`` under full independence (exact rational)."""
    if n is None:
        n = pi.max_agent
    pi.check_fit(pi.m, n)
    if not 1 <= agent <= n:
        raise ValueError(f"agent {agent} out of range 1..{n}")
    picks = pi.positions(agent)
    if not picks:
        return Fraction(0)
    return _expected_score_for_positions(pi.m, g.score_row(pi.m), picks)


def expected_welfare_sequential(
    pi: SequentialPolicy,
    g: ScoringSpec,
    aggregator: Aggregator,
    n: int | None = None,
) -> Fraction:
    """Aggregate of the n expected utilities."""
    if n is None:
        n = pi.max_agent
    values = [expected_utility_sequential(pi, g, i, n=n) for i in range(1, n + 1)]
    return aggregator.apply(values)


# ---------------------------------------------------------------------------
# Optimal policy search


def canonicalize_turns(turns: Sequence[int]) -> tuple[int, ...]:
    """Relabel agents by first appearance, giving the lexicographically
    smallest member of the agent-renaming class."""
    mapping: dict[int, int] = {}
    out = []
    for t in turns:
        if t not in mapping:
            mapping[t] = len(mapping) + 1
        out.append(mapping[t])
    return tuple(out)


def canonical_turn_sequences(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """All first-appearance-canonical turn sequences of length m over at most
    n agents, in lexicographic order (restricted growth strings)."""

    def rec(prefix: list[int], used: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == m:
            yield tuple(prefix)
            return
        for t in range(1, min(used + 1, n) + 1):
            prefix.append(t)
            yield from rec(prefix, max(used, t))
            prefix.pop()

    yield from rec([], 0)


def optimal_sequential(
    m: int,
    n: int,
    g: ScoringSpec,
    aggregator: Aggregator,
) -> tuple[SequentialPolicy, Fraction]:
    """Exhaustive argmax of expected welfare over all ``n**m`` turn sequences.

    Welfare is invariant under renaming agents, so only canonical sequences
    are evaluated; ties break to the lexicographically smallest sequence,
    which is exactly what a full scan with the same tie-break would return.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must both be at least 1")
    if n**m > DEFAULT_SEARCH_BUDGET:
        raise BudgetExceededError(
            f"search space {n}^{m} exceeds the budget of {DEFAULT_SEARCH_BUDGET} sequences "
            f"(0 evaluated); raise the budget to force the search",
            estimated=n**m,
            budget=DEFAULT_SEARCH_BUDGET,
        )
    score_row = g.score_row(m)
    best: tuple[Fraction, tuple[int, ...]] | None = None
    for turns in canonical_turn_sequences(m, n):
        positions: dict[int, set[int]] = {}
        for step, t in enumerate(turns, start=1):
            positions.setdefault(t, set()).add(step)
        utilities = [
            _expected_score_for_positions(m, score_row, frozenset(positions.get(i, ())))
            for i in range(1, n + 1)
        ]
        value = aggregator.apply(utilities)
        if best is None or value > best[0]:
            best = (value, turns)
    assert best is not None
    return SequentialPolicy(best[1]), best[0]
