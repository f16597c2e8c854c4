"""Sequential picking protocol: turn sequences, their expected utilities and
the exhaustive optimal-sequence search.

A turn sequence is played and averaged over profiles as a parallel policy
with one reporter per stage (``FromSequential`` in :mod:`allocsim.parallel`,
served by :mod:`allocsim.welfare`).  What stays here has no parallel
counterpart.  Expected utilities come from a per-rank dynamic
program over the steps at which an agent picks: from one agent's point of
view every pick by another agent removes a uniformly random remaining object,
while its own picks remove its best remaining one.  This makes the
expectation a function of the set of steps at which the agent picks, and is
what makes exhaustive policy search affordable.  The DP counts in integers at
the scale ``m! * denom`` of :meth:`ScoringSpec.integer_row`; a search folds
and compares its candidates at that scale and divides once, for the winner.
The test suite pins the DP to its ``Fraction`` form and, exactly, to an
independent per-profile pass over the same profile stream
(``profile_aggregates`` of the turn sequence as a parallel policy).

A turn sequence fits m objects and n agents when it has m turns and names no
agent above n.  Every route that plays a given sequence refuses a misfit
through :meth:`SequentialPolicy.check_fit`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BudgetExceededError, PolicyViolationError
from .model import ScoringSpec

__all__ = [
    "Aggregator",
    "SequentialPolicy",
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

    def apply(self, values: Iterable[int | Fraction]) -> int | Fraction:
        """The fold of one or more values; integers fold to an integer."""
        return sum(values) if self is Aggregator.UTILITARIAN else min(values)


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


# ---------------------------------------------------------------------------
# Expected utilities


@lru_cache(maxsize=8192)  # shared by every search of a process; tables 1-4 fill about 4,000
def _expected_score_for_positions(m: int, int_row: tuple[int, ...], picks: frozenset[int]) -> int:
    """``m!`` times the expected total score, on the integer row ``int_row``,
    of an agent picking at the given steps.

    Marginalizing over everyone else's uniform, independent rankings, each
    foreign pick removes a uniformly random remaining object of this agent's
    ranking, while her own picks remove the best remaining one.  For each rank
    position p, the DP state is the number of removed positions above p, and
    its weight counts the ways to reach it: a step with r objects left
    multiplies a weight by how many of its r choices lead on (r for an own
    pick), so weights before it sum to ``m!/r!``; an own pick of p banks
    ``int_row[p] * weight * r!``.  Weight where p was removed is dropped.
    """
    total = 0
    for p in range(1, m + 1):
        states = {0: 1}
        for k in range(1, m + 1):
            r = m - k + 1
            new: dict[int, int] = {}
            if k in picks:
                for above, w in states.items():
                    if above == p - 1:
                        total += int_row[p] * w * math.factorial(r)
                    else:
                        new[above + 1] = new.get(above + 1, 0) + w * r
            else:
                for above, w in states.items():
                    low = (p - 1) - above
                    if low:
                        new[above + 1] = new.get(above + 1, 0) + w * low
                    survive = r - low - 1
                    if survive:
                        new[above] = new.get(above, 0) + w * survive
            states = new
            if not states:
                break
    return total


def _expected_utilities(turns: Sequence[int], n: int, int_row: tuple[int, ...]) -> tuple[int, ...]:
    """``m!`` times every agent's expected utility on ``int_row``, under a
    turn sequence whose fit the caller has checked."""
    picks: list[set[int]] = [set() for _ in range(n)]
    for step, t in enumerate(turns, start=1):
        picks[t - 1].add(step)
    return tuple(_expected_score_for_positions(len(turns), int_row, frozenset(p)) for p in picks)


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


def _best_sequence(
    candidates: Iterable[tuple[int, ...]], value_of: Callable[[tuple[int, ...]], int | Fraction]
) -> tuple[SequentialPolicy, int | Fraction]:
    """The candidate of highest value, with that value.  A tie keeps the
    earlier candidate, so candidates in lexicographic order break ties to the
    smallest sequence."""
    best: tuple[Fraction, tuple[int, ...]] | None = None
    for turns in candidates:
        value = value_of(turns)
        if best is None or value > best[0]:
            best = (value, turns)
    assert best is not None
    return SequentialPolicy(best[1]), best[0]


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
            f"search space {n}^{m} exceeds the fixed cap of {DEFAULT_SEARCH_BUDGET} turn sequences, "
            f"which no budget raises",
            estimated=n**m,
            budget=DEFAULT_SEARCH_BUDGET,
        )
    int_row, denom = g.integer_row(m)
    pi, best = _best_sequence(
        canonical_turn_sequences(m, n),
        lambda turns: aggregator.apply(_expected_utilities(turns, n, int_row)),
    )
    return pi, Fraction(best, math.factorial(m) * denom)
