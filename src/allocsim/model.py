"""Core domain model: rankings, profiles, scoring functions, and exhaustive
profile enumeration.

Objects are the integers ``1..m`` and agents the integers ``1..n`` throughout
the package.  All values derived from scores are exact :class:`fractions.Fraction`
(or plain integers); nothing is rounded before presentation.

Profile enumeration stands for the space of ``(m!)**n`` preference profiles.
Because every quantity computed downstream depends on rankings only through
ranks, relabeling the objects by agent 1's ranking is a sound symmetry
reduction: the stream fixes agent 1 to the identity ranking, walks the other
agents' rankings in lexicographic order and weights every item by ``m!``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ProfileParseError

__all__ = [
    "Ranking",
    "Profile",
    "ScoringSpec",
    "ProfileStream",
    "enumerate_profiles",
    "identity_ranking",
    "parse_profile_text",
    "parse_scoring_text",
]


@dataclass(frozen=True)
class Ranking:
    """A strict total order over objects ``1..m``, best first.

    >>> r = Ranking((4, 2, 5, 1, 3))
    >>> r.rank_of(2)
    2
    >>> r.best_of([3, 5])
    5
    """

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(self.order)
        object.__setattr__(self, "order", order)
        m = len(order)
        if m == 0:
            raise ValueError("a ranking must order at least one object")
        if sorted(order) != list(range(1, m + 1)):
            raise ValueError(f"ranking {order!r} is not a permutation of 1..{m}")
        rank = [0] * (m + 1)
        for pos, o in enumerate(order, start=1):
            rank[o] = pos
        object.__setattr__(self, "_rank", tuple(rank))

    @property
    def m(self) -> int:
        return len(self.order)

    def rank_of(self, o: int) -> int:
        """Position of object ``o`` in this ranking (1 = most preferred)."""
        if not 1 <= o <= self.m:
            raise ValueError(f"object {o} out of range 1..{self.m}")
        return self._rank[o]

    def prefers(self, a: int, b: int) -> bool:
        return self.rank_of(a) < self.rank_of(b)

    def best_of(self, objects: Iterable[int]) -> int:
        """Most preferred member of a nonempty collection of objects."""
        best = None
        for o in objects:
            if best is None or self._rank[o] < self._rank[best]:
                best = o
        if best is None:
            raise ValueError("best_of() of an empty collection")
        return best


def identity_ranking(m: int) -> Ranking:
    return Ranking(tuple(range(1, m + 1)))


@dataclass(frozen=True)
class Profile:
    """One ranking per agent; agent ``i`` is ``rankings[i-1]``."""

    rankings: tuple[Ranking, ...]

    def __post_init__(self):
        rankings = tuple(self.rankings)
        object.__setattr__(self, "rankings", rankings)
        if not rankings:
            raise ValueError("a profile needs at least one agent")
        m = rankings[0].m
        if any(r.m != m for r in rankings):
            raise ValueError("all rankings in a profile must cover the same objects")

    @property
    def m(self) -> int:
        return self.rankings[0].m

    @property
    def n(self) -> int:
        return len(self.rankings)

    def order_rows(self) -> tuple[tuple[int, ...], ...]:
        """Raw best-to-worst object tuples, one per agent."""
        return tuple(r.order for r in self.rankings)

    def rank_rows(self) -> tuple[tuple[int, ...], ...]:
        """Raw rank lookup tuples (index by object id; slot 0 unused)."""
        return tuple(r._rank for r in self.rankings)


@dataclass(frozen=True)
class ScoringSpec:
    """A positive, non-increasing map from rank to score.

    ``kind`` is one of ``borda`` (m-k+1), ``lex`` (2**(m-k)) or ``custom``
    (explicit table, best rank first).  Borda and lexicographic specs apply to
    any ``m``; a custom table fixes ``m = len(table)``.
    """

    kind: str
    table: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("borda", "lex", "custom"):
            raise ValueError(f"unknown scoring kind {self.kind!r}")
        if self.kind == "custom":
            if not self.table:
                raise ValueError("custom scoring requires a non-empty table")
            table = tuple(Fraction(v) for v in self.table)
            object.__setattr__(self, "table", table)
            if any(v <= 0 for v in table):
                raise ValueError("custom scores must be strictly positive")
            if any(a < b for a, b in zip(table, table[1:])):
                raise ValueError("custom scores must be non-increasing in rank")
        elif self.table is not None:
            raise ValueError(f"{self.kind} scoring takes no table")

    @classmethod
    def borda(cls) -> "ScoringSpec":
        return cls("borda")

    @classmethod
    def lexicographic(cls) -> "ScoringSpec":
        return cls("lex")

    @classmethod
    def custom(cls, values: Sequence) -> "ScoringSpec":
        return cls("custom", tuple(Fraction(v) for v in values))

    def score(self, k: int, m: int) -> Fraction:
        """Score of rank ``k`` among ``m`` objects."""
        if not 1 <= k <= m:
            raise ValueError(f"rank {k} out of range 1..{m}")
        if self.kind == "borda":
            return Fraction(m - k + 1)
        if self.kind == "lex":
            return Fraction(2 ** (m - k))
        if len(self.table) != m:
            raise ValueError(f"custom table has {len(self.table)} entries, expected {m}")
        return self.table[k - 1]

    def score_row(self, m: int) -> tuple[Fraction, ...]:
        """Scores indexed by rank, with a zero placeholder at index 0."""
        return (Fraction(0),) + tuple(self.score(k, m) for k in range(1, m + 1))

    def integer_row(self, m: int) -> tuple[tuple[int, ...], int]:
        """Scores as integers together with the common denominator that was
        cleared.  Borda and lexicographic scores are already integral."""
        row = self.score_row(m)
        denom = math.lcm(*(v.denominator for v in row[1:]))
        return tuple(int(v * denom) for v in row), denom

    def describe(self) -> str:
        if self.kind == "custom":
            return "custom(" + " ".join(str(v) for v in self.table) + ")"
        return self.kind


# ---------------------------------------------------------------------------
# Profile enumeration


@dataclass(frozen=True)
class ProfileStream:
    """A lazily enumerated, weight-annotated portion of the reduced profile
    space: agent 1's ranking is the identity, and every item weighs ``m!``.

    ``lo``/``hi`` bound the index of agent 2's ranking, which is how
    :meth:`partition` splits the stream into independently iterable parts.
    Summing any per-profile quantity times its weight over any partitioning
    gives the same total; ``total_weight`` is ``(m!)**n`` for the whole
    stream.  A stream is plain data, so a worker process can take a chunk as
    is, and no ranking table outlives a walk.
    """

    m: int
    n: int
    lo: int = 0
    hi: int | None = None

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must both be at least 1")
        if self.hi is None:
            object.__setattr__(self, "hi", math.factorial(self.m))
        if not 0 <= self.lo <= self.hi <= math.factorial(self.m):
            raise ValueError("invalid stream bounds")

    @property
    def item_weight(self) -> int:
        return math.factorial(self.m)

    @property
    def count(self) -> int:
        """Number of items in this (sub)stream."""
        if self.n == 1:  # one item, with no ranking to window
            return 1 if self.lo == 0 else 0
        return (self.hi - self.lo) * math.factorial(self.m) ** (self.n - 2)

    @property
    def total_weight(self) -> int:
        return self.count * self.item_weight

    def partition(self, parts: int, lead_items: Callable[[int], int] | None = None) -> list["ProfileStream"]:
        """Split into at most ``parts`` disjoint streams covering the same
        items, of about equal size: the k-th cut follows the first of agent
        2's rankings at which the items walked so far reach k / ``parts`` of
        the total, so no part exceeds that share by more than one ranking's
        items.  ``lead_items(i)`` is the number of items a walk yields for
        agent 2's ranking ``i``; by default every ranking yields the same."""
        if parts < 1:
            raise ValueError("parts must be positive")
        if self.n == 1:
            return [self]
        parts = min(parts, self.hi - self.lo) or 1
        sizes = (lead_items(i) if lead_items else 1 for i in range(self.lo, self.hi))
        walked = list(itertools.accumulate(sizes))
        total = walked[-1] if walked else 0
        cuts = [self.lo + bisect.bisect_left(walked, -(-total * k // parts)) + 1 for k in range(1, parts)]
        bounds = [self.lo, *cuts, self.hi]
        return [ProfileStream(self.m, self.n, lo=a, hi=b) for a, b in zip(bounds, bounds[1:]) if b > a]

    def iter_order_rows(self) -> Iterator[tuple[tuple[tuple[int, ...], ...], int]]:
        """Yield ``(order_rows, weight)`` pairs without building Profile objects.

        Agent 2's rankings ``lo..hi`` are sliced from
        ``itertools.permutations``; every later agent runs over one tuple of
        all ``m!`` rankings, built for this walk and dropped with it.
        """
        w = self.item_weight
        objects = range(1, self.m + 1)
        fixed = (tuple(objects),)
        if self.n == 1:
            if self.count:
                yield fixed, w
            return
        leading = itertools.islice(itertools.permutations(objects), self.lo, self.hi)
        if self.n == 2:
            for lead in leading:
                yield fixed + (lead,), w
            return
        rest = tuple(itertools.permutations(objects))
        for varying in itertools.product(leading, *[rest] * (self.n - 2)):
            yield fixed + varying, w

    def __iter__(self) -> Iterator[tuple[Profile, int]]:
        for orders, w in self.iter_order_rows():
            yield Profile(tuple(Ranking(o) for o in orders)), w


def enumerate_profiles(m: int, n: int) -> ProfileStream:
    """Stream one profile per object relabeling class, agent 1's ranking the
    identity, each with its weight ``m!``."""
    return ProfileStream(m, n)


# ---------------------------------------------------------------------------
# Text formats


def parse_profile_text(text: str) -> Profile:
    """Parse the profile file format: one line per agent, each line the agent's
    object indices from best to worst."""
    rankings = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            values = tuple(int(tok) for tok in stripped.split())
        except ValueError:
            raise ProfileParseError("expected space-separated object indices", lineno)
        try:
            rankings.append(Ranking(values))
        except ValueError as exc:
            raise ProfileParseError(str(exc), lineno)
    if not rankings:
        raise ProfileParseError("no rankings found in profile input")
    return Profile(tuple(rankings))


def parse_scoring_text(text: str) -> ScoringSpec:
    """Parse a custom scoring file: space-separated positive rationals, best
    rank first."""
    tokens = text.split()
    if not tokens:
        raise ProfileParseError("no scores found in scoring input")
    values = []
    for tok in tokens:
        try:
            values.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise ProfileParseError(f"invalid score {tok!r}")
    try:
        return ScoringSpec.custom(values)
    except ValueError as exc:
        raise ProfileParseError(str(exc))
