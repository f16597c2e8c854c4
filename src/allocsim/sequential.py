"""Sequential picking protocol: turn sequences, their expected utilities and
the exhaustive optimal-sequence search.

A turn sequence is played and averaged over profiles as a parallel policy
with one reporter per stage (``FromSequential`` in :mod:`allocsim.parallel`,
served by :mod:`allocsim.welfare`).  What stays here has no parallel
counterpart, save the law of one agent's run, which serves every per-agent
profile average and worst case of a turn sequence and of all-reporting (and
of ``loser``, the average expected and least guaranteed utility):
from one agent's point of view every other agent demands a uniformly random
remaining object, while the agent demands its best remaining one.  Under a
sequence the law is a function of the steps at which the agent picks, which
makes exhaustive policy search affordable: the search tabulates the law's
sum for every set of picking steps, once per call, and reads each candidate's
agents off that table.  The law counts in integers at the scale ``m! *
denom`` of :meth:`ScoringSpec.integer_row`; a search folds and compares its
candidates at that scale and divides once, for the winner.
The test suite pins the law to a ``Fraction`` DP and, exactly, to a
per-profile pass over the same profile stream (``profile_aggregates``).

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
from itertools import compress, zip_longest
from operator import mul, ne
from typing import Callable, Iterable, Iterator, Sequence

from .budget import within_budget
from .errors import PolicyViolationError
from .model import ScoringSpec

__all__ = [
    "Aggregator",
    "SequentialPolicy",
    "optimal_sequential",
    "canonical_turn_sequences",
    "canonicalize_turns",
]

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
# Expected utilities: the law of one agent's run.  The agent draws its ranking
# lazily, from the top: to demand its best remaining object it reveals its
# next positions, each a uniform pick among the objects it has not revealed.
# Every revealed object is gone (demanded, or gone when revealed), so the r
# remaining objects lie among its m - p unrevealed ones, and by deferred
# decisions its demand is uniform over them: at position q = p + j + 1, in
# r * T!/(T - j)! ways, when it first reveals j of its T = m - p - r
# unrevealed gone objects.  Every other agent's demand is uniform over the r
# remaining objects too.  Only how many objects remain matters, so a state
# is (r, p).


def _surjections(a: int, b: int) -> int:
    """Ways to map a items onto b boxes leaving no box empty."""
    return sum((-1) ** i * math.comb(b, i) * (b - i) ** a for i in range(b + 1))


def _share(c: int, scale: int, z: str) -> int:
    """``scale`` (divisible by 1..c) times an agent's share of an object that
    c agents demand at once: 1/c in expectation over the lottery (z = "u"),
    and all of it only when it demands the object alone (z = "e")."""
    return scale // c if z == "u" else scale * (c == 1)


@lru_cache(maxsize=None)
def _stage_law(r: int, others: int) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """The stage at which the agent and ``others`` other agents each demand
    one of ``r`` remaining objects: for each number k of distinct objects
    demanded, ``(k, ways, u, e, least_u, least_e)``, the ways out of
    ``r ** others``, and the agent's :func:`_share` at the scale
    ``lcm(1..others + 1)`` on each lottery axis, summed over those ways and
    the least of them."""
    scale = math.lcm(*range(1, others + 2))
    law = []
    for k in range(1, min(r, others + 1) + 1):
        # c agents on the agent's object, the rest on k - 1 other objects
        ways = {
            c: w
            for c in range(1, others + 2)
            if (w := math.comb(others, c - 1) * math.comb(r - 1, k - 1) * _surjections(others + 1 - c, k - 1))
        }
        law.append((
            k,
            sum(ways.values()),
            *(sum(w * _share(c, scale, z) for c, w in ways.items()) for z in "ue"),
            *(min(_share(c, scale, z) for c in ways) for z in "ue"),
        ))
    return tuple(law)


@lru_cache(maxsize=None)
def _reveals(m: int) -> tuple[tuple[int, ...], ...]:
    """``[t][j]``: the ways to reveal first j of t unrevealed gone objects."""
    return tuple(tuple(math.perm(t, j) for j in range(t + 1)) for t in range(m))


def _agent_law(
    m: int, int_row: tuple[int, ...], others: int, picks: frozenset[int] | None
) -> tuple[int, int, int, int, int]:
    """``(weight, sum_u, sum_e, low_u, low_e)`` of one agent's runs on
    ``int_row``: their weight, the weighted sums of its expected (u) and
    guaranteed (e) totals, times ``lcm(1..others + 1)``, and the least of
    each, at the scale of a profile pass over the rankings that its run
    draws.

    Under all-reporting (``picks`` is None) ``others`` other agents demand at
    each stage: weights start at ``(m!) ** others`` and each stage divides
    them by ``r ** others``, exactly, since the r of a run are distinct
    members of 1..m.  Under a turn sequence (``others`` is 0) the agent
    demands at the steps in ``picks``, and each other step removes one of
    the r objects without changing a weight.  The outcomes of a stage with
    the same k lead to one state (r - k, q); entries meeting in a state add
    weights and sums and keep the least totals.  A run's rest of m - p
    unrevealed positions orders in ``(m - p)!`` ways."""
    reveals = _reveals(m)
    layers: dict[int, dict[int, list[int]]] = {m: {0: [math.factorial(m) ** others, 0, 0, 0, 0]}}
    for r in range(m, 0, -1):
        layer = layers.pop(r)
        if picks is not None and m - r + 1 not in picks:
            layers[r - 1] = layer
            continue
        divisor = r**others
        stage = [(layers.setdefault(r - k, {}), *law) for k, *law in _stage_law(r, others)]
        for p, (weight, sum_u, sum_e, low_u, low_e) in layer.items():
            for q, ways in enumerate(reveals[m - p - r], start=p + 1):
                ways *= r  # its demand is any of the r remaining objects
                score = int_row[q]
                paid = weight * ways * score
                for after, times, u, e, least_u, least_e in stage:
                    times *= ways
                    w = weight * times // divisor
                    su = (sum_u * times + paid * u) // divisor
                    se = (sum_e * times + paid * e) // divisor
                    lu = low_u + least_u * score
                    le = low_e + least_e * score
                    entry = after.get(q)
                    if entry is None:
                        after[q] = [w, su, se, lu, le]
                    else:
                        entry[0] += w
                        entry[1] += su
                        entry[2] += se
                        if lu < entry[3]:
                            entry[3] = lu
                        if le < entry[4]:
                            entry[4] = le
    ended = [(math.factorial(m - p), entry) for p, entry in layers[0].items()]
    sums = (sum(rest * entry[i] for rest, entry in ended) for i in range(3))
    return (*sums, *(min(entry[i] for _, entry in ended) for i in (3, 4)))


def _law_transitions(m: int, n: int) -> int:
    """The transitions of :func:`_agent_law` under all-reporting with n
    agents, one per reveal and k at each state (r, p) it expands: those with
    ``ceil((m - r) / n) <= p <= m - r``, since p stages remove 1 to n objects
    each and every revealed position is a gone object."""
    return sum((m - p - r + 1) * min(n, r) for r in range(1, m + 1) for p in range(-(-(m - r) // n), m - r + 1))


def _sequence_transitions(turns: Sequence[int]) -> int:
    """The transitions of :func:`_agent_law` over every agent of a turn
    sequence, one per reveal at each state it expands: at an agent's pick at
    step s, from each p between its picks so far and the step of its last
    pick (0 before its first), s - p reveals."""
    total, last = 0, {}  # last: agent -> (picks so far, step of its last pick)
    for step, t in enumerate(turns, start=1):
        picks, before = last.get(t, (0, 0))
        total += sum(step - p for p in range(picks, before + 1))
        last[t] = (picks + 1, step)
    return total


def _loser_moves(r: int, a: int, k: int, n: int) -> Iterator[tuple[int, bool, int, int]]:
    """The outcomes of a stage of r objects under ``loser`` (only the last
    stage's lottery losers report, everyone after a stage without losers),
    with the agent reporting (a = 1) or not and k others: ``(d, lost, next a,
    next k)``, when d objects go; the agent can lose only when d <= k."""
    for d in range(1, min(r, k + a) + 1):
        for lost in (False, True) if a and d <= k else (False,):
            losers = a + k - d  # they report next, everyone when there are none
            yield d, lost, *((int(lost), losers - lost) if losers else (1, n - 1))


@lru_cache(maxsize=None)
def _loser_stage(r: int, a: int, k: int, n: int) -> tuple[int, tuple[tuple[int, int, int, bool, int], ...]]:
    """A divisor and :func:`_loser_moves` as ``(d, next a, next k, won,
    ways)``: under a = 1 :func:`_stage_law`'s counts out of ``r ** k *
    lcm(1..k + 1)``, split over the lottery, a win's being the u share; under
    a = 0 the ways of k demanders to meet d of the r objects, out of ``r ** k``."""
    if a:
        scale = math.lcm(*range(1, k + 2))
        counts = {d: (u, ways * scale - u) for d, ways, u, *_ in _stage_law(r, k)}
    else:
        scale, counts = 1, {d: (math.comb(r, d) * _surjections(k, d),) for d in range(1, min(r, k) + 1)}
    moves = _loser_moves(r, a, k, n)
    return r**k * scale, tuple((d, *after, bool(a) and not lost, counts[d][lost]) for d, lost, *after in moves)


def _loser_transitions(m: int, n: int) -> int:
    """The transitions of :func:`_loser_law`, one per entry it writes, by a
    weight-free walk over (r, a, k), each with the p that reach it as a
    bitmask: per reveal and outcome where the agent reports, else per outcome."""
    layers, total = {m: {(1, n - 1): 1}}, 0
    for r in range(m, 0, -1):
        for (a, k), ps in layers.pop(r, {}).items():
            if a:  # from each p the agent demands at any q from p + 1 to m - r + 1
                lo = (ps & -ps).bit_length() - 1
                reveals = sum(m - r + 1 - p for p in range(lo, m - r + 1) if ps >> p & 1)
                ps = (1 << (m - r + 2)) - (1 << (lo + 1))
            else:
                reveals = ps.bit_count()
            for d, _, *after in _loser_moves(r, a, k, n):
                total += reveals
                layer = layers.setdefault(r - d, {})
                layer[tuple(after)] = layer.get(tuple(after), 0) | ps
    return total


def _loser_law(m: int, int_row: tuple[int, ...], n: int) -> tuple[int, int, int]:
    """``(weight, sum_u, low_e)`` of one agent's runs on ``int_row`` under
    ``loser``, a state being (r, p, a, k): their weight, the weighted sum of
    its totals and the least total, times ``lcm(1..n) ** m``, at the scale
    of a profile pass.  Weights start at ``(m!) ** (n - 1) * lcm(1..n) **
    m``, which a run's divisors divide: every other agent reports at
    distinct r, and the agent m times at most, among n demanders at most."""
    reveals, lottery = _reveals(m), math.lcm(*range(1, n + 1)) ** m
    layers: dict[int, dict] = {m: {(0, 1, n - 1): [math.factorial(m) ** (n - 1) * lottery, 0, 0]}}
    for r in range(m, 0, -1):
        for (p, a, k), (weight, total, low) in layers.pop(r, {}).items():
            divisor, moves = _loser_stage(r, a, k, n)
            draws = ((q, r * ways) for q, ways in enumerate(reveals[m - p - r], start=p + 1)) if a else ((p, 1),)
            for q, ways in draws:
                for d, *after, won, times in moves:
                    times *= ways
                    banked = int_row[q] if won else 0
                    entry = layers.setdefault(r - d, {}).setdefault((q, *after), [0, 0, low + banked])
                    entry[0] += weight * times // divisor
                    entry[1] += (total + weight * banked) * times // divisor
                    entry[2] = min(entry[2], low + banked)
    ended = [(math.factorial(m - p), entry) for (p, *_), entry in layers[0].items()]
    weight, total = (sum(rest * entry[i] for rest, entry in ended) for i in (0, 1))
    return weight // lottery, total, min(entry[2] for _, entry in ended) * lottery


def _agent_laws(turns: Sequence[int] | None, m: int, n: int, int_row: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every agent's :func:`_agent_law`: under all-reporting (``turns`` is
    None) one law for all n agents alike, under a turn sequence whose fit the
    caller has checked the law of each agent's picking steps."""
    if turns is None:
        return (_agent_law(m, int_row, n - 1, None),) * n
    picks: list[set[int]] = [set() for _ in range(n)]
    for step, t in enumerate(turns, start=1):
        picks[t - 1].add(step)
    return tuple(_agent_law(m, int_row, 0, frozenset(p)) for p in picks)


# ---------------------------------------------------------------------------
# Optimal policy search.  Under a turn sequence an agent's law is a function
# of its set S of picking steps alone, so the search tabulates the agent's sum
# for every S once and reads each candidate's agents off that table.


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
    n agents, in lexicographic order (restricted growth strings).

    Each is a head followed by a tail of a few turns.  The tails that may
    follow a head are those that may follow its highest agent; each such list
    is built once, and each sequence costs one tuple concatenation."""

    def extend(high: int, length: int) -> list[tuple[tuple[int, ...], int]]:
        """Every ``length`` turns that may follow turns whose highest agent
        is ``high`` (0 for none), in lexicographic order, each with the
        highest agent after it."""
        found: list[tuple[tuple[int, ...], int]] = [((), high)]
        for _ in range(length):
            found = [((*turns, t), max(top, t)) for turns, top in found for t in range(1, min(top + 1, n) + 1)]
        return found

    tail = min(m, max(1, 12 // max(n, 2).bit_length()))  # at most about 4,096 tails per highest agent
    tails: dict[int, list[tuple[int, ...]]] = {}
    for head, high in extend(0, m - tail):
        if high not in tails:
            tails[high] = [turns for turns, _ in extend(high, tail)]
        yield from map(head.__add__, tails[high])


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


def _pick_set_sums(m: int, int_row: tuple[int, ...]) -> list[int]:
    """``sums[S]``: the ``sum_u`` (equal to ``sum_e``) of :func:`_agent_law`
    for an agent that picks at the steps in S of a turn sequence, S a bitmask
    whose bit s - 1 stands for step s.

    A step where the agent does not pick leaves its law unchanged, so the
    layer after its picks up to step s is shared by every S with those picks:
    a depth-first walk over the steps makes one layer update per nonempty S,
    2**m - 1 in all.  After c picks, the last at step b, the layer holds
    every p from c to b.  A pick at step s demands from p at any q in p + 1..s,
    in ``r * perm(s - 1 - p, q - 1 - p)`` ways (:func:`_reveals`), r = m - s + 1
    objects being left; so the ways summed over p < q follow q by Horner's rule.
    The factor r is common to a layer, and is kept aside as a product over
    the picks."""
    ends = [math.factorial(m - p) for p in range(m + 1)]
    sums = [0] * (1 << m)

    def walk(first: int, low: int, weights: list[int], totals: list[int], picked: int, factor: int) -> None:
        # The layer after the picks in `picked`, the last at step first - 1,
        # over `factor`: p = low + i has weight weights[i] and total totals[i].
        for s in range(first, m + 1):
            next_weights, next_totals = [], []
            weight = total = 0  # summed over p < q, each times its ways to reach q (over r)
            for q, w, t in zip_longest(range(low + 1, s + 1), weights, totals, fillvalue=0):
                stay = s - q + 1
                weight = weight * stay + w
                total = total * stay + t
                next_weights.append(weight)
                next_totals.append(total + int_row[q] * weight)
            mask, scale = picked | 1 << (s - 1), factor * (m - s + 1)
            sums[mask] = scale * sum(map(mul, ends[low + 1 : s + 1], next_totals))
            if s < m:
                walk(s + 1, low + 1, next_weights, next_totals, mask, scale)

    walk(1, 0, [1], [0], 0, 1)
    return sums


def _table_transitions(m: int) -> int:
    """The transitions of the law that :func:`_pick_set_sums` tabulates, as
    :func:`_sequence_transitions` counts them: over every nonempty S, those
    of its last pick at step s, s - p from each p of the layer before it.
    Summed over S, ``((m**2 + 3m - 16) * 2**m + 4 * (m**2 + 3m + 4)) / 8``."""
    return ((m * m + 3 * m - 16) * 2**m + 4 * (m * m + 3 * m + 4)) // 8


def _canonical_count(m: int, n: int) -> int:
    """How many sequences :func:`canonical_turn_sequences` yields: the
    partitions of m steps into at most n blocks, the sum of the Stirling
    numbers S(m, k) for k <= n."""
    blocks = min(m, n)
    counts = [1] + [0] * blocks  # S(0, k)
    for _ in range(m):
        counts = [0] + [k * counts[k] + counts[k - 1] for k in range(1, blocks + 1)]
    return sum(counts)


def optimal_sequential(
    m: int,
    n: int,
    g: ScoringSpec,
    aggregator: Aggregator,
    budget_units: int | None = None,
) -> tuple[SequentialPolicy, Fraction]:
    """Exhaustive argmax of expected welfare over all ``n**m`` turn sequences.

    Welfare is invariant under renaming agents, so only canonical sequences
    are evaluated; ties break to the lexicographically smallest sequence,
    which is exactly what a full scan with the same tie-break would return.

    A candidate's value folds its agents' entries of :func:`_pick_set_sums`,
    each agent's pick set kept as a bitmask that changes only at the steps
    where the candidate differs from the one before.  One work unit is one
    transition of the table's law or one candidate, all counted before the
    table is built (``budget_units`` None: the default budget).  With one
    agent there is one candidate, and one law of m transitions.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must both be at least 1")
    transitions = _table_transitions(m) if n > 1 else m
    within_budget(transitions, budget_units, "the pi* search needs at least")
    within_budget(transitions + _canonical_count(m, n), budget_units, "the pi* search needs")
    int_row, denom = g.integer_row(m)
    scale = math.factorial(m) * denom
    if n == 1:
        return SequentialPolicy((1,) * m), Fraction(_agent_law(m, int_row, 0, None)[1], scale)
    read = _pick_set_sums(m, int_row).__getitem__
    masks = [(1 << m) - 1] + [0] * (n - 1)  # agent t picks at the steps of masks[t - 1]
    previous, steps, bits = (1,) * m, range(m), [1 << s for s in range(m)]

    def value_of(turns: tuple[int, ...]) -> int:
        nonlocal previous
        for s in compress(steps, map(ne, previous, turns)):
            masks[previous[s] - 1] ^= bits[s]
            masks[turns[s] - 1] ^= bits[s]
        previous = turns
        return aggregator.apply(map(read, masks))

    pi, best = _best_sequence(canonical_turn_sequences(m, n), value_of)
    return pi, Fraction(best, scale)
