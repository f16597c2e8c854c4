"""Social-welfare criteria over the full profile space.

A criterion aggregates along three axes, each either utilitarian (``u``,
mean/sum) or egalitarian (``e``, min): over agents (x), over profiles (y) and
over lottery outcomes (z).  ``sw(x,y,z)`` composes them outside-in.  A second,
non-compositional reading used by the expected-min comparison suite averages
the per-profile minimum across agents: ``E_R[min_i u_i(z, R)]``.

Everything here is exact.  One function, :func:`_record_for`, chooses each
value's producer from its input (policy and criterion), whichever caller
asks:

* every per-agent value of ``all`` or of a turn sequence (y = u or y = e,
  either z), and of ``loser`` with y = z, comes from the integer law of one
  agent's run (:func:`symmetric_aggregates`, over ``_agent_law`` or
  ``_loser_law`` of :mod:`allocsim.sequential`), in which the agent draws
  its ranking lazily from the top, without enumerating profiles;
* ``em-u`` and ``em-e`` of ``all`` or of a turn sequence come from one
  integer DP over the joint law of a run (:func:`joint_law_aggregates`), in
  which every agent draws her ranking lazily from the top;
* every other value of ``loser`` and custom policies is one pass over a
  profile stream (:func:`profile_aggregates`) with the memoized integer
  kernel ``policy_values_scaled`` of :mod:`allocsim.parallel`; a single
  profile (:func:`profile_utilities`) is a stream of one item, through
  ``all_reporting_values_scaled`` for ``all`` and
  ``sequential_values_scaled`` for a turn sequence.  The pass takes every
  policy, as the oracle the tests hold the laws to.  A profile-space pass
  streams one representative per object relabeling, and for ``all`` and
  ``loser``, which treat agents alike, evaluates one per relabeling of
  agents 2..n.

A pass yields one :class:`ProfileAggregates` record: for each lottery axis,
every agent's weighted utility sum and minimum over profiles and the weighted
sum of the per-profile minimum, all integers over one scale, divided only when
a criterion reads them.  One accumulator, :func:`_accumulate`, builds it.  A
turn sequence has one run, so its pass totals one axis and reports it for
both.  The joint law yields the same integers, for the lottery axis asked, and
the agent law the same sums and minima, for both axes (``loser``: u sums, e
minima); reading a statistic a record does not hold raises ``ValueError``.
Chunks' records merge by summing in order.  With ``jobs > 1`` a large enough
pass is chunked across one worker pool that lives as long as that pass, its
chunks holding about equal numbers of profiles; the chunk reduction is
order-fixed and exact, so results are bit-identical for any worker count.
The expected-min search over turn sequences scores every candidate on the
joint law of its run, replaying only the turns after the prefix it shares
with the candidate before; it runs in-process and starts no pool.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .budget import (  # callers still read the budget's names from this module
    BUDGET_ENV_VAR,
    DEFAULT_BUDGET_SECS,
    UNITS_PER_SECOND,
    resolve_budget_units,
    within_budget,
)
from .errors import BudgetExceededError
from .model import Profile, ScoringSpec, enumerate_profiles
from .parallel import (
    AllReporting,
    FromSequential,
    LoserReporting,
    ParallelPolicy,
    all_reporting_values_scaled,
    build_structure,  # unused here; bench/tracer.py wraps it in this module
    guaranteed_utilities,  # unused here; bench/tracer.py wraps it in this module
    lottery_expected_utilities,  # unused here; bench/tracer.py wraps it in this module
    policy_values_scaled,
    sequential_values_scaled,
)
from .sequential import (
    Aggregator,
    SequentialPolicy,
    _agent_laws,
    _best_sequence,
    _law_transitions,
    _loser_law,
    _loser_transitions,
    _reveals,
    _sequence_transitions,
    _share,
    canonical_turn_sequences,
    optimal_sequential,
)

__all__ = [
    "WelfareCriterion",
    "parse_criterion",
    "agent_value",
    "expected_min_welfare",
    "evaluate_criterion",
    "profile_utilities",
    "TableRow",
    "TABLE_SPECS",
    "reproduce_table",
    "optimal_sequential_expected_min",
    "resolve_budget_units",
    "worker_count",
    "DEFAULT_BUDGET_SECS",
    "UNITS_PER_SECOND",
]

@dataclass(frozen=True)
class WelfareCriterion:
    """Either a compositional ``(x, y, z)`` triple or the expected-min
    criterion for a given lottery axis ``z``."""

    mode: str  # "comp" | "emin"
    x: str | None
    y: str | None
    z: str

    def __post_init__(self):
        if self.mode not in ("comp", "emin"):
            raise ValueError(f"unknown criterion mode {self.mode!r}")
        axes = (self.x, self.y, self.z) if self.mode == "comp" else (self.z,)
        if any(a not in ("u", "e") for a in axes):
            raise ValueError("criterion axes must be 'u' or 'e'")

    @classmethod
    def compositional(cls, x: str, y: str, z: str) -> "WelfareCriterion":
        return cls("comp", x, y, z)

    @classmethod
    def expected_min(cls, z: str) -> "WelfareCriterion":
        return cls("emin", None, None, z)

    def literal(self) -> str:
        if self.mode == "comp":
            return f"{self.x}{self.y}{self.z}"
        return f"em-{self.z}"


def parse_criterion(text: str) -> WelfareCriterion:
    """Parse ``uuu``-style triples or ``em-u`` / ``em-e``."""
    text = text.strip().lower()
    if text.startswith("em-"):
        return WelfareCriterion.expected_min(text[3:])
    if len(text) == 3:
        return WelfareCriterion.compositional(*text)
    raise ValueError(f"unknown criterion literal {text!r}")


# ---------------------------------------------------------------------------
# One-pass aggregates over the profile stream


@dataclass(frozen=True)
class ProfileAggregates:
    """The exact statistics of one ``(policy, g, m, n)`` pass, or of a chunk
    of it, as integers over one ``scale``.  For each lottery axis ``z``
    (``u``: expected utility, ``e``: guaranteed) ``sums[z]`` holds each
    agent's utility summed over profiles times their weight, ``minima[z]``
    each agent's minimum over profiles, and ``min_sums[z]`` the weighted sum
    of the per-profile minimum across agents.  Values divide on read."""

    scale: int
    total_weight: int
    sums: dict[str, tuple[int, ...]]
    minima: dict[str, tuple[int, ...]]
    min_sums: dict[str, int]

    def _held(self, statistic: str, z: str):
        if z not in (held := getattr(self, statistic)):
            raise ValueError(f"this record holds no {statistic} for lottery axis {z!r}")
        return held[z]

    def expected(self, z: str) -> tuple[Fraction, ...]:
        return tuple(Fraction(s, self.scale * self.total_weight) for s in self._held("sums", z))

    def minimum(self, z: str) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self._held("minima", z))

    def values(self, y: str, z: str) -> tuple[Fraction, ...]:
        """Every agent's mean (y = u) or worst case (y = e) over profiles."""
        return self.expected(z) if y == "u" else self.minimum(z)

    def expected_min(self, z: str) -> Fraction:
        return Fraction(self._held("min_sums", z), self.scale * self.total_weight)

    @classmethod
    def merge(cls, parts: Sequence["ProfileAggregates"]) -> "ProfileAggregates":
        """The record of a pass from its chunks' records, summed in order."""
        return cls(
            parts[0].scale,
            sum(p.total_weight for p in parts),
            {z: tuple(map(sum, zip(*(p.sums[z] for p in parts)))) for z in "ue"},
            {z: tuple(map(min, zip(*(p.minima[z] for p in parts)))) for z in "ue"},
            {z: sum(p.min_sums[z] for p in parts) for z in "ue"},
        )

    def agent_one_for_all(self) -> "ProfileAggregates":
        """The record with agent 1's sums and minima reported for every agent.
        Over one profile per orbit of agents 2..n these are agent 1's alone;
        over the whole profile space every agent's agree with them when the
        policy treats agents alike."""
        n = len(next(iter(self.sums.values())))
        return replace(
            self,
            sums={z: s[:1] * n for z, s in self.sums.items()},
            minima={z: v[:1] * n for z, v in self.minima.items()},
        )


def _accumulate(items, axes: Sequence[str], scale: int) -> ProfileAggregates:
    """The record, at ``scale``, of ``items``: ``(vectors, weight)`` pairs
    with one per-agent vector of integers for each group of lottery axes in
    ``axes``, such as ``("u", "e")``, or ``("ue",)`` when one vector serves
    both axes.  Each group's axes get every agent's weighted sum and minimum
    of its vector and the weighted sum of its least entry.  ``items`` is
    never empty:
    :meth:`ProfileStream.partition` drops empty windows, the orbit walk
    yields, for each leading ranking of a window, the item whose later
    rankings all equal it, and a law ends at least one run."""
    items = iter(items)
    first, count = next(items)
    agents, groups = range(len(first[0])), range(len(axes))
    sums = [[v * count for v in values] for values in first]
    minima = [list(values) for values in first]
    min_sums = [min(values) * count for values in first]
    for vectors, weight in items:
        count += weight
        for g in groups:
            values, total, low = vectors[g], sums[g], minima[g]
            for i in agents:
                v = values[i]
                total[i] += v * weight
                if v < low[i]:
                    low[i] = v
            min_sums[g] += min(values) * weight
    return ProfileAggregates(
        scale,
        count,
        {z: tuple(sums[g]) for g in groups for z in axes[g]},
        {z: tuple(minima[g]) for g in groups for z in axes[g]},
        {z: min_sums[g] for g in groups for z in axes[g]},
    )


def _sorted_others(stream):
    """One item per orbit of the reduced ``stream`` under relabeling agents
    2..n: the items whose later rankings are non-decreasing, each weighted by
    the number of distinct orders of those rankings.  Only these items are
    walked: agent 2's ranking runs over the stream's window, each later one
    from the ranking before it."""
    if stream.n <= 2:
        yield from stream.iter_order_rows()  # every item is its own orbit
        return
    rankings = tuple(itertools.permutations(range(1, stream.m + 1)))
    weight = stream.item_weight
    for lead in range(stream.lo, stream.hi):
        head = (rankings[0], rankings[lead])
        for rest in itertools.combinations_with_replacement(range(lead, len(rankings)), stream.n - 2):
            ways = run = 1
            before = lead
            for k, index in enumerate(rest, start=2):
                run = run + 1 if index == before else 1
                ways = ways * k // run
                before = index
            yield head + tuple(map(rankings.__getitem__, rest)), weight * ways


def _orbit_items(m: int, n: int):
    """The number of items :func:`_sorted_others` walks for each index of
    agent 2's ranking: the non-decreasing choices of the n - 2 later
    rankings from that index on."""
    rankings = math.factorial(m)
    return lambda lead: math.comb(rankings - lead + n - 3, n - 2)


def _compute_chunk(task):
    """Worker entry point: the statistics of one ``(stream, policy, g)`` chunk
    of a profile pass.  ``all`` and ``loser`` treat agents alike, so they
    evaluate one profile per orbit under relabeling agents 2..n (which keeps
    agent 1's values and the per-profile minimum) and report agent 1's
    statistics for every agent, as over the whole profile space they agree."""
    stream, policy, g = task
    if not isinstance(policy, (AllReporting, LoserReporting)):
        return _stats_for_chunk(stream.iter_order_rows(), policy, g, stream.m, stream.n)
    return _stats_for_chunk(_sorted_others(stream), policy, g, stream.m, stream.n).agent_one_for_all()


def _stats_for_chunk(orders_iter, policy, g, m, n):
    """Chunk statistics from the per-profile kernel that serves ``policy``:
    one deterministic chain of stages under all-reporting, one run for a turn
    sequence (whose fit the caller has checked; its one vector serves both
    lottery axes), the memoized lottery recursion for every other policy."""
    int_row, denom = g.integer_row(m)
    if isinstance(policy, FromSequential):
        turns = policy.policy.turns
        runs = (((sequential_values_scaled(turns, orders, int_row, 1),), weight) for orders, weight in orders_iter)
        return _accumulate(runs, ("ue",), denom)
    if isinstance(policy, AllReporting):
        scale = math.lcm(*range(1, n + 1))
        runs = ((all_reporting_values_scaled(orders, int_row, scale), weight) for orders, weight in orders_iter)
    else:
        scale = math.lcm(*range(1, n + 1)) ** m
        runs = ((policy_values_scaled(policy, orders, int_row, scale), weight) for orders, weight in orders_iter)
    return _accumulate(runs, ("u", "e"), scale * denom)


def worker_count(jobs: int, cpus: int | None) -> int:
    """Worker processes for ``jobs``: never more than the CPU count."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, cpus or 1)


def profile_aggregates(
    policy: ParallelPolicy,
    g: ScoringSpec,
    m: int,
    n: int,
    jobs: int = 1,
    budget_units: int | None = None,
) -> ProfileAggregates:
    """Exhaustive one-pass statistics for a policy over the profile stream,
    one representative per object relabeling, each weighted by ``m!`` (for
    ``all`` and ``loser`` also per agent relabeling; see :func:`_compute_chunk`).

    With more than one worker, a pass of more than ``4 * workers`` items runs
    in one pool started for it and shut down with it, cut into ``4 *
    workers`` chunks of about equal numbers of walked items.  Only the built-in
    policies are pooled: a ``CustomPolicy`` may wrap any callable, a lambda
    say, which cannot be pickled for a worker.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must both be at least 1")
    workers = worker_count(jobs, os.cpu_count())
    policy.check_fit(m, n)
    stream = enumerate_profiles(m, n)
    orbits = isinstance(policy, (AllReporting, LoserReporting))
    # with orbits, the sorted rankings of agents 2..n
    items = math.comb(math.factorial(m) + n - 2, n - 1) if orbits else stream.count
    within_budget(items * m, budget_units, "enumeration needs about")
    built_in = orbits or isinstance(policy, FromSequential)
    if workers > 1 and built_in and stream.count > 4 * workers:
        chunks = stream.partition(workers * 4, _orbit_items(m, n) if orbits else None)
        tasks = [(chunk, policy, g) for chunk in chunks]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return ProfileAggregates.merge(list(pool.map(_compute_chunk, tasks)))
    return _compute_chunk((stream, policy, g))


# ---------------------------------------------------------------------------
# Per-agent records read off the law of one agent's run (sequential._agent_law),
# under all-reporting every agent's by symmetry.


def symmetric_aggregates(
    policy: ParallelPolicy,
    g: ScoringSpec,
    m: int,
    n: int,
    budget_units: int | None = None,
) -> ProfileAggregates:
    """The record of the profile pass of all-reporting or of a turn
    sequence, for both lottery axes, without its per-profile minimum
    (``min_sums`` is empty): every agent's sums and minima, from the law of
    its run.  Under a turn sequence the other agents' rankings multiply the
    law's weights by ``(m!) ** (n - 1)``.  Under ``loser`` it holds agent 1's
    ``sums["u"]`` and ``minima["e"]`` for every agent, and nothing else.
    One work unit is one transition of the law, all counted before the first.

    ``bench/tracer.py`` wraps this function by its name and reads its
    ``policy``, ``m``, ``n`` and ``budget_units`` arguments.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must both be at least 1")
    if isinstance(policy, AllReporting):
        turns, estimate, scale, others = None, _law_transitions(m, n), math.lcm(*range(1, n + 1)), 1
    elif isinstance(policy, FromSequential):
        turns = policy.policy.turns
        estimate, scale, others = _sequence_transitions(turns), 1, math.factorial(m) ** (n - 1)
    elif isinstance(policy, LoserReporting):
        estimate, scale = _loser_transitions(m, n), math.lcm(*range(1, n + 1)) ** m
    else:
        raise ValueError("the agent law only serves all-reporting, loser and turn sequences")
    policy.check_fit(m, n)
    within_budget(estimate, budget_units, "the agent law needs")
    int_row, denom = g.integer_row(m)
    if isinstance(policy, LoserReporting):
        weight, total, low = _loser_law(m, int_row, n)
        return ProfileAggregates(scale * denom, weight, {"u": (total,) * n}, {"e": (low,) * n}, {})
    laws = _agent_laws(turns, m, n, int_row)
    return ProfileAggregates(
        scale * denom,
        laws[0][0] * others,
        {"u": tuple(law[1] * others for law in laws), "e": tuple(law[2] * others for law in laws)},
        {"u": tuple(law[3] for law in laws), "e": tuple(law[4] for law in laws)},
        {},
    )


# ---------------------------------------------------------------------------
# Joint law of a run, for all-reporting and turn sequences.  Every agent
# draws her ranking lazily, from the top, as in the law of one agent's run
# (:mod:`allocsim.sequential`), each independently of the others' draws: a
# state is r with each agent's (position, total), and its weight counts the
# ways to reach it.  When no object is left, each agent's unrevealed rest
# still orders in (m - p)! ways, so the finished weights sum to (m!)**n, the
# total weight of a profile pass, and every statistic of the run's totals
# comes out as that pass's integers.


class _RunLaw:
    """The steps of the joint law of a run on the integer score row
    ``int_row``, and its work units: one per agent entry of every state it
    writes, into a next law or on the way through an all-reporting stage,
    so n per transition; the entries are what a law holds in memory.  The
    running count raises ``BudgetExceededError`` once it passes the budget,
    checked at every state expanded."""

    def __init__(self, m: int, n: int, int_row: tuple[int, ...], budget_units: int | None):
        self.m, self.n, self.int_row = m, n, int_row
        self.reveals = _reveals(m)
        self.orders = [math.factorial(k) for k in range(m + 1)]
        self.budget = budget_units if budget_units is not None else resolve_budget_units()
        self.transitions = 0  # the work units are n times this

    def start(self) -> dict:
        return {(self.m, ((0, 0),) * self.n): 1}

    def _visit(self, transitions: int) -> None:
        self.transitions += transitions
        within_budget(self.transitions * self.n, self.budget, "the joint-law DP needs at least")

    def _room(self) -> int:
        """The transitions left within the budget."""
        return self.budget // self.n - self.transitions

    def turn(self, law: dict, agent: int) -> dict:
        """The law after ``agent`` takes her best remaining object."""
        step: dict = {}
        row = self.int_row
        a = agent - 1
        visited, room = 0, self._room()
        for (r, entries), weight in law.items():
            p, own = entries[a]
            reveals = self.reveals[self.m - p - r]
            visited += len(reveals)
            if visited > room:
                break  # refused below
            weight *= r  # her demand is any of the r remaining objects
            for q, ways in enumerate(reveals, start=p + 1):
                key = (r - 1, entries[:a] + ((q, own + row[q]),) + entries[a + 1:])
                step[key] = step.get(key, 0) + weight * ways
        self._visit(visited)
        return step

    def all_reporting(self, scale: int, z: str) -> dict:
        """The weight of each all-reporting run's totals, times ``scale``
        (divisible by 1..n): a demand with c contenders banks its
        :func:`~allocsim.sequential._share` of the score.  Agents 2..n are
        alike, so their entries are kept sorted."""
        # bank[c][q]: what a demand at rank q banks with c contenders
        bank = [[]] + [[score * _share(c, scale, z) for score in self.int_row] for c in range(1, self.n + 1)]
        law, done = self.start(), {}
        while law:
            law = self._stage(law, done, bank)
        return done

    def _stage(self, law: dict, done: dict, bank: list[list[int]]) -> dict:
        """The law after one all-reporting stage; the totals of runs that end
        go to ``done``.  The agents' demands are drawn in turn, agent 1's first:
        each falls on the object of a block of agents drawn before, or opens
        a block on another remaining object.  Only the blocks matter: at the
        stage's end every agent banks against the size of her block, and the
        k blocks' objects are chosen in r!/(r - k)! ways."""
        step: dict = {}
        for (r, ((p, own), *others)), weight in law.items():
            # (agent 1's (rank, total), the others' (rank, total, block) sorted,
            # blocks) -> ways
            partial = {((q, own), (), 1): w for q, w in enumerate(self.reveals[self.m - p - r], start=p + 1)}
            visited = len(partial)
            for at, total in others:
                reveal = self.reveals[self.m - at - r]
                grown: dict = {}
                for (first, rest, blocks), ways in partial.items():
                    for b in range(min(blocks + 1, r)):
                        for q, w in enumerate(reveal, start=at + 1):
                            key = (first, tuple(sorted(rest + ((q, total, b),))), max(blocks, b + 1))
                            grown[key] = grown.get(key, 0) + ways * w
                        visited += len(reveal)
                if visited > self._room():
                    self._visit(visited)  # refused
                partial = grown
            for ((q, own), rest, blocks), ways in partial.items():
                sizes = [1] + [0] * (blocks - 1)
                for *_, b in rest:
                    sizes[b] += 1
                banked = ((rank, total + bank[sizes[b]][rank]) for rank, total, b in rest)
                entries = ((q, own + bank[sizes[0]][q]),) + tuple(sorted(banked))
                ways *= weight * math.perm(r, blocks)
                if r > blocks:
                    key = (r - blocks, entries)
                    step[key] = step.get(key, 0) + ways
                else:
                    self._end(done, entries, ways)
            self._visit(visited + len(partial))
        return step

    def _end(self, done: dict, entries: tuple[tuple[int, int], ...], weight: int) -> None:
        """Add a run that ended with ``entries`` to ``done``, keyed by its
        totals, agent 1's first, with every agent's unrevealed rest ordered."""
        for p, _ in entries:
            weight *= self.orders[self.m - p]
        totals = tuple(own for _, own in entries)
        done[totals] = done.get(totals, 0) + weight

    def finished(self, law: dict) -> dict[tuple[int, ...], int]:
        """The weight of each run's totals, from the law after the last turn."""
        done: dict = {}
        for (_, entries), weight in law.items():
            self._end(done, entries, weight)
        return done


def joint_law_aggregates(
    policy: ParallelPolicy,
    g: ScoringSpec,
    m: int,
    n: int,
    z: str,
    budget_units: int | None = None,
) -> ProfileAggregates:
    """The record of the profile pass of ``all`` or a turn sequence, for
    lottery axis ``z``, read off the joint law of a run instead of a walk of
    the profile stream: the same integers at the same scale.  A turn
    sequence's one run fills both axes.  Under ``all`` the record reports
    agent 1's sums and minima for every agent, as the pass does.  The work
    units are those of :class:`_RunLaw`."""
    if m < 1 or n < 1:
        raise ValueError("m and n must both be at least 1")
    policy.check_fit(m, n)
    int_row, denom = g.integer_row(m)
    run = _RunLaw(m, n, int_row, budget_units)
    if isinstance(policy, FromSequential):
        law = run.start()
        for agent in policy.policy.turns:
            law = run.turn(law, agent)
        ended, axes, scale = run.finished(law), "ue", 1
    elif isinstance(policy, AllReporting):
        scale = math.lcm(*range(1, n + 1))
        ended, axes = run.all_reporting(scale, z), z
    else:
        raise ValueError("the joint law only serves all-reporting and turn sequences")
    record = _accumulate((((totals,), weight) for totals, weight in ended.items()), (axes,), scale * denom)
    return record.agent_one_for_all() if isinstance(policy, AllReporting) else record


# ---------------------------------------------------------------------------
# Criterion evaluation


def _record_for(
    criterion: WelfareCriterion, policy: ParallelPolicy, g: ScoringSpec, m: int, n: int, jobs: int,
    budget_units: int | None,
) -> ProfileAggregates:
    """The record that holds ``criterion``'s statistic: the joint law of a
    run for em-* of ``all`` and turn sequences, the law of one agent's run
    for their per-agent values and for ``loser``'s with y = z; one profile
    pass, the oracle the tests hold the laws to, for every other value."""
    if isinstance(policy, LoserReporting) and criterion.y == criterion.z:  # (u, u) or (e, e)
        return symmetric_aggregates(policy, g, m, n, budget_units)
    if not isinstance(policy, (AllReporting, FromSequential)):
        return profile_aggregates(policy, g, m, n, jobs, budget_units)
    if criterion.mode == "emin":
        return joint_law_aggregates(policy, g, m, n, criterion.z, budget_units)
    return symmetric_aggregates(policy, g, m, n, budget_units)


def agent_value(
    agent: int,
    y: str,
    z: str,
    policy: ParallelPolicy,
    g: ScoringSpec,
    m: int,
    n: int,
    jobs: int = 1,
    budget_units: int | None = None,
) -> Fraction:
    """One agent's value of a policy: mean (y='u') or worst case (y='e') over
    all profiles of her expected (z='u') or guaranteed (z='e') utility."""
    if not 1 <= agent <= n:
        raise ValueError(f"agent {agent} out of range 1..{n}")
    return _record_for(parse_criterion(f"u{y}{z}"), policy, g, m, n, jobs, budget_units).values(y, z)[agent - 1]


def expected_min_welfare(
    z: str,
    policy: ParallelPolicy,
    g: ScoringSpec,
    m: int,
    n: int,
    jobs: int = 1,
    budget_units: int | None = None,
) -> Fraction:
    """Mean over profiles of the per-profile minimum across agents."""
    return evaluate_criterion(WelfareCriterion.expected_min(z), policy, g, m, n, jobs, budget_units)


def evaluate_criterion(
    criterion: WelfareCriterion,
    policy: ParallelPolicy,
    g: ScoringSpec,
    m: int,
    n: int,
    jobs: int = 1,
    budget_units: int | None = None,
) -> Fraction:
    """A criterion's value: the expected-min reading, or the per-agent values
    over profiles (y) folded over agents (x), from the record
    :func:`_record_for` picks."""
    stats = _record_for(criterion, policy, g, m, n, jobs, budget_units)
    if criterion.mode == "emin":
        return stats.expected_min(criterion.z)
    return Aggregator(criterion.x).apply(stats.values(criterion.y, criterion.z))


def profile_utilities(
    policy: ParallelPolicy, profile: Profile, g: ScoringSpec
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Per-agent (expected, guaranteed) utilities of one profile: a stream of
    one item through the same kernel, fit check and record as a profile
    pass."""
    policy.check_fit(profile.m, profile.n)
    stats = _stats_for_chunk([(profile.order_rows(), 1)], policy, g, profile.m, profile.n)
    return stats.expected("u"), stats.expected("e")


# ---------------------------------------------------------------------------
# Comparison tables


@dataclass(frozen=True)
class TableRow:
    table_id: int
    m: int
    n: int
    policy_star: SequentialPolicy | None
    value_star: Fraction | None
    value_all_reporting: Fraction | None
    status: str = "ok"


@dataclass(frozen=True)
class TableSpec:
    criterion: WelfareCriterion
    scoring: str  # "borda" | "lex"
    cells: tuple[tuple[int, int], ...]


def _cells(ranges: dict[int, range]) -> tuple[tuple[int, int], ...]:
    return tuple((m, n) for n, ms in ranges.items() for m in ms)


TABLE_SPECS: dict[int, TableSpec] = {
    1: TableSpec(
        WelfareCriterion.compositional("u", "u", "u"),
        "borda",
        _cells({2: range(4, 11), 3: range(4, 9), 4: range(4, 7)}),
    ),
    2: TableSpec(
        WelfareCriterion.compositional("u", "u", "u"),
        "lex",
        _cells({2: range(4, 11), 3: range(4, 9), 4: range(4, 7)}),
    ),
    3: TableSpec(
        WelfareCriterion.compositional("e", "u", "u"),
        "borda",
        _cells({2: range(4, 11), 3: range(4, 9), 4: range(4, 7)}),
    ),
    4: TableSpec(
        WelfareCriterion.compositional("e", "u", "u"),
        "lex",
        _cells({2: range(4, 11), 3: range(4, 9), 4: range(4, 7)}),
    ),
    5: TableSpec(
        WelfareCriterion.expected_min("u"),
        "borda",
        _cells({2: range(2, 9)}),
    ),
}


def optimal_sequential_expected_min(
    m: int,
    n: int,
    g: ScoringSpec,
    budget_units: int | None = None,
) -> tuple[SequentialPolicy, Fraction]:
    """Argmax of the expected per-profile minimum utility over all turn
    sequences (canonical representatives, lexicographic tie-break).  Every
    candidate is scored on the joint law of its run, compared as integers at
    the profile stream's scale; only the winner's value is divided.

    Candidates come in lexicographic order, and the law after each turn of
    the current candidate is kept, so a candidate replays only the turns
    after the prefix it shares with the one before.  The work units are
    those of :class:`_RunLaw`, counted over the whole search."""
    if m < 1 or n < 1:
        raise ValueError("m and n must both be at least 1")
    int_row, denom = g.integer_row(m)
    run = _RunLaw(m, n, int_row, budget_units)
    item = math.factorial(m)  # the weight of a profile-stream item
    laws = [run.start()]  # after 0, 1, ... turns of `replayed`
    replayed: tuple[int, ...] = ()

    def min_sum(turns: tuple[int, ...]) -> int:
        nonlocal replayed
        k = 0
        while k < len(replayed) and turns[k] == replayed[k]:
            k += 1
        del laws[k + 1:]
        for agent in turns[k:]:
            laws.append(run.turn(laws[-1], agent))
        replayed = turns
        return sum(min(totals) * weight for totals, weight in run.finished(laws[-1]).items()) // item

    pi, best = _best_sequence(canonical_turn_sequences(m, n), min_sum)
    return pi, Fraction(best, item ** (n - 1) * denom)


def _scoring_for(table: TableSpec) -> ScoringSpec:
    return ScoringSpec.borda() if table.scoring == "borda" else ScoringSpec.lexicographic()


def reproduce_table(
    table_id: int,
    max_m: int | None = None,
    max_n: int | None = None,
    cells: Sequence[tuple[int, int]] | None = None,
    jobs: int = 1,
    budget_units: int | None = None,
) -> list[TableRow]:
    """Recompute one comparison table: per cell, the optimal turn sequence
    under the table's criterion next to the all-reporting policy's value.

    Cells whose deterministic work exceeds the budget are emitted with
    status ``timeout`` instead of aborting the run.
    """
    if table_id not in TABLE_SPECS:
        raise ValueError(f"unknown table id {table_id}")
    table = TABLE_SPECS[table_id]
    g = _scoring_for(table)
    wanted = cells if cells is not None else table.cells
    rows: list[TableRow] = []
    for m, n in wanted:
        if cells is None:
            if max_m is not None and m > max_m:
                continue
            if max_n is not None and n > max_n:
                continue
        # The all-reporting column runs first: in every table its law costs
        # fewer units than the pi* search, so a cell the budget refuses
        # spends nothing on the search.
        try:
            value_all = evaluate_criterion(table.criterion, AllReporting(), g, m, n, jobs, budget_units)
            if table.criterion.mode == "emin":
                pi_star, value_star = optimal_sequential_expected_min(m, n, g, budget_units=budget_units)
            else:
                pi_star, value_star = optimal_sequential(
                    m, n, g, Aggregator(table.criterion.x), budget_units=budget_units
                )
            rows.append(TableRow(table_id, m, n, pi_star, value_star, value_all))
        except BudgetExceededError:
            rows.append(TableRow(table_id, m, n, None, None, None, status="timeout"))
    return rows
