"""Social-welfare criteria over the full profile space.

A criterion aggregates along three axes, each either utilitarian (``u``,
mean/sum) or egalitarian (``e``, min): over agents (x), over profiles (y) and
over lottery outcomes (z).  ``sw(x,y,z)`` composes them outside-in.  A second,
non-compositional reading used by the expected-min comparison suite averages
the per-profile minimum across agents: ``E_R[min_i u_i(z, R)]``.

Everything here is exact.  Each value's route is chosen from its input
(policy and criterion), whichever caller asks:

* ``all`` averaged over profiles (y = u) comes from a closed-form DP over the
  remaining ranks (:func:`symmetric_aggregates`), without enumerating
  profiles;
* a turn sequence averaged over profiles (y = u) comes from the integer
  positions DP of :mod:`allocsim.sequential`, divided once per agent; z does
  not matter there, since a sequence has one run;
* every other value is one pass over a profile stream with an integer
  per-profile kernel from :mod:`allocsim.parallel`:
  ``all_reporting_values_scaled`` for ``all``, ``sequential_values_scaled``
  for a turn sequence and ``policy_values_scaled`` for ``loser`` and custom
  policies.  A profile-space pass streams one representative per object
  relabeling, and for ``all`` and ``loser``, which treat agents alike,
  evaluates one per relabeling of agents 2..n; a single profile
  (:func:`profile_utilities`) is a stream of one item.

A pass yields one :class:`ProfileAggregates` record: for each lottery axis,
every agent's weighted utility sum and minimum over profiles and the weighted
sum of the per-profile minimum, all integers over one scale, divided only
when a criterion reads them.  A turn sequence has one run, so its pass
totals one axis and reports it for both.  Chunks' records merge by summing
in order.  With ``jobs > 1`` a large enough pass is chunked across one worker
pool that lives as long as that pass; the chunk reduction is order-fixed and
exact, so results are bit-identical for any worker count.  The expected-min
search over turn sequences runs no pass per candidate: it walks the profile
stream once, in chunks, runs every candidate over each chunk with the turns
of a shared prefix replayed once (:func:`_add_min_sums`), in-process, and
starts no pool.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

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
    _best_sequence,
    _expected_utilities,
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

DEFAULT_BUDGET_SECS = 60.0
# Rough throughput of the enumeration hot loops (profile-stages per second on
# one desktop core); only used to turn a seconds budget into a work-unit cap.
UNITS_PER_SECOND = 200_000
BUDGET_ENV_VAR = "ALLOC_BUDGET_SECS"
# Profile-stream items per chunk of the expected-min search: the per-turn
# columns it keeps stay small, and each turn still loops over many items.
SEARCH_CHUNK_ITEMS = 1024


def resolve_budget_units(budget_secs: float | None = None) -> int:
    """Deterministic work-unit cap (one unit is roughly one stage of one
    profile evaluation).  ``ALLOC_BUDGET_SECS`` overrides the default.  The
    seconds must be finite and at least 0; 0 means one unit."""
    if budget_secs is None:
        raw = os.environ.get(BUDGET_ENV_VAR)
        budget_secs = float(raw) if raw else DEFAULT_BUDGET_SECS
    if not 0 <= budget_secs < math.inf:
        raise ValueError(f"budget (--budget or {BUDGET_ENV_VAR}) must be finite seconds >= 0, got {budget_secs}")
    return max(1, int(budget_secs * UNITS_PER_SECOND))


def _within_budget(estimated: int, budget_units: int | None, needs: str) -> int:
    """The budget in work units, once work estimated at ``estimated`` units
    is known to fit it; ``needs`` opens the refusal message."""
    budget = budget_units if budget_units is not None else resolve_budget_units()
    if estimated > budget:
        raise BudgetExceededError(
            f"{needs} {estimated} work units, budget is {budget}",
            estimated=estimated,
            budget=budget,
        )
    return budget


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

    def expected(self, z: str) -> tuple[Fraction, ...]:
        return tuple(Fraction(s, self.scale * self.total_weight) for s in self.sums[z])

    def minimum(self, z: str) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.minima[z])

    def expected_min(self, z: str) -> Fraction:
        return Fraction(self.min_sums[z], self.scale * self.total_weight)

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
        n = len(self.sums["u"])
        return replace(
            self,
            sums={z: s[:1] * n for z, s in self.sums.items()},
            minima={z: v[:1] * n for z, v in self.minima.items()},
        )


def _chunk_stats(orders_iter, evaluate, n: int, scale: int) -> ProfileAggregates:
    """Accumulate the statistics of one chunk in integers: ``scale`` times
    every utility sum and minimum, exactly.  A chunk is never empty:
    :meth:`ProfileStream.partition` drops empty windows, and the orbit walk
    yields, for each leading ranking of a window, the item whose later
    rankings all equal it."""
    count = 0
    sum_hat = [0] * n
    sum_under = [0] * n
    min_hat: list[int | None] = [None] * n
    min_under: list[int | None] = [None] * n
    sum_min_hat = 0
    sum_min_under = 0
    for orders, weight in orders_iter:
        hat, under = evaluate(orders)
        count += weight
        for i in range(n):
            h, u = hat[i], under[i]
            sum_hat[i] += h * weight
            sum_under[i] += u * weight
            if min_hat[i] is None or h < min_hat[i]:
                min_hat[i] = h
            if min_under[i] is None or u < min_under[i]:
                min_under[i] = u
        sum_min_hat += min(hat) * weight
        sum_min_under += min(under) * weight
    return ProfileAggregates(
        scale,
        count,
        {"u": tuple(sum_hat), "e": tuple(sum_under)},
        {"u": tuple(min_hat), "e": tuple(min_under)},
        {"u": sum_min_hat, "e": sum_min_under},
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
    if isinstance(policy, AllReporting):
        scale = math.lcm(*range(1, n + 1))
        return _chunk_stats(
            orders_iter,
            lambda orders: all_reporting_values_scaled(orders, int_row, scale),
            n,
            scale * denom,
        )
    if isinstance(policy, FromSequential):
        turns = policy.policy.turns
        count = min_sum = 0
        sums = [0] * n
        minima = [math.inf] * n
        for orders, weight in orders_iter:
            values = sequential_values_scaled(turns, orders, int_row, 1)
            count += weight
            for i in range(n):
                v = values[i]
                sums[i] += v * weight
                if v < minima[i]:
                    minima[i] = v
            min_sum += min(values) * weight
        return ProfileAggregates(denom, count, *(dict.fromkeys("ue", s) for s in (tuple(sums), tuple(minima), min_sum)))
    scale = math.lcm(*range(1, n + 1)) ** m
    return _chunk_stats(
        orders_iter,
        lambda orders: policy_values_scaled(policy, orders, int_row, scale),
        n,
        scale * denom,
    )


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
    in one pool started for it and shut down with it.  Only the built-in
    policies are pooled: a ``CustomPolicy`` may wrap any callable, a lambda
    say, which cannot be pickled for a worker.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must both be at least 1")
    workers = worker_count(jobs, os.cpu_count())
    policy.check_fit(m, n)
    stream = enumerate_profiles(m, n)
    items = stream.count
    if isinstance(policy, (AllReporting, LoserReporting)):
        items = math.comb(math.factorial(m) + n - 2, n - 1)  # sorted rankings of agents 2..n
    _within_budget(items * m, budget_units, "enumeration needs about")
    built_in = isinstance(policy, (AllReporting, LoserReporting, FromSequential))
    if workers > 1 and built_in and stream.count > 4 * workers:
        tasks = [(chunk, policy, g) for chunk in stream.partition(workers * 4)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return ProfileAggregates.merge(list(pool.map(_compute_chunk, tasks)))
    return _compute_chunk((stream, policy, g))


# ---------------------------------------------------------------------------
# Closed form for the all-reporting policy.  Under all-reporting every
# demanded object leaves play whoever wins it, so the remaining set evolves
# without regard to lottery outcomes.  Fix agent 1's ranking to the identity:
# she demands the best remaining rank p, and by the principle of deferred
# decisions each other agent's demand is uniform over the r remaining objects,
# independently across agents and of the past.  With k others on p, agent 1
# banks g(p)/(k+1) in expectation and g(p) for sure when k = 0; the next state
# keeps a uniform subset of the other remaining objects, of a size set by how
# many distinct ones the others hit.  By linearity only the two marginal laws
# are needed.  By agent symmetry the result is every agent's value.


def _hit_law(r: int, others: int) -> list[int]:
    """Ways, out of ``r ** others``, for ``others`` agents each demanding one
    of ``r`` objects to hit exactly ``s`` distinct objects besides a fixed
    one, indexed by ``s``."""
    ways = [1]
    for _ in range(others):
        nxt = [0] * (len(ways) + 1)
        for s, w in enumerate(ways):
            nxt[s] += w * (s + 1)  # the fixed object or one already hit
            nxt[s + 1] += w * (r - 1 - s)  # a new object
        ways = nxt
    return ways


def _dp_transitions(m: int, n: int) -> int:
    """Number of (state, next state) transitions the closed form visits.

    A state keeps ``r`` ranks, the best of them ``a + 1``; it is reachable
    exactly when its ``m - r`` removed ranks fit into ``a`` stages of at most
    ``n`` demands.  Each such state moves to every subset of its other
    ``r - 1`` ranks that drops at most ``n - 1`` of them.
    """
    return sum(
        math.comb(m - a - 1, r - 1) * sum(math.comb(r - 1, s) for s in range(min(n - 1, r - 1) + 1))
        for a in range(m)
        for r in range(1, m - a + 1)
        if m - r <= a * n
    )


def symmetric_aggregates(
    policy: ParallelPolicy,
    g: ScoringSpec,
    m: int,
    n: int,
    budget_units: int | None = None,
) -> tuple[Fraction, Fraction]:
    """Any one agent's expected and guaranteed utility under all-reporting,
    each averaged over all profiles, exactly.  One work unit is one
    transition of the closed form.

    ``bench/tracer.py`` wraps this function by its name and reads its
    ``policy``, ``m``, ``n`` and ``budget_units`` arguments.
    """
    if not isinstance(policy, AllReporting):
        raise ValueError("the closed form only applies to the all-reporting policy")
    if m < 1 or n < 1:
        raise ValueError("m and n must both be at least 1")
    _within_budget(_dp_transitions(m, n), budget_units, "closed form needs")
    row = g.score_row(m)
    # laws[r]: expected share of the demanded object, chance of demanding it
    # alone, and (size, chance) of each kept subset of the other r - 1 objects
    laws: dict[int, tuple[Fraction, Fraction, list[tuple[int, Fraction]]]] = {}
    for r in range(1, m + 1):
        total = r ** (n - 1)
        moves = [
            (r - 1 - s, Fraction(w, total * math.comb(r - 1, s)))
            for s, w in enumerate(_hit_law(r, n - 1))
            if w
        ]
        laws[r] = (Fraction(r**n - (r - 1) ** n, n * total), Fraction((r - 1) ** (n - 1), total), moves)
    memo = {(): (Fraction(0), Fraction(0))}

    def value(remaining: tuple[int, ...]) -> tuple[Fraction, Fraction]:
        cached = memo.get(remaining)
        if cached is None:
            share, alone, moves = laws[len(remaining)]
            top, rest = row[remaining[0]], remaining[1:]
            expected, guaranteed = top * share, top * alone
            for size, chance in moves:
                sum_e = sum_g = Fraction(0)
                for kept in itertools.combinations(rest, size):
                    e, gu = value(kept)
                    sum_e += e
                    sum_g += gu
                expected += chance * sum_e
                guaranteed += chance * sum_g
            cached = memo[remaining] = (expected, guaranteed)
        return cached

    return value(tuple(range(1, m + 1)))


# ---------------------------------------------------------------------------
# Criterion evaluation


def _agent_values(
    y: str,
    z: str,
    policy: ParallelPolicy,
    g: ScoringSpec,
    m: int,
    n: int,
    jobs: int,
    budget_units: int | None,
) -> tuple[Fraction, ...]:
    """Every agent's mean (y = u) or worst case (y = e) over all profiles of
    her expected (z = u) or guaranteed (z = e) utility, by the route the
    input allows.  The profile averages of ``all`` and of a turn sequence
    have closed forms; every other value is read off one profile pass, the
    oracle the tests hold the closed forms to."""
    if y == "u" and isinstance(policy, AllReporting):
        expected, guaranteed = symmetric_aggregates(policy, g, m, n, budget_units)
        return (expected if z == "u" else guaranteed,) * n
    if y == "u" and isinstance(policy, FromSequential):
        if m < 1 or n < 1:
            raise ValueError("m and n must both be at least 1")
        policy.check_fit(m, n)
        int_row, denom = g.integer_row(m)
        values = _expected_utilities(policy.policy.turns, n, int_row)
        return tuple(Fraction(v, math.factorial(m) * denom) for v in values)
    stats = profile_aggregates(policy, g, m, n, jobs, budget_units)
    return stats.expected(z) if y == "u" else stats.minimum(z)


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
    return _agent_values(y, z, policy, g, m, n, jobs, budget_units)[agent - 1]


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
    """A criterion's value: the expected-min reading, from one profile pass,
    or the per-agent values over profiles (y) folded over agents (x)."""
    if criterion.mode == "emin":
        return profile_aggregates(policy, g, m, n, jobs, budget_units).expected_min(criterion.z)
    return Aggregator(criterion.x).apply(_agent_values(criterion.y, criterion.z, policy, g, m, n, jobs, budget_units))


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
    sequences (canonical representatives, lexicographic tie-break).  All
    candidates are run in-process over each chunk of the profile stream in
    turn (see :func:`_add_min_sums`) and compared as integers at one scale;
    only the winner's value is divided."""
    if m < 1 or n < 1:
        raise ValueError("m and n must both be at least 1")
    _within_budget(n**m * math.factorial(m) ** (n - 1) * m, budget_units, "search needs about")
    stream = enumerate_profiles(m, n)
    int_row, denom = g.integer_row(m)
    candidates = list(canonical_turn_sequences(m, n))
    sums = [0] * len(candidates)
    for chunk in stream.partition(-(-stream.count // SEARCH_CHUNK_ITEMS)):
        _add_min_sums(chunk, int_row, candidates, sums)
    pi, best = _best_sequence(candidates, dict(zip(candidates, sums)).__getitem__)
    return pi, Fraction(best, stream.count * denom)


def _add_min_sums(stream, int_row, candidates, sums) -> None:
    """Add to ``sums[i]`` the sum, over the items of ``stream``, of the
    per-profile minimum across agents of candidate ``i``'s realized utility
    on ``int_row``.  Every item weighs the same, so over the whole stream
    that sum is ``count * denom`` times the expected minimum that
    :func:`expected_min_welfare` reads off the candidate's profile pass.

    A candidate replays only the turns after the prefix it shares with the
    candidate before, which in lexicographic order is most of them: every
    item's state after each turn of that candidate (the taken objects as a
    bitmask, each agent's pointer into her ranking and her total) is kept,
    one column per agent, and a turn rebuilds only the mask and its agent's
    two columns.  The per-turn step is that of
    :func:`sequential_values_scaled`.
    """
    n = stream.n
    columns: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for orders, _ in stream.iter_order_rows():
        for column, ranking in zip(columns, orders):
            column.append(ranking)
    zero = [0] * len(columns[0])
    states = [(zero, (zero,) * n, (zero,) * n)]  # after 0, 1, ... turns of `replayed`
    replayed: tuple[int, ...] = ()
    for i, turns in enumerate(candidates):
        k = 0
        while k < len(replayed) and turns[k] == replayed[k]:
            k += 1
        del states[k + 1:]
        for agent in turns[k:]:
            masks, pointers, totals = states[-1]
            a = agent - 1
            new_masks, new_pointers, new_totals = [], [], []
            for row, mask, p, total in zip(columns[a], masks, pointers[a], totals[a]):
                t = row[p]
                while mask >> t & 1:
                    p += 1
                    t = row[p]
                new_masks.append(mask | 1 << t)
                new_pointers.append(p)
                new_totals.append(total + int_row[p + 1])
            states.append((
                new_masks,
                pointers[:a] + (new_pointers,) + pointers[a + 1:],
                totals[:a] + (new_totals,) + totals[a + 1:],
            ))
        replayed = turns
        totals = states[-1][2]
        sums[i] += sum(map(min, *totals)) if n > 1 else sum(totals[0])


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

    Cells whose deterministic work estimate exceeds the budget are emitted
    with status ``timeout`` instead of aborting the run.
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
        # Run the budgeted part that refuses cheaply first: table 5's search
        # checks its budget up front, while its all-reporting pass enumerates;
        # tables 1-4 answer the all-reporting column in milliseconds and
        # their pi* search has no budget.
        try:
            if table.criterion.mode == "emin":
                pi_star, value_star = optimal_sequential_expected_min(m, n, g, budget_units=budget_units)
                value_all = evaluate_criterion(table.criterion, AllReporting(), g, m, n, jobs, budget_units)
            else:
                value_all = evaluate_criterion(table.criterion, AllReporting(), g, m, n, jobs, budget_units)
                pi_star, value_star = optimal_sequential(m, n, g, Aggregator(table.criterion.x))
            rows.append(TableRow(table_id, m, n, pi_star, value_star, value_all))
        except BudgetExceededError:
            rows.append(TableRow(table_id, m, n, None, None, None, status="timeout"))
    return rows
