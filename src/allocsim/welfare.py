"""Social-welfare criteria over the full profile space.

A criterion aggregates along three axes, each either utilitarian (``u``,
mean/sum) or egalitarian (``e``, min): over agents (x), over profiles (y) and
over lottery outcomes (z).  ``sw(x,y,z)`` composes them outside-in.  A second,
non-compositional reading used by the expected-min comparison suite averages
the per-profile minimum across agents: ``E_R[min_i u_i(z, R)]``.

Everything here is exact rational arithmetic.  The all-reporting values of
the comparison tables come from a closed-form DP over the remaining ranks;
everything else is exhaustive enumeration over the (optionally symmetry
reduced) profile stream.  One pass per
``(policy, scoring, m, n)`` collects every statistic any criterion needs; the
pass can be chunked across worker processes, and the chunk reduction is
order-fixed so results are bit-identical for any worker count.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceededError
from .model import Profile, ProfileStream, Ranking, ScoringSpec, enumerate_profiles
from .parallel import (
    AllReporting,
    FromSequential,
    LoserReporting,
    ParallelPolicy,
    all_reporting_values_scaled,
    build_structure,
    guaranteed_utilities,
    lottery_expected_utilities,
    parse_policy,
    sequential_values_scaled,
)
from .sequential import (
    Aggregator,
    SequentialPolicy,
    canonical_turn_sequences,
    optimal_sequential,
)

__all__ = [
    "WelfareCriterion",
    "parse_criterion",
    "agent_value",
    "social_welfare",
    "expected_min_welfare",
    "evaluate_criterion",
    "per_profile_welfare",
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


def resolve_budget_units(budget_secs: float | None = None) -> int:
    """Deterministic work-unit cap (one unit is roughly one stage of one
    profile evaluation).  ``ALLOC_BUDGET_SECS`` overrides the default."""
    if budget_secs is None:
        raw = os.environ.get(BUDGET_ENV_VAR)
        budget_secs = float(raw) if raw else DEFAULT_BUDGET_SECS
    return max(1, int(budget_secs * UNITS_PER_SECOND))


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
    """Everything a criterion can ask of one ``(policy, g, m, n)`` pass."""

    total_weight: int
    sum_hat: tuple[Fraction, ...]
    min_hat: tuple[Fraction, ...]
    sum_under: tuple[Fraction, ...]
    min_under: tuple[Fraction, ...]
    sum_min_hat: Fraction
    sum_min_under: Fraction

    def expected(self, z: str) -> tuple[Fraction, ...]:
        sums = self.sum_hat if z == "u" else self.sum_under
        return tuple(s / self.total_weight for s in sums)

    def minimum(self, z: str) -> tuple[Fraction, ...]:
        return self.min_hat if z == "u" else self.min_under

    def expected_min(self, z: str) -> Fraction:
        total = self.sum_min_hat if z == "u" else self.sum_min_under
        return total / self.total_weight


def _policy_token(policy: ParallelPolicy):
    """Picklable description of a policy, or None when there is none."""
    if isinstance(policy, AllReporting):
        return "all"
    if isinstance(policy, LoserReporting):
        return "loser"
    if isinstance(policy, FromSequential):
        return "seq:" + policy.policy.literal()
    return None


def _scoring_token(g: ScoringSpec):
    if g.kind == "custom":
        return ("custom", tuple(str(v) for v in g.table))
    return (g.kind, None)


def _scoring_from_token(token) -> ScoringSpec:
    kind, table = token
    if kind == "custom":
        return ScoringSpec.custom([Fraction(v) for v in table])
    return ScoringSpec(kind)


def _chunk_stats_fast(orders_iter, evaluate, n: int, scale: int):
    """Accumulate the raw statistics of one chunk using scaled integers."""
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
    if count == 0:
        return None
    return (
        count,
        tuple(Fraction(v, scale) for v in sum_hat),
        tuple(Fraction(v, scale) for v in min_hat),
        tuple(Fraction(v, scale) for v in sum_under),
        tuple(Fraction(v, scale) for v in min_under),
        Fraction(sum_min_hat, scale),
        Fraction(sum_min_under, scale),
    )


def _chunk_stats_generic(orders_iter, policy: ParallelPolicy, g: ScoringSpec, n: int):
    """Same statistics via full structure construction (any policy)."""
    count = 0
    sum_hat = [Fraction(0)] * n
    sum_under = [Fraction(0)] * n
    min_hat: list[Fraction | None] = [None] * n
    min_under: list[Fraction | None] = [None] * n
    sum_min_hat = Fraction(0)
    sum_min_under = Fraction(0)
    for orders, weight in orders_iter:
        profile = Profile(tuple(Ranking(o) for o in orders))
        structure = build_structure(policy, profile)
        hat = lottery_expected_utilities(structure, g)
        under = guaranteed_utilities(structure, g)
        count += weight
        for i in range(n):
            sum_hat[i] += hat[i] * weight
            sum_under[i] += under[i] * weight
            if min_hat[i] is None or hat[i] < min_hat[i]:
                min_hat[i] = hat[i]
            if min_under[i] is None or under[i] < min_under[i]:
                min_under[i] = under[i]
        sum_min_hat += min(hat) * weight
        sum_min_under += min(under) * weight
    if count == 0:
        return None
    return (
        count,
        tuple(sum_hat),
        tuple(min_hat),
        tuple(sum_under),
        tuple(min_under),
        sum_min_hat,
        sum_min_under,
    )


def _compute_chunk(task):
    """Worker entry point: evaluate one stream chunk described by a task tuple."""
    m, n, policy_token, scoring_token, reduce_symmetry, lo, hi = task
    policy = parse_policy(policy_token)
    g = _scoring_from_token(scoring_token)
    stream = ProfileStream(m, n, reduce_symmetry, lo=lo, hi=hi)
    return _stats_for_chunk(stream.iter_order_rows(), policy, g, m, n)


def _stats_for_chunk(orders_iter, policy, g, m, n):
    int_row, denom = g.integer_row(m)
    if isinstance(policy, AllReporting):
        scale = math.lcm(*range(1, n + 1))
        return _chunk_stats_fast(
            orders_iter,
            lambda orders: all_reporting_values_scaled(orders, int_row, scale),
            n,
            scale * denom,
        )
    if isinstance(policy, FromSequential):
        turns = policy.policy.turns
        if policy.policy.m != m or policy.policy.max_agent > n:
            raise ValueError("turn sequence does not fit m and n")

        def evaluate(orders):
            v = sequential_values_scaled(turns, orders, int_row, 1)
            return v, v

        return _chunk_stats_fast(orders_iter, evaluate, n, denom)
    return _chunk_stats_generic(orders_iter, policy, g, n)


def _merge_stats(parts):
    parts = [p for p in parts if p is not None]
    if not parts:
        raise ValueError("empty profile stream")
    count = sum(p[0] for p in parts)
    n = len(parts[0][1])
    sum_hat = tuple(sum(p[1][i] for p in parts) for i in range(n))
    min_hat = tuple(min(p[2][i] for p in parts) for i in range(n))
    sum_under = tuple(sum(p[3][i] for p in parts) for i in range(n))
    min_under = tuple(min(p[4][i] for p in parts) for i in range(n))
    sum_min_hat = sum(p[5] for p in parts)
    sum_min_under = sum(p[6] for p in parts)
    return ProfileAggregates(
        count, sum_hat, min_hat, sum_under, min_under, sum_min_hat, sum_min_under
    )


_aggregate_cache: dict = {}


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
    reduce_symmetry: bool = True,
    jobs: int = 1,
    budget_units: int | None = None,
) -> ProfileAggregates:
    """Exhaustive one-pass statistics for a policy over the profile stream."""
    if m < 1 or n < 1:
        raise ValueError("m and n must both be at least 1")
    workers = worker_count(jobs, os.cpu_count())
    budget = budget_units if budget_units is not None else resolve_budget_units()
    stream = enumerate_profiles(m, n, reduce_symmetry)
    estimated = stream.count * m
    if estimated > budget:
        raise BudgetExceededError(
            f"enumeration needs about {estimated} work units, budget is {budget}",
            estimated=estimated,
            budget=budget,
        )
    token = _policy_token(policy)
    cache_key = None
    if token is not None:
        cache_key = (m, n, token, _scoring_token(g), reduce_symmetry)
        cached = _aggregate_cache.get(cache_key)
        if cached is not None:
            return cached
    if workers > 1 and token is not None and stream.count > 4 * workers:
        chunks = stream.partition(workers * 4)
        tasks = [
            (m, n, token, _scoring_token(g), reduce_symmetry, c.lo, c.hi) for c in chunks
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_compute_chunk, tasks))
        result = _merge_stats(parts)
    else:
        result = _merge_stats([_stats_for_chunk(stream.iter_order_rows(), policy, g, m, n)])
    if cache_key is not None:
        _aggregate_cache[cache_key] = result
    return result


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
    budget = budget_units if budget_units is not None else resolve_budget_units()
    estimated = _dp_transitions(m, n)
    if estimated > budget:
        raise BudgetExceededError(
            f"closed form needs {estimated} work units, budget is {budget}",
            estimated=estimated,
            budget=budget,
        )
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


def agent_value(
    agent: int,
    y: str,
    z: str,
    policy: ParallelPolicy,
    g: ScoringSpec,
    m: int,
    n: int,
    reduce_symmetry: bool = True,
    jobs: int = 1,
    budget_units: int | None = None,
) -> Fraction:
    """One agent's value of a policy: mean (y='u') or worst case (y='e') over
    all profiles of her expected (z='u') or guaranteed (z='e') utility."""
    if not 1 <= agent <= n:
        raise ValueError(f"agent {agent} out of range 1..{n}")
    stats = profile_aggregates(policy, g, m, n, reduce_symmetry, jobs, budget_units)
    values = stats.expected(z) if y == "u" else stats.minimum(z)
    return values[agent - 1]


def social_welfare(
    criterion: WelfareCriterion,
    policy: ParallelPolicy,
    g: ScoringSpec,
    m: int,
    n: int,
    reduce_symmetry: bool = True,
    jobs: int = 1,
    budget_units: int | None = None,
) -> Fraction:
    """Compositional social welfare sw(x, y, z) of a policy."""
    if criterion.mode != "comp":
        raise ValueError("social_welfare expects a compositional criterion")
    stats = profile_aggregates(policy, g, m, n, reduce_symmetry, jobs, budget_units)
    values = stats.expected(criterion.z) if criterion.y == "u" else stats.minimum(criterion.z)
    if criterion.x == "u":
        return sum(values, Fraction(0))
    return min(values)


def expected_min_welfare(
    z: str,
    policy: ParallelPolicy,
    g: ScoringSpec,
    m: int,
    n: int,
    reduce_symmetry: bool = True,
    jobs: int = 1,
    budget_units: int | None = None,
) -> Fraction:
    """Mean over profiles of the per-profile minimum across agents."""
    stats = profile_aggregates(policy, g, m, n, reduce_symmetry, jobs, budget_units)
    return stats.expected_min(z)


def evaluate_criterion(
    criterion: WelfareCriterion,
    policy: ParallelPolicy,
    g: ScoringSpec,
    m: int,
    n: int,
    reduce_symmetry: bool = True,
    jobs: int = 1,
    budget_units: int | None = None,
) -> Fraction:
    if criterion.mode == "comp":
        return social_welfare(criterion, policy, g, m, n, reduce_symmetry, jobs, budget_units)
    return expected_min_welfare(criterion.z, policy, g, m, n, reduce_symmetry, jobs, budget_units)


def profile_utilities(
    policy: ParallelPolicy, profile: Profile, g: ScoringSpec
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Per-agent (expected, guaranteed) utilities of one profile."""
    structure = build_structure(policy, profile)
    return lottery_expected_utilities(structure, g), guaranteed_utilities(structure, g)


def per_profile_welfare(
    x: str, z: str, policy: ParallelPolicy, profile: Profile, g: ScoringSpec
) -> Fraction:
    """Single-profile welfare, aggregating only the agent and lottery axes.

    This is the fixed-profile counterpart of sw(x, y, z); the profile axis is
    pinned to the given profile instead of being aggregated.
    """
    hat, under = profile_utilities(policy, profile, g)
    values = hat if z == "u" else under
    if x == "u":
        return sum(values, Fraction(0))
    return min(values)


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
    jobs: int = 1,
    budget_units: int | None = None,
) -> tuple[SequentialPolicy, Fraction]:
    """Argmax of the expected per-profile minimum utility over all turn
    sequences (canonical representatives, lexicographic tie-break)."""
    budget = budget_units if budget_units is not None else resolve_budget_units()
    items = math.factorial(m) ** (n - 1)
    estimated = n**m * items * m
    if estimated > budget:
        raise BudgetExceededError(
            f"search needs about {estimated} work units, budget is {budget}",
            estimated=estimated,
            budget=budget,
        )
    best: tuple[Fraction, tuple[int, ...]] | None = None
    for turns in canonical_turn_sequences(m, n):
        policy = FromSequential(SequentialPolicy(turns))
        value = expected_min_welfare("u", policy, g, m, n, jobs=jobs, budget_units=budget)
        if best is None or value > best[0]:
            best = (value, turns)
    assert best is not None
    return SequentialPolicy(best[1]), best[0]


def _scoring_for(table: TableSpec) -> ScoringSpec:
    return ScoringSpec.borda() if table.scoring == "borda" else ScoringSpec.lexicographic()


def _all_reporting_value(
    criterion: WelfareCriterion, g: ScoringSpec, m: int, n: int, jobs: int, budget_units
) -> Fraction:
    """All-reporting column value.  Criteria that average over profiles
    (y = u) come from the closed form; the rest enumerate profiles."""
    if criterion.mode == "comp" and criterion.y == "u":
        expected, guaranteed = symmetric_aggregates(AllReporting(), g, m, n, budget_units)
        value = expected if criterion.z == "u" else guaranteed
        return n * value if criterion.x == "u" else value
    return evaluate_criterion(criterion, AllReporting(), g, m, n, jobs=jobs, budget_units=budget_units)


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
        try:
            if table.criterion.mode == "emin":
                pi_star, value_star = optimal_sequential_expected_min(
                    m, n, g, jobs=jobs, budget_units=budget_units
                )
            else:
                aggregator = Aggregator.UTILITARIAN if table.criterion.x == "u" else Aggregator.EGALITARIAN
                pi_star, value_star = optimal_sequential(m, n, g, aggregator)
            value_all = _all_reporting_value(table.criterion, g, m, n, jobs, budget_units)
            rows.append(TableRow(table_id, m, n, pi_star, value_star, value_all))
        except BudgetExceededError:
            rows.append(TableRow(table_id, m, n, None, None, None, status="timeout"))
    return rows
