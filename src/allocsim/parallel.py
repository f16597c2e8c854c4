"""Parallel allocation protocol: reporter-selection policies, allocation
structures, and the per-profile expected / guaranteed utility recursions.

At each stage a policy designates a set of reporters; every reporter demands
her best remaining object; every demanded object is allocated, with a fair
lottery among the agents demanding it.  The possible runs for one profile form
an acyclic structure whose edges are labeled by the set of lottery losers.
All winner combinations of a stage are equiprobable, which is the same thing
as independent fair lotteries per contested object.

Two per-agent values are computed at every node:

* the expected utility over lottery outcomes (``lottery_expected_utilities``),
* the guaranteed utility an agent keeps even when she loses every lottery she
  takes part in (``guaranteed_utilities``).

For a policy embedding a turn sequence there is a single run and both equal
the realized sequential utility.

Every per-profile value the package reports comes from the integer
kernels at the end of this module: ``all_reporting_values_scaled`` for
all-reporting, ``sequential_values_scaled`` for a turn sequence and
``policy_values_scaled`` for any other policy.  Over the profile space only
``policy_values_scaled`` runs; :mod:`allocsim.welfare` serves all-reporting
and turn sequences there without enumerating profiles, and the tests hold
that to a profile pass of the other two kernels.  The structure draws
``simulate``'s stage trace.  Its two recursions are, with
:func:`enumerate_outcomes`, the reference the tests hold the kernels to;
they are not exported from the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Sequence

from .errors import BudgetExceededError, PolicyViolationError
from .model import Profile, ScoringSpec
from .sequential import SequentialPolicy

__all__ = [
    "ParallelPolicy",
    "AllReporting",
    "LoserReporting",
    "FromSequential",
    "CustomPolicy",
    "parse_policy",
    "DemandSituation",
    "STOP",
    "AllocationStructure",
    "build_structure",
    "enumerate_outcomes",
]

DEFAULT_OUTCOME_BUDGET = 10**6


# ---------------------------------------------------------------------------
# Policies
#
# A policy is formally a function from the history of (reporters, losers)
# pairs to the next reporter set.  Each built-in policy only looks at a small
# summary of that history, captured as an explicit state so that structure
# nodes reached through different histories can be merged when (and only
# when) the policy cannot tell them apart.


class ParallelPolicy:
    """Base class; subclasses decide who reports at each stage."""

    literal: str = "custom"

    def initial_state(self):
        return None

    def reporters(self, state, n: int) -> frozenset[int]:
        raise NotImplementedError

    def advance(self, state, reporters: frozenset[int], losers: frozenset[int]):
        """State after one stage with the given reporters and losers."""
        raise NotImplementedError

    def check_fit(self, m: int, n: int) -> None:
        """Refuse play with ``m`` objects and ``n`` agents; only a turn sequence
        can misfit.  Every route asks this once, before any budget or walk."""

    def describe(self) -> str:
        return self.literal


class AllReporting(ParallelPolicy):
    """Every agent reports at every stage."""

    literal = "all"

    def reporters(self, state, n: int) -> frozenset[int]:
        return frozenset(range(1, n + 1))

    def advance(self, state, reporters, losers):
        return None


class LoserReporting(ParallelPolicy):
    """Only the previous stage's lottery losers report; everyone reports when
    there were none."""

    literal = "loser"

    def reporters(self, state, n: int) -> frozenset[int]:
        if state:
            return state
        return frozenset(range(1, n + 1))

    def advance(self, state, reporters, losers):
        return losers if losers else frozenset()


class FromSequential(ParallelPolicy):
    """A turn sequence viewed as a parallel policy: a single reporter per
    stage, so every run is the sequential history."""

    def __init__(self, policy: SequentialPolicy):
        self.policy = policy

    @property
    def literal(self) -> str:  # type: ignore[override]
        return "seq:" + self.policy.literal()

    def initial_state(self):
        return 0

    def check_fit(self, m: int, n: int) -> None:
        self.policy.check_fit(m, n)

    def reporters(self, state, n: int) -> frozenset[int]:
        if state >= self.policy.m:
            raise PolicyViolationError(
                f"turn sequence exhausted after {self.policy.m} stages with objects remaining"
            )
        agent = self.policy.turns[state]
        if agent > n:
            raise PolicyViolationError(f"turn {state + 1} names agent {agent} but there are {n} agents")
        return frozenset((agent,))

    def advance(self, state, reporters, losers):
        return state + 1


class CustomPolicy(ParallelPolicy):
    """A policy given as an arbitrary function of the full stage history.

    ``fn`` receives a tuple of ``(reporters, losers)`` frozenset pairs and
    must return the next reporter set.  No history summarization is assumed,
    so structure nodes are merged only for identical histories.
    """

    def __init__(self, fn: Callable[[tuple], Sequence[int]], name: str = "custom"):
        self.fn = fn
        self.literal = name

    def initial_state(self):
        return ()

    def reporters(self, state, n: int) -> frozenset[int]:
        result = frozenset(self.fn(state))
        if not result:
            raise PolicyViolationError("policy returned an empty reporter set while objects remain")
        if not result <= frozenset(range(1, n + 1)):
            raise PolicyViolationError(f"policy returned out-of-range agents {sorted(result)}")
        return result

    def advance(self, state, reporters, losers):
        return state + ((reporters, losers),)


def parse_policy(literal: str) -> ParallelPolicy:
    if literal == "all":
        return AllReporting()
    if literal == "loser":
        return LoserReporting()
    if literal.startswith("seq:"):
        return FromSequential(SequentialPolicy.from_literal(literal))
    raise ValueError(f"unknown policy literal {literal!r}")


# ---------------------------------------------------------------------------
# Allocation structures


class _Stop:
    def __repr__(self):
        return "STOP"


STOP = _Stop()


@dataclass(eq=False)
class DemandSituation:
    """A protocol state: remaining objects plus each reporter's demand.

    ``stage`` is the first stage that reaches the node: one more than the
    fewest stages of any run leading to it.  ``edges`` holds one entry per
    possible loser set, each a ``(losers, target)`` pair where target is
    another node or :data:`STOP`.  Distinct loser sets are equiprobable.
    """

    remaining: frozenset[int]
    reporters: frozenset[int]
    demands: dict[int, int]
    stage: int
    edges: tuple[tuple[frozenset[int], "DemandSituation | _Stop"], ...] = ()

    @property
    def reported(self) -> frozenset[int]:
        return frozenset(self.demands.values())

    @property
    def out_degree(self) -> int:
        return len(self.edges)

    def contenders(self) -> dict[int, tuple[int, ...]]:
        """Demanded object -> agents demanding it."""
        groups: dict[int, list[int]] = {}
        for agent in sorted(self.reporters):
            groups.setdefault(self.demands[agent], []).append(agent)
        return {o: tuple(agents) for o, agents in groups.items()}


@dataclass
class AllocationStructure:
    """All demand situations reachable under truthful reporting, as a DAG."""

    root: DemandSituation
    nodes: tuple[DemandSituation, ...]
    policy: ParallelPolicy
    profile: Profile

    @property
    def n(self) -> int:
        return self.profile.n

    @property
    def m(self) -> int:
        return self.profile.m


def build_structure(policy: ParallelPolicy, profile: Profile) -> AllocationStructure:
    """Build the structure of all truthful runs of ``policy`` on ``profile``.

    The policy's fit to the profile is checked first.  Nodes are merged when
    they share the remaining set, the reporter set and the policy's own view
    of the history; truthful demands are determined by the first two plus the
    fixed profile.  Every stage must have a reporter, so every edge removes
    at least one object and the structure is acyclic.  The walk is
    breadth-first, so ``nodes`` lists the nodes by stage, each stage in the
    order its nodes are first reached.
    """
    n, m = profile.n, profile.m
    policy.check_fit(m, n)
    rankings = profile.rankings
    memo: dict = {}
    queue: list[tuple[DemandSituation, object]] = []

    def reach(remaining: frozenset[int], state, stage: int) -> DemandSituation:
        node = memo.get((remaining, state))
        if node is None:
            reporters = policy.reporters(state, n)
            if not reporters:
                raise PolicyViolationError("a stage with no reporters removes no object")
            demands = {i: rankings[i - 1].best_of(remaining) for i in sorted(reporters)}
            node = memo[remaining, state] = DemandSituation(remaining, reporters, demands, stage)
            queue.append((node, state))
        return node

    root = reach(frozenset(range(1, m + 1)), policy.initial_state(), 1)
    for node, state in queue:  # the queue grows while it is walked
        contested = [(o, agents) for o, agents in sorted(node.contenders().items()) if len(agents) > 1]
        next_remaining = node.remaining - node.reported
        edges = []
        for winners in itertools.product(*(agents for _, agents in contested)):
            losers = frozenset(
                a for (_, agents), w in zip(contested, winners) for a in agents if a != w
            )
            if next_remaining:
                target = reach(next_remaining, policy.advance(state, node.reporters, losers), node.stage + 1)
            else:
                target = STOP
            edges.append((losers, target))
        node.edges = tuple(edges)
    return AllocationStructure(root=root, nodes=tuple(node for node, _ in queue), policy=policy, profile=profile)


def lottery_expected_utilities(structure: AllocationStructure, g: ScoringSpec) -> tuple[Fraction, ...]:
    """Per-agent expected utility at the root, over all lottery outcomes.
    The test reference for :func:`policy_values_scaled`; no command uses it.

    At each node an agent demanding an object contested by c agents banks
    1/c of its score; the continuation averages the children, counting one
    equiprobable branch per distinct loser set.  The recursion runs in
    integers times ``lcm(1..n) ** m``, which clears every such division (see
    :func:`policy_values_scaled`), and divides once at the root.
    """
    n, m = structure.n, structure.m
    int_row, denom = g.integer_row(m)
    scale = math.lcm(*range(1, n + 1)) ** m
    ranks = structure.profile.rank_rows()
    zero = (0,) * n
    memo: dict[int, tuple[int, ...]] = {}

    def value(node) -> tuple[int, ...]:
        if node is STOP:
            return zero
        got = memo.get(id(node))
        if got is not None:
            return got
        groups = node.contenders()
        stage = [0] * n
        for agent in node.reporters:
            obj = node.demands[agent]
            stage[agent - 1] = int_row[ranks[agent - 1][obj]] * scale // len(groups[obj])
        acc = zero
        for _, target in node.edges:
            acc = tuple(map(add, acc, value(target)))
        out = node.out_degree
        result = tuple(s + a // out for s, a in zip(stage, acc))
        memo[id(node)] = result
        return result

    result = tuple(Fraction(v, scale * denom) for v in value(structure.root))
    del value  # it refers to itself; breaking that cycle frees the memo now, not at a collection
    return result


def guaranteed_utilities(structure: AllocationStructure, g: ScoringSpec) -> tuple[Fraction, ...]:
    """Per-agent utility guaranteed regardless of lottery outcomes.
    The test reference for :func:`policy_values_scaled`; no command uses it.

    Minimum over branches; a branch adds the agent's banked score only when
    she reported and is not among that branch's losers.  The recursion runs
    on the integer score row and divides by its denominator at the root.
    """
    n, m = structure.n, structure.m
    int_row, denom = g.integer_row(m)
    ranks = structure.profile.rank_rows()
    zero = (0,) * n
    memo: dict[int, tuple[int, ...]] = {}

    def value(node) -> tuple[int, ...]:
        if node is STOP:
            return zero
        got = memo.get(id(node))
        if got is not None:
            return got
        gains = [0] * n
        for agent in node.reporters:
            gains[agent - 1] = int_row[ranks[agent - 1][node.demands[agent]]]
        best = None
        for losers, target in node.edges:
            won = [0 if i + 1 in losers else gain for i, gain in enumerate(gains)]
            branch = tuple(map(add, won, value(target)))
            best = branch if best is None else tuple(map(min, best, branch))
        memo[id(node)] = best  # every non-Stop node has at least one edge
        return best

    result = tuple(Fraction(v, denom) for v in value(structure.root))
    del value  # it refers to itself; breaking that cycle frees the memo now, not at a collection
    return result


def enumerate_outcomes(
    structure: AllocationStructure, max_outcomes: int = DEFAULT_OUTCOME_BUDGET
) -> list[tuple[dict[int, frozenset[int]], Fraction]]:
    """Every complete run with its probability.

    Returns ``(allocation, probability)`` pairs where allocation maps each
    agent to the objects she won.  Probabilities sum to one; each node splits
    its mass equally among its loser-set branches.  Mainly an oracle for the
    recursive values, so it enumerates paths without any merging.
    """
    n = structure.n
    outcomes: list[tuple[dict[int, frozenset[int]], Fraction]] = []

    def walk(node, holdings: dict[int, frozenset[int]], prob: Fraction):
        if node is STOP:
            outcomes.append((dict(holdings), prob))
            return
        if len(outcomes) > max_outcomes:
            raise BudgetExceededError(
                f"more than {max_outcomes} outcomes", budget=max_outcomes
            )
        share = prob / node.out_degree
        for losers, target in node.edges:
            updated = dict(holdings)
            for agent in node.reporters:
                if agent not in losers:
                    updated[agent] = updated[agent] | {node.demands[agent]}
            walk(target, updated, share)

    walk(structure.root, {i: frozenset() for i in range(1, n + 1)}, Fraction(1))
    return outcomes


# ---------------------------------------------------------------------------
# Integer per-profile kernels used by the welfare enumerations.  These bypass
# structure construction; the test suite pins them to the recursive values.


def all_reporting_values_scaled(
    order_rows: Sequence[tuple[int, ...]], int_row: Sequence[int], scale: int
) -> tuple[list[int], list[int]]:
    """Expected and guaranteed utilities under all-reporting, times ``scale``.

    Under all-reporting every demanded object leaves play whoever wins, so
    the remaining set evolves deterministically: an agent banks score/c for a
    demand contested by c agents and keeps the full score exactly when she is
    the lone demander.  ``scale`` must be divisible by 1..n.
    """
    n = len(order_rows)
    m = len(order_rows[0])
    ptr = [0] * n
    taken = [False] * (m + 1)
    expected = [0] * n
    guaranteed = [0] * n
    left = m
    while left > 0:
        tops = []
        for i, row in enumerate(order_rows):
            p = ptr[i]
            t = row[p]
            while taken[t]:
                p += 1
                t = row[p]
            ptr[i] = p
            tops.append(t)
        for i, t in enumerate(tops):
            c = tops.count(t)
            s = int_row[ptr[i] + 1] * scale
            if c == 1:
                expected[i] += s
                guaranteed[i] += s
            else:
                expected[i] += s // c
            if not taken[t]:
                taken[t] = True
                left -= 1
    return expected, guaranteed


def sequential_values_scaled(
    turns: Sequence[int], order_rows: Sequence[tuple[int, ...]], int_row: Sequence[int], scale: int
) -> list[int]:
    """Realized per-agent utilities of a turn sequence, times ``scale``."""
    n = len(order_rows)
    m = len(order_rows[0])
    taken = [False] * (m + 1)
    ptr = [0] * n
    totals = [0] * n
    for agent in turns:
        row = order_rows[agent - 1]
        p = ptr[agent - 1]
        while taken[row[p]]:
            p += 1
        ptr[agent - 1] = p
        taken[row[p]] = True
        totals[agent - 1] += int_row[p + 1] * scale
    return totals


def policy_values_scaled(
    policy: ParallelPolicy,
    order_rows: Sequence[tuple[int, ...]],
    int_row: Sequence[int],
    scale: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Expected and guaranteed utilities under any policy, times ``scale``.

    The same two recursions as :func:`lottery_expected_utilities` and
    :func:`guaranteed_utilities`, memoized on (remaining objects as a
    bitmask, policy state) like :func:`build_structure`, without building
    the structure.  The policy is only asked for its ``initial_state``,
    ``reporters`` and ``advance``.  Each stage averages over at most as many
    contested objects as it removes, each contested by at most n agents, so
    every value times ``lcm(1..n) ** m`` is an integer and ``scale`` must be
    a multiple of it.
    """
    n = len(order_rows)
    m = len(order_rows[0])
    reporters_at, advance = policy.reporters, policy.advance
    memo: dict = {}
    no_losers: frozenset[int] = frozenset()

    def value(remaining: int, state) -> tuple[tuple[int, ...], tuple[int, ...]]:
        key = (remaining, state)
        got = memo.get(key)
        if got is not None:
            return got
        reporters = reporters_at(state, n)
        groups: dict[int, list[int]] = {}
        gains = [0] * n
        for agent in reporters:
            row = order_rows[agent - 1]
            p = 0
            while not remaining >> row[p] & 1:
                p += 1
            groups.setdefault(row[p], []).append(agent)
            gains[agent - 1] = int_row[p + 1] * scale
        if not groups:
            raise PolicyViolationError("a stage with no reporters removes no object")
        left = remaining
        for obj in groups:
            left &= ~(1 << obj)
        contested = [agents for agents in groups.values() if len(agents) > 1]
        if not contested:
            if left:
                child_e, child_g = value(left, advance(state, reporters, no_losers))
                result = (tuple(map(add, gains, child_e)), tuple(map(add, gains, child_g)))
            else:
                result = (tuple(gains), tuple(gains))
            memo[key] = result
            return result
        stage = list(gains)
        for agents in contested:
            for agent in agents:
                stage[agent - 1] //= len(agents)
        acc = best = None
        out = 0
        for winners in itertools.product(*contested):
            losers = frozenset(a for agents, w in zip(contested, winners) for a in agents if a != w)
            if left:
                child_e, child_g = value(left, advance(state, reporters, losers))
            else:
                child_e = child_g = (0,) * n
            won = list(gains)
            for agent in losers:
                won[agent - 1] = 0
            won = list(map(add, won, child_g))
            if acc is None:
                acc, best = list(child_e), won
            else:
                acc = list(map(add, acc, child_e))
                best = list(map(min, best, won))
            out += 1
        result = (tuple(s + a // out for s, a in zip(stage, acc)), tuple(best))
        memo[key] = result
        return result

    result = value((1 << (m + 1)) - 2, policy.initial_state())
    del value  # it refers to itself; breaking that cycle frees the memo now, not at a collection
    return result
