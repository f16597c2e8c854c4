"""Strategic analysis for agent 1 under the all-reporting policy.

Everything here assumes the other agents report truthfully, so the set of
objects reported at a stage is a function of the remaining set alone and the
remaining-set evolution under any fixed report sequence is deterministic.
Agent 1 is the manipulator; she is pessimistic and counts only objects she is
guaranteed to receive, i.e. objects she reports that nobody else demands at
that stage.

The feasibility test stages the objects of a claim schedule: at each round,
the targets some truthful agent would grab before any non-target, and the
truthful agents' best non-targets.  A target set is securable exactly when
the cumulative number of claimed targets stays below the round index.  The
securing report order reads the same schedule: targets in claim order, then
one taken object per round past ``|target|`` as filler.
A brute-force search over all well-defined report sequences serves as the
independent oracle for both the feasibility test and the greedy optimal
strategy construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, StrategyError
from .model import Profile, Ranking, ScoringSpec, identity_ranking

__all__ = [
    "better",
    "ManipulationProblem",
    "Strategy",
    "ClaimSchedule",
    "claim_schedule",
    "has_successful_strategy",
    "find_successful_strategy",
    "optimal_pessimistic_strategy",
    "pessimistic_utility",
    "sincere_strategy",
    "brute_force_manipulation",
    "bundle_score",
    "secured_objects",
]

DEFAULT_BRUTE_FORCE_LIMIT = 6


def bundle_score(row: Sequence[Fraction], ranking: Ranking, objects: Iterable[int]) -> Fraction:
    """Total score of ``objects`` to an agent with ``ranking``, where ``row``
    is the score row (:meth:`ScoringSpec.score_row`)."""
    return sum((row[ranking.rank_of(o)] for o in objects), Fraction(0))


def better(ranking: Ranking, candidates: frozenset[int] | set[int], benchmark: frozenset[int] | set[int]) -> frozenset[int]:
    """Members of ``candidates`` the ranking prefers to everything in
    ``benchmark``.  An empty benchmark keeps all candidates."""
    candidates = frozenset(candidates)
    benchmark = frozenset(benchmark)
    if candidates & benchmark:
        raise ValueError("candidate and benchmark sets must be disjoint")
    if not benchmark:
        return candidates
    bar = min(ranking.rank_of(o) for o in benchmark)
    return frozenset(o for o in candidates if ranking.rank_of(o) < bar)


@dataclass(frozen=True)
class ManipulationProblem:
    """The other agents' rankings plus the bundle agent 1 wants."""

    others: tuple[Ranking, ...]
    target: frozenset[int]

    def __post_init__(self):
        others = tuple(self.others)
        object.__setattr__(self, "others", others)
        object.__setattr__(self, "target", frozenset(self.target))
        if not others:
            raise ValueError("a manipulation problem needs at least one truthful opponent")
        m = others[0].m
        if any(r.m != m for r in others):
            raise ValueError("all rankings must cover the same objects")
        if not self.target <= frozenset(range(1, m + 1)):
            raise ValueError("target contains unknown objects")

    @property
    def m(self) -> int:
        return self.others[0].m


@dataclass(frozen=True)
class Strategy:
    """Agent 1's report sequence; one distinct object per stage."""

    reports: tuple[int, ...]

    def __post_init__(self):
        reports = tuple(self.reports)
        object.__setattr__(self, "reports", reports)
        if len(set(reports)) != len(reports):
            raise ValueError("a strategy must not repeat objects")


@dataclass(frozen=True)
class ClaimSchedule:
    """Stages of the feasibility construction for one target set.

    ``stages[k-1]`` is ``(available, claimed, taken)``: the objects still in
    play at round k, the targets some truthful agent would grab before any
    remaining non-target, and the truthful agents' best non-targets.  Every
    object lands in exactly one claimed or taken set.
    """

    stages: tuple[tuple[frozenset[int], frozenset[int], frozenset[int]], ...]


def claim_schedule(others: Sequence[Ranking], target: frozenset[int] | set[int]) -> ClaimSchedule:
    """Build the claim schedule of a target set against truthful opponents."""
    others = tuple(others)
    if not others:
        raise ValueError("the claim schedule needs at least one truthful opponent")
    target = frozenset(target)
    m = others[0].m
    available = frozenset(range(1, m + 1))
    stages = []
    while available:
        in_target = available & target
        out_target = available - target
        claimed = frozenset().union(*(better(r, in_target, out_target) for r in others))
        taken = frozenset(r.best_of(out_target) for r in others if out_target)
        stages.append((available, claimed, taken))
        available = available - claimed - taken
    return ClaimSchedule(tuple(stages))


def _securable(schedule: ClaimSchedule) -> bool:
    """Whether every round index strictly exceeds the cumulative number of
    targets claimed so far."""
    cumulative = 0
    for k, (_, claimed, _) in enumerate(schedule.stages, start=1):
        cumulative += len(claimed)
        if cumulative >= k:
            return False
    return True


def has_successful_strategy(problem: ManipulationProblem) -> bool:
    """Whether agent 1 can guarantee receiving every target object."""
    return _securable(claim_schedule(problem.others, problem.target))


def _pick(pool: frozenset[int], rng: random.Random | None) -> int:
    if rng is None:
        return min(pool)
    return rng.choice(sorted(pool))


def find_successful_strategy(
    problem: ManipulationProblem, rng: random.Random | None = None
) -> Strategy | None:
    """A report sequence securing the whole target set, or None.

    Reads the claim schedule: the targets first, in claim order; then, for
    each round past ``|target|``, one of that round's taken objects, so that
    play runs to exhaustion.  ``rng`` randomizes the padding pick (default:
    smallest index).  The result is checked to be well-defined before
    returning.
    """
    schedule = claim_schedule(problem.others, problem.target)
    if not _securable(schedule):
        return None
    head = [o for _, claimed, _ in schedule.stages for o in sorted(claimed)]
    tail = [_pick(taken, rng) for _, _, taken in schedule.stages[len(problem.target):] if taken]
    strategy = Strategy(tuple(head + tail))
    _simulate_reports(strategy, problem.others)  # surfaces ill-defined completions
    return strategy


def _simulate_reports(
    strategy: Strategy, others: Sequence[Ranking], m: int | None = None
) -> list[tuple[int, bool]]:
    """Play the strategy against truthful opponents.

    Returns ``(object, uncontested)`` per stage; raises
    :class:`StrategyError` when a report names an unavailable object or
    objects remain after the last report.
    """
    if not others:
        # No opponents: nothing is contested, but the sequence must still
        # run play to exhaustion when the object count is known.
        if m is not None and sorted(strategy.reports) != list(range(1, m + 1)):
            raise StrategyError("reports must cover every object exactly once")
        return [(o, True) for o in strategy.reports]
    m = others[0].m
    remaining = set(range(1, m + 1))
    result = []
    for stage, choice in enumerate(strategy.reports, start=1):
        if not remaining:
            raise StrategyError("report after all objects were allocated", stage)
        if choice not in remaining:
            raise StrategyError(f"object {choice} is no longer available", stage)
        tops = {r.best_of(remaining) for r in others}
        result.append((choice, choice not in tops))
        remaining -= tops
        remaining.discard(choice)
    if remaining:
        raise StrategyError(
            f"objects {sorted(remaining)} still available after the last report",
            len(strategy.reports),
        )
    return result


def secured_objects(strategy: Strategy, others: Sequence[Ranking]) -> frozenset[int]:
    """Objects agent 1 receives under every lottery outcome."""
    return frozenset(o for o, uncontested in _simulate_reports(strategy, others) if uncontested)


def pessimistic_utility(strategy: Strategy, profile: Profile, g: ScoringSpec) -> Fraction:
    """Agent 1's utility when she loses every lottery she takes part in.

    Validates well-definedness of the strategy against agents 2..n and sums
    the scores of her uncontested reports.
    """
    row = g.score_row(profile.m)
    plays = _simulate_reports(strategy, profile.rankings[1:], m=profile.m)
    return bundle_score(row, profile.rankings[0], (o for o, uncontested in plays if uncontested))


def sincere_strategy(profile: Profile) -> Strategy:
    """The truthful report sequence: agent 1's best remaining object at every
    stage, with everyone else truthful too."""
    others = profile.rankings[1:]
    mine = profile.rankings[0]
    remaining = set(range(1, profile.m + 1))
    reports = []
    while remaining:
        choice = mine.best_of(remaining)
        reports.append(choice)
        tops = {r.best_of(remaining) for r in others}
        remaining -= tops
        remaining.discard(choice)
    return Strategy(tuple(reports))


def optimal_pessimistic_strategy(
    profile: Profile, g: ScoringSpec, rng: random.Random | None = None
) -> tuple[Strategy, frozenset[int], Fraction]:
    """Greedy best guaranteed bundle for agent 1.

    Walks agent 1's ranking from best to worst, keeping each object whose
    addition leaves the target set securable, and returns the securing
    strategy, the achieved set and its total score.  The greedy choice is
    optimal for the lexicographic scoring function, where any rank dominates
    all worse ranks combined; for other scorings the result is a guaranteed
    (not necessarily optimal) bundle.
    """
    mine = profile.rankings[0]
    if profile.n < 2:
        strategy, achieved = Strategy(mine.order), frozenset(mine.order)
    else:
        others = profile.rankings[1:]
        achieved = frozenset()
        strategy = find_successful_strategy(ManipulationProblem(others, frozenset()), rng)
        for obj in mine.order:
            candidate = achieved | {obj}
            attempt = find_successful_strategy(ManipulationProblem(others, candidate), rng)
            if attempt is not None:
                strategy = attempt
                achieved = candidate
    return strategy, achieved, bundle_score(g.score_row(profile.m), mine, achieved)


def _play_states(others: Sequence[Ranking], m: int) -> Iterator:
    """DFS over all well-defined report sequences (deterministic evolution)."""
    # state: (remaining frozenset, reports tuple, secured tuple)
    stack = [(frozenset(range(1, m + 1)), (), frozenset())]
    while stack:
        remaining, reports, secured = stack.pop()
        if not remaining:
            yield reports, secured
            continue
        tops = {r.best_of(remaining) for r in others}
        for choice in sorted(remaining, reverse=True):
            nxt = remaining - tops - {choice}
            won = secured | {choice} if choice not in tops else secured
            stack.append((nxt, reports + (choice,), won))


def brute_force_manipulation(
    problem: ManipulationProblem,
    g: ScoringSpec,
    ranking: Ranking | None = None,
) -> tuple[bool, Fraction, Strategy | None]:
    """Exhaustive search over all well-defined report sequences.

    Returns whether some sequence secures the whole target set, the best
    pessimistic utility any sequence achieves (scored against ``ranking``,
    agent 1's own ranking, defaulting to the identity order), and a witness
    sequence securing the target when one exists.
    """
    if not problem.others:
        raise ValueError("brute force needs at least one truthful opponent")
    m = problem.m
    if m > DEFAULT_BRUTE_FORCE_LIMIT:
        raise BudgetExceededError(
            f"brute force limited to m <= {DEFAULT_BRUTE_FORCE_LIMIT}", estimated=m, budget=DEFAULT_BRUTE_FORCE_LIMIT
        )
    if ranking is None:
        ranking = identity_ranking(m)
    row = g.score_row(m)
    exists = False
    witness: Strategy | None = None
    best_value = Fraction(0)
    for reports, secured in _play_states(problem.others, m):
        value = bundle_score(row, ranking, secured)
        if value > best_value:
            best_value = value
        if problem.target <= secured and not exists:
            exists = True
            witness = Strategy(reports)
    return exists, best_value, witness
