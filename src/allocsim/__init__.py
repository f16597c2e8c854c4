"""Allocation protocols for indivisible goods.

A library and CLI for simulating and analyzing two elicitation-free ways of
handing out indivisible objects to agents with strict rank-based preferences:
agents picking in turn according to a fixed sequence, and a parallel protocol
where designated reporters simultaneously demand their best remaining object
and contested objects are raffled.  Includes exact expected / guaranteed
utilities, eight compositional social-welfare criteria plus an expected-min
criterion, exhaustive optimal-sequence search, and the strategic analysis of
a single manipulator against truthful opponents.

A turn sequence is a parallel policy with one reporter per stage
(``FromSequential``): ``build_structure`` plays it on one profile,
``profile_utilities`` scores that run, and ``agent_value`` and
``evaluate_criterion`` average it over the profile space like any policy.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    PolicyViolationError,
    ProfileParseError,
    StrategyError,
)
from .model import (
    Profile,
    ProfileStream,
    Ranking,
    ScoringSpec,
    enumerate_profiles,
    identity_ranking,
    parse_profile_text,
    parse_scoring_text,
)
from .sequential import (
    Aggregator,
    SequentialPolicy,
    optimal_sequential,
)
from .parallel import (
    AllocationStructure,
    AllReporting,
    CustomPolicy,
    DemandSituation,
    FromSequential,
    LoserReporting,
    ParallelPolicy,
    STOP,
    build_structure,
    enumerate_outcomes,
    parse_policy,
)
from .welfare import (
    TableRow,
    WelfareCriterion,
    agent_value,
    evaluate_criterion,
    expected_min_welfare,
    parse_criterion,
    profile_utilities,
    reproduce_table,
)
from .manipulation import (
    ManipulationProblem,
    Strategy,
    better,
    brute_force_manipulation,
    find_successful_strategy,
    has_successful_strategy,
    optimal_pessimistic_strategy,
    pessimistic_utility,
    claim_schedule,
    secured_objects,
    sincere_strategy,
)
