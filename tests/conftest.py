import itertools
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from allocsim.model import Profile, Ranking, ScoringSpec
from allocsim.welfare import BUDGET_ENV_VAR, profile_utilities

# Property tests draw the same examples on every machine and keep no example
# database between runs.
settings.register_profile("allocsim", derandomize=True, database=None, deadline=None)
settings.load_profile("allocsim")

# Without a database Hypothesis still caches what it parses from the source
# files, already while tests are collected; keep that out of the working tree.
_hypothesis_storage = tempfile.TemporaryDirectory(prefix="allocsim-hypothesis-")
set_hypothesis_home_dir(_hypothesis_storage.name)


@pytest.fixture(autouse=True)
def default_budget(monkeypatch):
    """Run every test, and every CLI subprocess it starts, at the default
    budget, whatever ``ALLOC_BUDGET_SECS`` the caller has exported."""
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)


@pytest.fixture
def example_profile() -> Profile:
    """The worked m=5, n=3 profile used across the suite."""
    return Profile(
        (
            Ranking((1, 2, 3, 4, 5)),
            Ranking((4, 2, 5, 1, 3)),
            Ranking((1, 3, 5, 4, 2)),
        )
    )


@pytest.fixture
def borda() -> ScoringSpec:
    return ScoringSpec.borda()


@pytest.fixture
def lex() -> ScoringSpec:
    return ScoringSpec.lexicographic()


@pytest.fixture
def full_stream_reference():
    """``reference(policy, g, m, n)[z]`` is ``(mean, minimum, mean_min)``:
    the per-agent mean and minimum over every profile of the expected
    (``z = "u"``) or guaranteed (``z = "e"``) utility, and the mean of the
    per-profile minimum across agents.  It folds :func:`profile_utilities`
    over all ``(m!)**n`` profiles, built here from ``itertools``, so it holds
    the symmetry-reduced pass to an enumeration and accumulation that share
    no code with it."""

    def reference(policy, g, m, n):
        values = [
            dict(zip("ue", profile_utilities(policy, Profile(tuple(map(Ranking, orders))), g)))
            for orders in itertools.product(itertools.permutations(range(1, m + 1)), repeat=n)
        ]
        total = len(values)
        return {
            z: (
                tuple(sum(v[z][i] for v in values) / total for i in range(n)),
                tuple(min(v[z][i] for v in values) for i in range(n)),
                sum(min(v[z]) for v in values) / total,
            )
            for z in "ue"
        }

    return reference
