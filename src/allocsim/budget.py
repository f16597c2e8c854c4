"""The work-unit budget every exhaustive computation checks before it starts.

A budget is given in seconds (``--budget``, or ``ALLOC_BUDGET_SECS``) and
turned into a deterministic cap on work units at one fixed rate.  Each
computation counts its own units, exactly or as a bound, and refuses with
:class:`~allocsim.errors.BudgetExceededError` when they exceed the cap.
"""

from __future__ import annotations

import math
import os

from .errors import BudgetExceededError

DEFAULT_BUDGET_SECS = 60.0
# Rough throughput of the enumeration hot loops (profile-stages per second on
# one desktop core); only used to turn a seconds budget into a work-unit cap.
UNITS_PER_SECOND = 200_000
BUDGET_ENV_VAR = "ALLOC_BUDGET_SECS"


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


def within_budget(estimated: int, budget_units: int | None, needs: str) -> int:
    """The budget in work units, once work estimated at ``estimated`` units
    is known to fit it; ``needs`` opens the refusal message.  ``None`` means
    the default budget."""
    budget = budget_units if budget_units is not None else resolve_budget_units()
    if estimated > budget:
        raise BudgetExceededError(
            f"{needs} {estimated} work units, budget is {budget}",
            estimated=estimated,
            budget=budget,
        )
    return budget
