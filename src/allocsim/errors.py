"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary domain errors (bad indices, malformed
rankings, out-of-range scoring arguments).  The classes below mark conditions a
caller may want to handle separately, and the CLI maps them to exit codes.
"""


class ProfileParseError(ValueError):
    """A profile or scoring file could not be parsed.

    ``line`` is the 1-based offending line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PolicyViolationError(RuntimeError):
    """A policy broke the protocol contract: a reporter set that is empty or
    out of range while objects remain, or a turn sequence that does not fit
    the objects and agents it is played with."""


class BudgetExceededError(RuntimeError):
    """A computation was refused or aborted because its deterministic work
    estimate exceeds the configured budget."""

    def __init__(self, message: str, estimated: int | None = None, budget: int | None = None):
        self.estimated = estimated
        self.budget = budget
        super().__init__(message)


class StrategyError(ValueError):
    """A manipulation strategy is not well-defined against the given
    opponents.  ``stage`` is the 1-based stage where play breaks down."""

    def __init__(self, message: str, stage: int | None = None):
        self.stage = stage
        if stage is not None:
            message = f"stage {stage}: {message}"
        super().__init__(message)
