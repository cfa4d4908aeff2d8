"""Exception types shared across the toolkit.

Data problems (unparseable files, out-of-domain values, series too short)
derive from :class:`DataError`; failures of the numerical core (singular
solves, empty feasible sets) derive from :class:`NumericalError`.  The CLI
maps the two families to distinct exit codes.
"""


class ForecastError(Exception):
    """Base class for every toolkit-specific failure."""


class DataError(ForecastError, ValueError):
    """Input data is unusable for the requested operation."""


class ParseError(DataError):
    """A file could not be parsed; the message names the offending line."""


class DomainError(DataError):
    """A value lies outside its valid domain (e.g. a non-positive price)."""


class InsufficientDataError(DataError):
    """Too few observations for the requested construction."""


class NumericalError(ForecastError, ArithmeticError):
    """A computation failed for numerical reasons."""


class IllConditionedError(NumericalError):
    """A linear solve hit numerical singularity."""

    def __init__(self, message: str, condition_number: float | None = None):
        super().__init__(message)
        self.condition_number = condition_number


class NoFeasibleSubspaceError(NumericalError):
    """No subspace dimension can be selected under the condition-number cap."""

    def __init__(self, message: str, min_condition_number: float | None = None):
        super().__init__(message)
        self.min_condition_number = min_condition_number
