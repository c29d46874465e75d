"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError (and subclasses) -> 3, DivergedError / DegenerateObjectiveError -> 4.
Only ``tuning.tune`` raises DegenerateObjectiveError; an optimizer that
saw nothing finite returns +inf.
"""


class SwarmcastError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SwarmcastError):
    """Invalid configuration value or missing required setting."""


class DataError(SwarmcastError):
    """Malformed or unusable input data."""


class DuplicateDateError(DataError):
    """The same calendar date appears more than once in an input file."""


class EdgeMissingError(DataError):
    """A series starts or ends with a missing value, so the neighbour-mean
    imputation rule has no defined neighbour."""


class TooShortError(DataError):
    """A series is too short for the requested window or split."""


class DivergedError(SwarmcastError):
    """Training produced a non-finite epoch loss."""


class DegenerateObjectiveError(SwarmcastError):
    """A tune found no finite loss: every cell it scored, in the search
    and in the budget's sweep, came back NaN or +inf."""


class DegenerateVarianceError(DataError):
    """The reference series is constant, so R-squared is undefined."""
