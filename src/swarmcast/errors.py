"""Exception types shared across the toolkit.

Each concrete class carries the process exit code and the stderr label
that ``cli.main`` reports it with.
"""


class SwarmcastError(Exception):
    """Base class for all toolkit errors; only its subclasses are raised."""

    exit_code: int
    label: str


class ConfigError(SwarmcastError):
    """Invalid configuration value or missing required setting."""

    exit_code, label = 2, "config error"


class DataError(SwarmcastError):
    """Malformed or unusable input data."""

    exit_code, label = 3, "data error"


class NumericalError(SwarmcastError):
    """Training produced a non-finite epoch loss, or a tune found no finite
    loss in any cell it scored."""

    exit_code, label = 4, "numerical error"
