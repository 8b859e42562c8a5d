"""Exception types shared across the package, and the count, stage and (0,1) probability checks."""

import numbers


class PanelDataError(ValueError):
    """Raised when input data violate the panel schema or its invariants."""


class ConfigError(ValueError):
    """Raised for invalid configuration (fold counts, grids, CLI options)."""


class EstimationError(RuntimeError):
    """Raised when an estimator cannot produce a value (empty cells, degenerate fits)."""


def check_count(value, what: str, low: int) -> int:
    """``value`` as an int; ConfigError unless it is an integer >= ``low`` and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        rule = "a non-negative integer" if low == 0 else f"an integer >= {low}"
        raise ConfigError(f"{what} must be {rule}, got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """``seed`` as an int; ConfigError unless it is a non-negative integer and not a bool."""
    return check_count(seed, "seed", 0)


def check_stage(t, T: int, what: str) -> int:
    """``t`` as an int; ConfigError unless it is an integer in 1..``T`` and not a bool.

    A number is tested against the range first, so 0 and -1 get the range
    message; 2.0 and True lie in 1..3 and fail the integer rule after it.
    """
    if isinstance(t, numbers.Real) and not 1 <= t <= T:
        raise ConfigError(f"{what} t={t} must lie in 1..{T}")
    return check_count(t, "t", 1)


def check_open_unit(value, what: str) -> None:
    """ConfigError unless ``value`` lies strictly between 0 and 1."""
    if not 0 < value < 1:
        raise ConfigError(f"{what} must lie in (0,1)")
