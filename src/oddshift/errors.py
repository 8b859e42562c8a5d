"""Exception types shared across the package, and the checks for counts and (0,1) probabilities."""

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


def check_open_unit(value, what: str) -> None:
    """ConfigError unless ``value`` lies strictly between 0 and 1."""
    if not 0 < value < 1:
        raise ConfigError(f"{what} must lie in (0,1)")
