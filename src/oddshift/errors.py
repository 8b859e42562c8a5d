"""Exception types shared across the package, and the one rule every seed obeys."""

import numbers


class PanelDataError(ValueError):
    """Raised when input data violate the panel schema or its invariants."""


class ConfigError(ValueError):
    """Raised for invalid configuration (fold counts, grids, CLI options)."""


class EstimationError(RuntimeError):
    """Raised when an estimator cannot produce a value (empty cells, degenerate fits)."""


def check_seed(seed) -> int:
    """``seed`` as an int; ConfigError unless it is a non-negative integer and not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)
