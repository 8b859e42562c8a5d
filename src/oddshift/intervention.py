"""Odds-multiplier intervention primitives.

The intervention replaces each time-t treatment probability pi with

    q = delta * pi / (delta * pi + 1 - pi),

i.e. it multiplies the odds of treatment by delta while leaving units with
pi in {0, 1} untouched.  ``density_ratio`` is the corresponding likelihood
ratio between the shifted and the observational treatment distribution,
a standalone reference: the estimator's stage kernel computes the same
ratio inline for its weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_count

__all__ = [
    "incremental_propensity",
    "density_ratio",
    "DeltaGrid",
    "default_grid",
]


def _check_delta(delta) -> None:
    d = np.asarray(delta, dtype=float)
    if d.size == 0 or not np.all(np.isfinite(d) & (d > 0)):
        raise ConfigError("delta must be finite and positive")


def _check_prob(pi) -> None:
    arr = np.asarray(pi)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ConfigError("propensity must lie in [0, 1]")


def incremental_propensity(pi, delta):
    """Shifted propensity delta*pi / (delta*pi + 1 - pi).

    Accepts scalars or arrays.  Equals pi at delta = 1 and fixes the
    boundary points pi = 0 and pi = 1 for every delta.
    """
    _check_delta(delta)
    _check_prob(pi)
    pi = np.asarray(pi, dtype=float)
    out = delta * pi / (delta * pi + 1.0 - pi)
    return float(out) if out.ndim == 0 else out

def density_ratio(a, pi, delta):
    """Likelihood ratio (delta*a + 1 - a) / (delta*pi + 1 - pi).

    This is dQ/dP for a single treatment draw: the shifted probability of
    the realized arm a over its observational probability, marginal form.
    Its mean under A ~ Bernoulli(pi) is exactly one.
    """
    _check_delta(delta)
    _check_prob(pi)
    a = np.asarray(a, dtype=float)
    pi = np.asarray(pi, dtype=float)
    out = (delta * a + 1.0 - a) / (delta * pi + 1.0 - pi)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DeltaGrid:
    """Strictly increasing grid of odds multipliers in (0, inf)."""

    values: tuple

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.size == 0:
            raise ConfigError("grid must be non-empty")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("grid values must be finite")
        if vals[0] <= 0:
            raise ConfigError("grid values must be positive")
        if vals.size > 1 and np.any(np.diff(vals) <= 0):
            raise ConfigError("grid values must be strictly increasing")
        object.__setattr__(self, "values", tuple(float(v) for v in vals))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @classmethod
    def of(cls, grid) -> "DeltaGrid":
        """``grid`` itself if it is a DeltaGrid, else a DeltaGrid of its values."""
        return grid if isinstance(grid, cls) else cls(values=tuple(grid))

    @classmethod
    def log_spaced(cls, lo: float, hi: float, num: int) -> "DeltaGrid":
        if not np.all(np.isfinite([lo, hi])):
            raise ConfigError("grid values must be finite")
        if not 0 < lo <= hi:
            raise ConfigError("need 0 < lo <= hi")
        if check_count(num, "num", 1) == 1 and lo != hi:
            raise ConfigError("num must cover the endpoints")
        vals = np.exp(np.linspace(np.log(lo), np.log(hi), num))
        # pin the endpoints exactly; exp/log round-trips drift in the last ulp
        vals[0], vals[-1] = lo, hi
        return cls(values=tuple(vals))


def default_grid() -> DeltaGrid:
    """25 log-spaced odds multipliers spanning [0.1, 5]."""
    return DeltaGrid.log_spaced(0.1, 5.0, 25)
