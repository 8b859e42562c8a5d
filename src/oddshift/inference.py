"""Variance estimation, pointwise intervals, and uniform bands.

The pointwise 1-alpha interval at each grid value is
psi_hat +- z_{1-alpha/2} * sigma_hat / sqrt(n).  The uniform band replaces
the normal quantile with a critical value c_alpha from a multiplier
bootstrap: each replicate perturbs the centered influence values with
i.i.d. Rademacher signs and records the supremum over the grid of the
absolute standardized mean; c_alpha is the empirical 1-alpha quantile of
these suprema, floored at z_{1-alpha/2} so the uniform band always
contains the pointwise band.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .errors import ConfigError, EstimationError
from .estimator import EffectEstimate, EifMatrix, _sigma_hat

__all__ = [
    "ConfidenceBand",
    "check_band_options",
    "estimate_variance",
    "pointwise_interval",
    "uniform_band",
]

def estimate_variance(eif: EifMatrix, psi: EffectEstimate) -> np.ndarray:
    """Per-delta influence-value standard deviation sigma_hat.

    sigma_hat^2 is the mean squared deviation of the per-unit influence
    values around the reported estimate (population-style denominator n).
    """
    if eif.values.shape[1] != psi.psi_hat.shape[0]:
        raise ConfigError("influence matrix and estimate use different grids")
    return _sigma_hat(eif.values, psi.psi_hat)


def pointwise_interval(
    psi_hat: np.ndarray, sigma_hat: np.ndarray, n: int, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-delta interval with half-width z_{1-alpha/2} sigma / sqrt(n)."""
    if not 0 < alpha < 1:
        raise ConfigError("alpha must lie in (0,1)")
    z = norm.ppf(1.0 - alpha / 2.0)
    half = z * np.asarray(sigma_hat) / np.sqrt(n)
    psi_hat = np.asarray(psi_hat)
    return psi_hat - half, psi_hat + half


def check_band_options(alpha: float, B: int) -> None:
    """Reject a band level outside (0,1) or fewer than 100 bootstrap replicates."""
    if not 0 < alpha < 1:
        raise ConfigError("alpha must lie in (0,1)")
    if B < 100:
        raise ConfigError("need at least 100 bootstrap replicates")


@dataclass
class ConfidenceBand:
    """Pointwise and uniform bands over the delta grid."""

    alpha: float
    deltas: np.ndarray
    psi_hat: np.ndarray
    pointwise_lo: np.ndarray
    pointwise_hi: np.ndarray
    uniform_lo: np.ndarray
    uniform_hi: np.ndarray
    c_alpha: float
    c_alpha_raw: float
    B: int
    seed: int
    excluded: tuple = ()


def _bootstrap_sup(
    centered: np.ndarray, sigma: np.ndarray, n: int, B: int, seed: int
) -> np.ndarray:
    """Suprema of |standardized multiplier means| for B replicates.

    Replicate b draws its signs from a stream keyed by (seed, b), so the
    collection is identical however replicates are scheduled or batched.
    """
    scaled = centered / (np.sqrt(n) * sigma[None, :])  # sum_i xi_i * scaled -> stat
    sups = np.empty(B)
    for b in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        xi = rng.integers(0, 2, size=n) * 2.0 - 1.0
        sups[b] = np.max(np.abs(xi @ scaled))
    return sups


def uniform_band(
    eif: EifMatrix,
    psi: EffectEstimate,
    alpha: float = 0.05,
    B: int = 10_000,
    seed: int = 0,
    pool_with: tuple = (),
) -> ConfidenceBand:
    """Multiplier-bootstrap uniform band over the delta grid at fixed horizon.

    Grid points with zero sigma are excluded from the supremum (their
    intervals are degenerate anyway) and reported in ``excluded``.
    ``pool_with`` takes further (EifMatrix, EffectEstimate) pairs from
    other horizons on the same units; their standardized columns enter
    the supremum so the critical value covers every (delta, horizon)
    jointly.  Off by default: pooling widens the band and multiplies the
    bootstrap cost.
    """
    check_band_options(alpha, B)
    n = eif.n
    if n < 2:
        raise EstimationError("band needs at least two units")
    sigma = estimate_variance(eif, psi)
    usable = sigma > 0
    deltas = np.asarray(eif.grid.values)
    excluded = tuple(float(d) for d in deltas[~usable])
    if excluded:
        _warnings.warn(
            f"zero influence-value variance at delta={excluded}; "
            "excluded from the uniform supremum"
        )
    if not np.any(usable):
        raise EstimationError("all grid points have zero variance; no band")
    centered = [eif.values[:, usable] - psi.psi_hat[None, usable]]
    sigmas = [sigma[usable]]
    for other_eif, other_psi in pool_with:
        if other_eif.n != n:
            raise ConfigError("pooled horizons must cover the same units")
        s = estimate_variance(other_eif, other_psi)
        keep = s > 0
        centered.append(other_eif.values[:, keep] - other_psi.psi_hat[None, keep])
        sigmas.append(s[keep])
    sups = _bootstrap_sup(
        np.concatenate(centered, axis=1), np.concatenate(sigmas), n, B, seed
    )
    z = float(norm.ppf(1.0 - alpha / 2.0))
    c_raw = float(np.quantile(sups, 1.0 - alpha))
    c_alpha = max(c_raw, z)  # the sup statistic dominates each pointwise |Z|
    lo, hi = pointwise_interval(psi.psi_hat, sigma, n, alpha)
    half = c_alpha * sigma / np.sqrt(n)
    return ConfidenceBand(
        alpha=alpha,
        deltas=deltas,
        psi_hat=psi.psi_hat.copy(),
        pointwise_lo=lo,
        pointwise_hi=hi,
        uniform_lo=psi.psi_hat - half,
        uniform_hi=psi.psi_hat + half,
        c_alpha=c_alpha,
        c_alpha_raw=c_raw,
        B=B,
        seed=seed,
        excluded=excluded,
    )
