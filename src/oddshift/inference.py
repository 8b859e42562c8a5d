"""Variance estimation, pointwise intervals, and uniform bands.

The pointwise 1-alpha interval at each grid value is
psi_hat +- z_{1-alpha/2} * sigma_hat / sqrt(n).  The uniform band replaces
the normal quantile with a critical value c_alpha from a multiplier
bootstrap: each replicate perturbs the centered influence values with
i.i.d. Rademacher signs and records the supremum over the grid of the
absolute standardized mean; c_alpha is the empirical 1-alpha quantile of
these suprema, floored at z_{1-alpha/2} so the uniform band always
contains the pointwise band.

The bootstrap runs in two passes.  The first stacks a block of
replicates' signs and takes their suprema with one matrix product; the
second recomputes, one matrix-vector product each, the few replicates
whose suprema lie within a rounding bound of the order statistics the
quantile reads.  c_alpha is therefore bitwise the quantile of the
per-replicate products, whatever the block size."""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

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
    z = ndtri(1.0 - alpha / 2.0)
    half = z * np.asarray(sigma_hat) / np.sqrt(n)
    psi_hat = np.asarray(psi_hat)
    return psi_hat - half, psi_hat + half


def check_band_options(alpha: float, B: int) -> None:
    """Reject a band level outside (0,1), or a B that is not an integer of at least 100."""
    if not 0 < alpha < 1:
        raise ConfigError("alpha must lie in (0,1)")
    if not isinstance(B, (int, np.integer)):
        raise ConfigError(f"the bootstrap replicate count B must be an integer, got {B!r}")
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


# Bytes of +-1 signs that the first bootstrap pass stacks into one block,
# so that a block of replicates costs one gemm over the standardized
# values instead of one gemv per replicate.
_SIGN_BLOCK_BYTES = 1 << 20
_UNIT_ROUNDOFF = 2.0**-53


def _signs(seed: int, b: int, n: int) -> np.ndarray:
    """Replicate b's 0/1 draws, from a stream keyed by (seed, b)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
    return rng.integers(0, 2, size=n)


def _bootstrap_quantile(
    centered: np.ndarray, sigma: np.ndarray, n: int, B: int, seed: int, level: float
) -> float:
    """The level-quantile of sup |standardized multiplier mean| over B replicates.

    Replicate b draws its signs xi from a stream keyed by (seed, b), so the
    collection is identical however replicates are scheduled or batched.
    Its statistic is max_j |sum_i xi_i s_ij| on the standardized values s.

    Pass 1 stacks a block of replicates' signs and takes all their
    statistics with one gemm.  Its rounding differs from the per-replicate
    gemv ``xi @ s``, but both are sums of n exactly signed terms, so each
    is within gamma_n * sum_i |s_ij| of the exact sum and, max |.| being
    1-Lipschitz, an approximate statistic is within
    eps = 2 gamma_n max_j sum_i |s_ij| of the gemv one.  Pass 2 recomputes
    with the gemv every replicate within 2 eps of the two order statistics
    that the linear quantile reads.  The patched statistics then count
    like the gemv ones on an interval that holds both order statistics,
    so the quantile is bitwise the one of the per-replicate gemv.
    """
    scaled = centered / (np.sqrt(n) * sigma[None, :])  # sum_i xi_i * scaled -> stat
    rows = max(1, _SIGN_BLOCK_BYTES // (8 * n))
    block = np.empty((min(rows, B), n))
    sups = np.empty(B)
    for lo in range(0, B, rows):
        signs = block[: min(rows, B - lo)]
        for r in range(signs.shape[0]):
            signs[r] = _signs(seed, lo + r, n)
        signs *= 2.0
        signs -= 1.0
        sups[lo : lo + signs.shape[0]] = np.max(np.abs(signs @ scaled), axis=1)

    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    eps = 2.0 * gamma * float(np.max(np.sum(np.abs(scaled), axis=0)))
    i = int(np.floor((B - 1) * level))  # np.quantile's linear rule reads order stats i, j
    j = min(i + 1, B - 1)
    low, high = np.partition(sups, (i, j))[[i, j]]
    window = (sups >= low - 2.0 * eps) & (sups <= high + 2.0 * eps)  # factor 2: safety
    for b in np.flatnonzero(window):
        sups[b] = np.max(np.abs((_signs(seed, int(b), n) * 2.0 - 1.0) @ scaled))
    return float(np.quantile(sups, level))


def _centered(eif: EifMatrix, psi: EffectEstimate) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma_hat, the mask sigma_hat > 0, and the centered influence values of those columns.

    Raises EstimationError naming the horizon and the deltas whose influence
    values or estimate are not finite, or overflow when centered and
    standardized: the bootstrap's rounding bound needs every standardized
    value finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = estimate_variance(eif, psi)
        usable = sigma > 0
        centered = eif.values[:, usable] - psi.psi_hat[None, usable]
        overflow = ~np.isfinite(np.sqrt(eif.n) * sigma)
    overflow[usable] |= ~np.all(np.isfinite(centered), axis=0)
    nonfinite = ~(np.all(np.isfinite(eif.values), axis=0) & np.isfinite(psi.psi_hat))
    deltas = np.asarray(eif.grid.values)
    for bad, what in (
        (nonfinite, "non-finite influence values"),
        (overflow, "influence values overflow when standardized"),
    ):
        if np.any(bad):
            raise EstimationError(
                f"{what} at t={eif.t}, delta={tuple(float(d) for d in deltas[bad])}"
            )
    return sigma, usable, centered


def _warn_excluded(eif: EifMatrix, usable: np.ndarray, where: str = "") -> tuple:
    """Warn about, and return, the delta values whose zero variance keeps them out of the sup."""
    excluded = tuple(float(d) for d in np.asarray(eif.grid.values)[~usable])
    if excluded:
        _warnings.warn(
            f"zero influence-value variance at {where}delta={excluded}; "
            "excluded from the uniform supremum"
        )
    return excluded


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
    intervals are degenerate anyway), with a warning, and reported in
    ``excluded``; a pooled horizon's are excluded and warned about by t
    and delta, but not listed in ``excluded``.
    ``pool_with`` takes further (EifMatrix, EffectEstimate) pairs from
    other horizons on the same units; their standardized columns enter
    the supremum so the critical value covers every (delta, horizon)
    jointly.  Off by default: pooling widens the band and multiplies the
    bootstrap cost.

    Non-finite influence values or estimates, in the main horizon or a
    pooled one, raise EstimationError naming the horizon and deltas, as do
    values that overflow when centered and standardized.

    The critical value comes from two passes over the B replicates: one
    matrix product per block of replicates locates the 1-alpha quantile,
    and the replicates within a rounding bound of it are recomputed one
    by one, so c_alpha_raw is bitwise the quantile of per-replicate
    matrix-vector products and does not depend on the block size.
    """
    check_band_options(alpha, B)
    n = eif.n
    if n < 2:
        raise EstimationError("band needs at least two units")
    sigma, usable, main = _centered(eif, psi)
    centered = [main]
    sigmas = [sigma[usable]]
    for other_eif, other_psi in pool_with:
        if other_eif.n != n:
            raise ConfigError("pooled horizons must cover the same units")
        s, keep, other = _centered(other_eif, other_psi)
        _warn_excluded(other_eif, keep, f"pooled horizon t={other_eif.t}, ")
        centered.append(other)
        sigmas.append(s[keep])
    excluded = _warn_excluded(eif, usable)
    if not np.any(usable):
        raise EstimationError("all grid points have zero variance; no band")
    c_raw = _bootstrap_quantile(
        np.concatenate(centered, axis=1), np.concatenate(sigmas), n, B, seed, 1.0 - alpha
    )
    z = float(ndtri(1.0 - alpha / 2.0))
    c_alpha = max(c_raw, z)  # the sup statistic dominates each pointwise |Z|
    lo, hi = pointwise_interval(psi.psi_hat, sigma, n, alpha)
    half = c_alpha * sigma / np.sqrt(n)
    return ConfidenceBand(
        alpha=alpha,
        deltas=np.asarray(eif.grid.values),
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
