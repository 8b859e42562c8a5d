"""Variance estimation, pointwise intervals, and uniform bands.

The pointwise 1-alpha interval at each grid value is
psi_hat +- z_{1-alpha/2} * sigma_hat / sqrt(n).  The uniform band replaces
the normal quantile with a critical value c_alpha from a multiplier
bootstrap: each replicate perturbs the centered influence values with
i.i.d. Rademacher signs and records the supremum over the grid of the
absolute standardized mean; c_alpha is the empirical 1-alpha quantile of
these suprema, floored at z_{1-alpha/2} so the uniform band always
contains the pointwise band.  Replicate b's signs come from its own PCG64
stream, that of ``SeedSequence(seed, spawn_key=(b,))``, whose key is
derived with every other replicate's in one vectorised pass: sign i is the
top bit of the i-th 32-bit half of the stream's raw words, low half first,
which is bitwise what ``numpy.random.Generator.integers(0, 2)`` draws from
the same stream.

The bootstrap runs in two passes.  The first stacks a block of
replicates' signs, as float32 +-1, and takes their suprema in float32
products over chunks of the units whose partial sums go on in float64;
the second recomputes, one float64 matrix-vector product each, the few
replicates whose suprema lie within a proven rounding bound of the order
statistics the quantile reads.  c_alpha is therefore bitwise the quantile
of the per-replicate products, whatever the block size."""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, EstimationError, check_count, check_open_unit, check_seed
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
    """Symmetric per-delta interval with half-width z_{1-alpha/2} sigma / sqrt(n), n >= 1."""
    check_count(n, "n", 1)
    check_open_unit(alpha, "alpha")
    z = ndtri(1.0 - alpha / 2.0)
    half = z * np.asarray(sigma_hat) / np.sqrt(n)
    psi_hat = np.asarray(psi_hat)
    return psi_hat - half, psi_hat + half


def check_band_options(alpha: float, B: int) -> None:
    """Reject a band level outside (0,1), or a B that is not an integer in [100, 2^32]."""
    check_open_unit(alpha, "alpha")
    if not isinstance(B, (int, np.integer)):
        raise ConfigError(f"the bootstrap replicate count B must be an integer, got {B!r}")
    if B < 100:
        raise ConfigError("need at least 100 bootstrap replicates")
    if B > 2**32:
        raise ConfigError("at most 2^32 bootstrap replicates, one spawn-key word each")


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


# Bytes of float32 +-1 signs that the first bootstrap pass stacks into
# one block, so that a block of replicates costs one stacked product over
# the standardized values instead of one gemv per replicate.
_SIGN_BLOCK_BYTES = 1 << 21
# Units per float32 partial sum in the first pass: the rounding bound, and
# so the number of replicates the second pass recomputes, grows with it.
_CHUNK = 256
_UNIT_ROUNDOFF, _F32_ROUNDOFF, _F32_TINY = 2.0**-53, 2.0**-24, 2.0**-126

# numpy's SeedSequence hash constants, which ``_stream_keys`` applies to every
# replicate's spawn key at once, and PCG64's 128-bit multiplier (``_pcg64_state``)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_SIGN_BIT, _ONE_BITS = np.uint32(1 << 31), np.float32(1.0).view(np.uint32)


def _stream_keys(seed: int, B: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(b,)).generate_state(4, np.uint64)`` for each b < B, as rows.

    SeedSequence hashes the seed's 32-bit words, zero-padded to its pool
    of four, and then the spawn key's word b into the pool, and hashes the
    pool out to these four words.  Only the last word hashed in depends on
    b, so one pass over uint32 arrays of length B yields every replicate's
    row.  B must be at most 2^32, so that b is a single spawn-key word.
    """
    seed = check_seed(seed)  # a negative seed has no 32-bit words
    words = [seed >> 32 * k & _MASK32 for k in range(max(1, -(-seed.bit_length() // 32)))]
    entropy = [np.array([w], dtype=np.uint32) for w in words + [0] * (4 - len(words))]
    entropy.append(np.arange(B, dtype=np.uint32))
    const, mult = _INIT_A, _MULT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, mult = _INIT_B, _MULT_B  # generate_state: the same hash, its own constants
    out = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    return np.stack([out[2 * k] | out[2 * k + 1] << np.uint64(32) for k in range(4)], axis=1)


def _pcg64_state(key: np.ndarray) -> dict:
    """The state of ``PCG64`` seeded by the four words ``key``: its two seeding steps, exactly.

    The words are the initial state and the stream selector, each high
    word first; the increment is the selector shifted up with its low bit
    set, and the state takes one step, adds the initial state and steps
    again.
    """
    s_hi, s_lo, q_hi, q_lo = key.tolist()
    inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
    state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _draw_signs(
    bitgen: np.random.PCG64, keys: np.ndarray, start: int, out: np.ndarray
) -> np.ndarray:
    """The +-1.0 multipliers of replicates start, start + 1, ... into the rows of float32 ``out``.

    Row r holds the first m multipliers of replicate start + r, m being
    ``out``'s width, drawn from ``bitgen`` set to that replicate's key.
    Multiplier i is +1 where bit 31 of the i-th 32-bit half of the
    stream's raw 64-bit words is set, low half first, and -1 elsewhere.
    That is exactly ``Generator.integers(0, 2, size=m) * 2.0 - 1.0`` on the
    same stream: numpy draws it by Lemire's method on buffered 32-bit
    halves, which keeps a half's top bit and never rejects at range 2.
    The halves go as they are into the bits of ``out``; two in-place masks
    over the whole block then keep each top bit and swap it onto the bits
    of 1.0f, with no int-to-float cast.  The explicit little-endian views
    make the halves' order independent of the host's byte order.
    """
    bits = out.view(np.uint32)
    m = out.shape[1]
    for r in range(out.shape[0]):
        bitgen.state = _pcg64_state(keys[start + r])
        bits[r] = np.asarray(bitgen.random_raw((m + 1) // 2), dtype="<u8").view("<u4")[:m]
    bits &= _SIGN_BIT
    bits ^= _SIGN_BIT | _ONE_BITS
    return out


def _chunked_sups(
    centered: np.ndarray, denom: np.ndarray, bitgen: np.random.PCG64, keys: np.ndarray
) -> np.ndarray:
    """Pass 1: every replicate's max_j |sum_i xi_i s_ij| from float32 products over unit chunks.

    s = centered / denom is rounded once to float32 (|s| <= 1 up to
    rounding, sigma^2 being the mean square of centered, so it cannot
    overflow) and zero-padded to whole chunks of ``_CHUNK`` units.  For each block of replicates, one
    stacked product sums each chunk's products in float32, and the
    chunks' partial sums are added in float64.
    """
    chunks = -(-centered.shape[0] // _CHUNK)
    m = chunks * _CHUNK
    s32 = np.zeros((m, centered.shape[1]), np.float32)  # the zero rows pad the last chunk
    np.divide(centered, denom, out=s32[: centered.shape[0]], casting="same_kind")
    by_chunk = s32.reshape(chunks, _CHUNK, -1)
    B = keys.shape[0]
    rows = max(1, _SIGN_BLOCK_BYTES // (4 * m))
    block = np.empty((min(rows, B), m), np.float32)
    sups = np.empty(B)
    for lo in range(0, B, rows):
        signs = _draw_signs(bitgen, keys, lo, block[: min(rows, B - lo)])
        partial = np.matmul(signs.reshape(-1, chunks, _CHUNK).transpose(1, 0, 2), by_chunk)
        sups[lo : lo + signs.shape[0]] = np.max(
            np.abs(partial.sum(axis=0, dtype=np.float64)), axis=1
        )
    return sups


def _rounding_bound(scaled: np.ndarray) -> float:
    """eps >= |pass-1 statistic - gemv statistic| for every replicate, on standardized ``scaled``.

    The signs are exactly +-1, so every product is exact and each
    statistic's error comes from rounding s to float32 and from the sums.
    With S_j = sum_i |s_ij|, u the float32 unit roundoff, C = ``_CHUNK``
    and gamma_k = k u' / (1 - k u') for a sum of k terms rounded at u'
    (u for gamma_C, 2^-53 for gamma_{n/C} and gamma_n), pass 1's column-j
    sum is within [u + gamma_C (1 + u)] (1 + gamma_{n/C}) S_j +
    gamma_{n/C} S_j of the exact one, in any summation order the BLAS
    takes, plus an absolute term of a few float32 smallest normals per
    unit for underflow, whether or not the CPU flushes subnormals to zero.
    The gemv is within gamma_n S_j of the exact sum, and max_j |.| is
    1-Lipschitz.
    """
    n = scaled.shape[0]
    chunks = -(-n // _CHUNK)

    def gamma(k, u):
        return k * u / (1.0 - k * u)

    mass = float(np.max(np.sum(np.abs(scaled), axis=0)))  # max_j S_j
    per_chunk = _F32_ROUNDOFF + gamma(_CHUNK, _F32_ROUNDOFF) * (1.0 + _F32_ROUNDOFF)
    across = gamma(chunks, _UNIT_ROUNDOFF)
    relative = per_chunk * (1.0 + across) + across + gamma(n, _UNIT_ROUNDOFF)
    return relative * mass + 4.0 * chunks * _CHUNK * _F32_TINY


def _bootstrap_quantile(
    centered: np.ndarray, sigma: np.ndarray, n: int, B: int, seed: int, level: float
) -> float:
    """The level-quantile of sup |standardized multiplier mean| over B replicates.

    Replicate b draws its signs xi from the PCG64 stream keyed by (seed, b),
    so the collection is identical however replicates are scheduled or
    batched.  Its statistic is max_j |sum_i xi_i s_ij| on the standardized
    values s.  All B keys come from one pass (``_stream_keys``), and one
    reused bit generator, set to each key in turn (``_pcg64_state``), draws
    each replicate's signs (``_draw_signs``), bitwise what
    ``Generator.integers(0, 2, size=n)`` draws from its stream, without a
    SeedSequence, a Generator or an int64 array per replicate.

    Pass 1 (``_chunked_sups``) takes every statistic from float32 products
    over chunks of ``_CHUNK`` units, summed in float64.  Its rounding
    differs from the per-replicate float64 gemv ``xi @ s``, but both are
    within a proven bound of the exact sum, so an approximate statistic
    is within eps (``_rounding_bound``) of the gemv one.  Pass 2
    recomputes with the gemv, on s in the layout of ``centered``, every
    replicate within 2 eps of the two order statistics that the linear
    quantile reads.  The patched statistics then count like the gemv ones
    on an interval that holds both order statistics, so the quantile is
    bitwise the one of the per-replicate gemv.  The float32 copy of s is
    freed before the float64 one is built, so the two never coexist.
    """
    denom = np.sqrt(n) * sigma[None, :]  # sum_i xi_i * centered / denom -> stat
    keys = _stream_keys(seed, B)
    bitgen = np.random.PCG64(0)  # every draw first sets its replicate's key
    sups = _chunked_sups(centered, denom, bitgen, keys)
    scaled = centered / denom
    eps = _rounding_bound(scaled)
    i = int(np.floor((B - 1) * level))  # np.quantile's linear rule reads order stats i, j
    j = min(i + 1, B - 1)
    low, high = np.partition(sups, (i, j))[[i, j]]
    window = (sups >= low - 2.0 * eps) & (sups <= high + 2.0 * eps)  # factor 2: safety
    signs, xi = np.empty((1, n), np.float32), np.empty(n)
    for b in np.flatnonzero(window):
        np.copyto(xi, _draw_signs(bitgen, keys, int(b), signs)[0])
        sups[b] = np.max(np.abs(xi @ scaled))
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
    ``seed`` must be a non-negative integer and not a bool; anything else
    raises ConfigError before any draw.

    The critical value comes from two passes over the B replicates: one
    matrix product per block of replicates locates the 1-alpha quantile,
    and the replicates within a rounding bound of it are recomputed one
    by one, so c_alpha_raw is bitwise the quantile of per-replicate
    matrix-vector products and does not depend on the block size.
    """
    check_band_options(alpha, B)
    seed = check_seed(seed)
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
    # one horizon's columns go in as they are: a copy would only raise the peak memory
    joint = np.concatenate(centered, axis=1) if len(centered) > 1 else main
    c_raw = _bootstrap_quantile(joint, np.concatenate(sigmas), n, B, seed, 1.0 - alpha)
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
