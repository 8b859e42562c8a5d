"""Analytic long-horizon variance comparisons under constant propensities.

Setting: treatment probability p at every period, no dropout, a bounded
outcome |Y| <= b_u observed at the horizon.  Two single-pass weighted
means are compared: the fixed-regime estimator (weights 1(A_t = a)/r,
with r = p for the always-treated arm a = 1 and r = 1 - p for the
never-treated arm a = 0) and the odds-shifted estimator (weights
(delta A_t + 1 - A_t)/(delta p + 1 - p)).  The variance of the ratio
admits closed bounds whose base factor is r g, where

    g = (delta^2 p + 1 - p) / (delta p + 1 - p)^2

is the per-period second moment of the shifted weight ratio; g >= 1,
with equality only at delta = 1.  The base factor is below one for the
always-treated arm at delta > 1, so the fixed-regime estimator's
variance grows roughly geometrically relative to the shifted one.  The
never-treated arm at (delta, p) is the always-treated arm at (1/delta,
1 - p), so each arm has its own crossing certificate: the always-treated
one for delta > 1, the never-treated one for delta < 1.  The module
evaluates those bounds and certificates, the exact variances via the
sequential-integral (g-formula) expansion, and an exact decomposition
check that writes the shifted estimator's variance as the variance of a
square-root-weighted combination of fixed-regime estimators.  The
normal CDF comes from ``_special.ndtr``, bitwise ``scipy.special.ndtr``.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from ._special import ndtr
from .errors import ConfigError, EstimationError, check_count, check_open_unit
from .intervention import _check_delta

__all__ = [
    "MomentSpec",
    "EfficiencyReport",
    "truncated_normal_variance",
    "trial_moments",
    "base_factor",
    "path_weight",
    "variance_ratio_bounds",
    "crossover_horizon_bound",
    "exact_variance",
    "decomposition_check",
    "efficiency_curve",
]

_ENUM_LIMIT = 20
_SCAN_LIMIT = 10**6


def truncated_normal_variance(half_width: float) -> float:
    """Variance of N(mu, 1) truncated symmetrically at mu +- half_width.

    ``half_width`` must be a real number (not a bool), finite and positive.
    Below 1e-3 the closed form cancels, so its Taylor series a^2/3 -
    2a^4/45 + 2a^6/945 is used; the omitted terms are below 1e-20 of the
    value there.
    """
    if isinstance(half_width, bool) or not isinstance(half_width, numbers.Real):
        raise ConfigError(f"half_width must be a real number, got {half_width!r}")
    a = float(half_width)
    if not (math.isfinite(a) and a > 0):
        raise ConfigError(f"half_width must be finite and > 0, got {half_width!r}")
    if a < 1e-3:
        a2 = a * a
        return a2 / 3.0 - 2.0 * a2 * a2 / 45.0 + 2.0 * a2 * a2 * a2 / 945.0
    z = 2.0 * ndtr(a) - 1.0
    # the normal density; a * a squares as numpy does, where a**2 can differ in the last bit
    pdf = np.exp(-(a * a) / 2.0) / np.sqrt(2 * np.pi)
    return 1.0 - 2.0 * a * pdf / z


class _Moments(NamedTuple):
    """Per-count moments of a ``MomentSpec``, from one call of each provider per row."""

    mean: np.ndarray  # [k]: average E[Y^a] over the sequences a with k ones
    second: np.ndarray  # [k]: average E[(Y^a)^2] over the same sequences
    min_second: float  # least E[(Y^a)^2] over all sequences
    offence: str | None  # the first sequence breaking the outcome bound b_u


@dataclass(frozen=True)
class MomentSpec:
    """Counterfactual outcome moments feeding the variance formulas.

    Providers map a full treatment sequence (tuple of 0/1, length T) to
    E[Y^a] and E[(Y^a)^2].  When the moments depend on the sequence only
    through its number of ones, supply the count-based providers instead;
    they are then called once per count rather than once per sequence.
    A spec takes exactly one of the two pairs, and an outcome bound b_u
    that is a finite positive real number.
    """

    p: float
    delta: float
    T: int
    b_u: float
    mean_of: Callable | None = None
    second_of: Callable | None = None
    mean_by_count: Callable | None = None
    second_by_count: Callable | None = None

    def __post_init__(self):
        check_open_unit(self.p, "p")
        _check_delta(self.delta)
        check_count(self.T, "T", 1)
        b_u = self.b_u
        if isinstance(b_u, bool) or not (isinstance(b_u, numbers.Real) and 0 < b_u < math.inf):
            raise ConfigError(f"b_u must be finite and > 0, got {b_u!r}")
        given = [f is not None for f in (self.mean_of, self.second_of, self.mean_by_count,
                                         self.second_by_count)]
        if given not in ([True, True, False, False], [False, False, True, True]):
            raise ConfigError("provide one pair of moment providers, sequence or count")

    def mean(self, a_bar) -> float:
        if self.mean_of is not None:
            return float(self.mean_of(tuple(a_bar)))
        return float(self.mean_by_count(int(sum(a_bar))))

    def second(self, a_bar) -> float:
        if self.second_of is not None:
            return float(self.second_of(tuple(a_bar)))
        return float(self.second_by_count(int(sum(a_bar))))

    @cached_property
    def _moments(self) -> _Moments:
        """The moment table: T+1 calls of the count providers, else all 2^T sequences."""
        T, b_u = self.T, self.b_u
        if self.mean_by_count is not None:
            keys, mean, second = range(T + 1), self.mean_by_count, self.second_by_count
            counts, label = np.arange(T + 1), lambda k: [1] * k + [0] * (T - k)
        elif T > _ENUM_LIMIT:
            raise EstimationError(f"enumeration over 2^{T} sequences is infeasible; "
                                  "supply count-based moments")
        else:
            keys, mean, second = itertools.product((0, 1), repeat=T), self.mean_of, self.second_of
            counts = np.fromiter(map(int.bit_count, range(2**T)), np.intp, 2**T)
            label = lambda i: tuple(map(int, f"{i:0{T}b}"))  # noqa: E731
        rows = np.fromiter(((mean(a), second(a)) for a in keys), np.dtype((float, 2)), counts.size)
        means, seconds = rows.T
        # the first sequence in enumeration order outside the bound, its mean checked first
        high = np.abs(means) > b_u + 1e-12
        bad = np.flatnonzero(high | (seconds > b_u**2 + 1e-9))
        offence = None
        if bad.size:
            i = int(bad[0])
            offence = (f"mean provider exceeds the outcome bound b_u at a={label(i)}" if high[i]
                       else f"second-moment provider exceeds b_u^2 at a={label(i)}")
        sizes = np.bincount(counts)
        return _Moments(np.bincount(counts, means) / sizes, np.bincount(counts, seconds) / sizes,
                        float(seconds.min()), offence)

    def check_bounds(self) -> None:
        """Require |E[Y^a]| <= b_u and E[(Y^a)^2] <= b_u^2 for every sequence a."""
        if self._moments.offence is not None:
            raise ConfigError(self._moments.offence)


def trial_moments(T: int, p: float, delta: float) -> MomentSpec:
    """Moments of the trial generator: Y ~ N(10 + sqrt(k), 1) truncated at 2 sd."""
    resid_var = truncated_normal_variance(2.0)

    def mean_k(k: int) -> float:
        return 10.0 + math.sqrt(k)

    def second_k(k: int) -> float:
        return mean_k(k) ** 2 + resid_var

    return MomentSpec(p=p, delta=delta, T=T, b_u=12.0 + math.sqrt(T), mean_by_count=mean_k,
                      second_by_count=second_k)


def _g(delta: float, p: float) -> float:
    """g = E[ratio^2] per period, (delta^2 p + 1 - p) / (delta p + 1 - p)^2."""
    return (delta**2 * p + 1.0 - p) / (delta * p + 1.0 - p) ** 2


def base_factor(delta: float, p: float, variant: str = "always_treated") -> float:
    """Per-period factor r g of the geometric variance-ratio trend, r the arm's probability."""
    unit = MomentSpec(p, delta, 1, 1.0, mean_by_count=lambda k: 1.0,
                      second_by_count=lambda k: 1.0)  # only its arm's r is read
    return _fixed_regime(unit, variant).r * _g(delta, p)


def path_weight(a_bar, delta: float, p: float) -> float:
    """Weight of one treatment sequence in the shifted-variance decomposition.

    Per-period factor: p * delta^2 p / (delta p + 1 - p)^2 when treated,
    (1-p)^2 / (delta p + 1 - p)^2 when untreated; every entry of ``a_bar``
    must be 0 or 1.  Its square root equals the shifted path probability,
    which is what makes the decomposition in ``decomposition_check`` exact.
    """
    check_open_unit(p, "p")
    _check_delta(delta)
    denom = (delta * p + 1.0 - p) ** 2
    f1 = p * delta**2 * p / denom
    f0 = (1.0 - p) ** 2 / denom
    out = 1.0
    for a in a_bar:
        if a not in (0, 1):
            raise ConfigError(f"treatment entries must be 0 or 1, got {a!r}")
        out *= f1 if a == 1 else f0
    return out


class _Arm(NamedTuple):
    """A fixed regime seen as the always-treated arm of its own (delta, p)."""

    delta: float  # delta, or 1/delta for the never-treated arm
    r: float  # per-period probability of the arm's treatment: p, or 1 - p
    mean: float  # E[Y^arm]
    second: float  # E[(Y^arm)^2], positive


def _fixed_regime(spec: MomentSpec, variant: str) -> _Arm:
    """The arm of 'always_treated' or 'never_treated', the one map from a variant to its arm.

    Never treated at (delta, p) is always treated at (1/delta, 1 - p).
    An unknown variant or an arm whose second moment is not positive
    raises ``ConfigError``.
    """
    if variant == "always_treated":
        arm, delta, r = (1,) * spec.T, spec.delta, spec.p
    elif variant == "never_treated":
        arm, delta, r = (0,) * spec.T, 1.0 / spec.delta, 1.0 - spec.p
    else:
        raise ConfigError(f"unknown variant {variant!r}")
    second = spec.second(arm)
    if not second > 0:
        raise ConfigError(f"{variant.replace('_', '-')} outcome must be non-degenerate")
    return _Arm(delta, r, spec.mean(arm), second)


def _finite(variance: float, T: int) -> float:
    if not math.isfinite(variance):
        raise EstimationError(f"the exact variance at T={T} is beyond double precision")
    return variance


def _collapse(v: np.ndarray, a, b):
    """Yield the binomial collapse steps v <- a v[1:] + b v[:-1] down to one row.

    With v indexed by a count k = 0..T along its first axis, the last step
    is sum_k C(T, k) a^k b^(T-k) v[k], in O(T^2) work.
    """
    for _ in range(len(v) - 1):
        v = a * v[1:] + b * v[:-1]
        yield v


def _collapsed(v: np.ndarray, a, b) -> np.ndarray:
    """The last step of ``_collapse``, holding one step at a time."""
    return deque(_collapse(v, a, b), maxlen=1).pop()


def variance_ratio_bounds(
    spec: MomentSpec, variant: str = "always_treated", c: float | None = None
) -> tuple[float, float]:
    """Lower and upper bounds on Var(odds-shifted) / Var(fixed-regime).

    The ratio is the one ``exact_variance`` gives as 'inc' over 'at' (or
    'nt'); the only outcome hypothesis is |Y| <= b_u.  With B = r g the
    variant's base factor, r the per-period probability of the fixed arm
    and m2_min the smallest counterfactual second moment E[(Y^a)^2]:

        lower = max(0, (m2_min B^T - b_u^2 r^T) / E[(Y^arm)^2])
        upper = C_T zeta B^T

    with C_T = b_u^2 / E[(Y^arm)^2] and zeta = 1 + c (E[Y^arm])^2 /
    ((1/r)^T E[(Y^arm)^2]).  The lower bound holds because the
    coefficients of the E[(Y^a)^2] in the shifted second moment sum to
    (B/r)^T and the squared mean is at most b_u^2, so Var(shifted) >=
    m2_min (B/r)^T - b_u^2, while Var(fixed) <= E[(Y^arm)^2] / r^T; when every
    second moment equals b_u^2 it is C_T (B^T - r^T).  The constant c
    must be at least 1 / (1 - r^T (E[Y^arm])^2 / E[(Y^arm)^2]); by
    default it sits at 1.001 times that floor so results are
    reproducible.  The fixed arm must be non-degenerate.  Sequence-based
    specs beyond 2^20 sequences raise ``EstimationError``, as
    ``exact_variance`` does.
    """
    arm = _fixed_regime(spec, variant)
    spec.check_bounds()
    T, r, mean, second = spec.T, arm.r, arm.mean, arm.second
    floor = 1.0 / (1.0 - r**T * mean**2 / second)
    if c is None:
        c = floor * 1.001
    elif c < floor:
        raise ConfigError(f"c={c} below its floor {floor}")
    B = r * _g(spec.delta, spec.p)
    C_T = spec.b_u**2 / second
    try:
        zeta = 1.0 + c * mean**2 / ((1.0 / r) ** T * second)
    except OverflowError:  # (1/r)^T past double range: a term of at most c/(1/r)^T
        zeta = 1.0
    lower = max(0.0, (spec._moments.min_second * B**T - spec.b_u**2 * r**T) / second)
    upper = C_T * zeta * B**T
    return float(lower), float(upper)


def crossover_horizon_bound(delta: float, p: float, second_moment_ratio: float) -> int:
    """Smallest T with g^T - c1/p^T + 2 < 0, g = (delta^2 p + 1 - p)/(delta p + 1 - p)^2.

    This is the always-treated arm's certificate, so it needs delta > 1;
    ``second_moment_ratio`` is c1 = E[(Y^ones)^2] / b_u^2.  The
    never-treated arm at (delta, p) is the always-treated arm at
    (1/delta, 1 - p): its certificate is this scan there, with c1 =
    E[(Y^zeros)^2] / b_u^2, and exists for delta < 1.  Past the returned
    horizon the bound expression certifies that the shifted estimator has
    the smaller variance; the certificate convention counts horizons
    strictly beyond the crossing, so the scan value sits one above the
    conventional statement of the threshold.
    """
    _check_delta(delta)
    if delta <= 1:
        raise ConfigError("the scan needs delta > 1")
    check_open_unit(p, "p")
    if not 0 < second_moment_ratio <= 1:
        raise ConfigError("second_moment_ratio must lie in (0, 1]")
    g = _g(delta, p)
    for T in range(1, _SCAN_LIMIT + 1):
        if g**T - second_moment_ratio / p**T + 2.0 < 0.0:
            return T
    raise EstimationError("scan did not terminate (cannot happen for delta > 1)")


def _fixed_variance(T: int, arm: _Arm) -> float:
    try:
        variance = (1.0 / arm.r) ** T * arm.second - arm.mean**2
    except OverflowError:
        variance = math.inf
    return _finite(variance, T)


def exact_variance(spec: MomentSpec, estimator: str) -> float:
    """Exact single-draw variance of one of the weighted estimators.

    ``estimator``: 'at' (always-treated weights), 'nt' (never-treated
    weights), or 'inc' (odds-shifted weights).  A fixed arm must be
    non-degenerate.  A variance beyond double precision raises
    ``EstimationError``.
    """
    if estimator in ("at", "nt"):
        variant = "always_treated" if estimator == "at" else "never_treated"
        return _fixed_variance(spec.T, _fixed_regime(spec, variant))
    if estimator != "inc":
        raise ConfigError(f"unknown estimator {estimator!r}")
    p, delta, moments = spec.p, spec.delta, spec._moments
    D = delta * p + 1.0 - p
    # per-period factors of the (second moment, mean) columns for a treated / untreated period
    a = np.array([delta**2 * p / D**2, delta * p / D])
    b = np.array([(1.0 - p) / D**2, 1.0 - a[1]])
    with np.errstate(over="ignore", invalid="ignore"):
        ((second, mean),) = _collapsed(np.array([moments.second, moments.mean]).T, a, b)
        return _finite(float(second - mean**2), spec.T)


def decomposition_check(p: float, delta: float, T: int, atoms: Callable) -> float:
    """|Var(shifted draw) - Var(sum_a sqrt(w(a)) fixed-regime draws)|, exactly.

    ``atoms(a_bar) -> (values, probs)`` must give the finite outcome
    distribution for each treatment sequence.  The left side enumerates
    the shifted-weight statistic directly; the right side expands the
    variance of the square-root-weighted combination through the per-pair
    covariances of the fixed-regime estimators (distinct sequences have
    product zero, so their covariance is minus the product of means).
    Both sides are sums over the 2^T sequences, taken as arrays.
    """
    if not callable(atoms):
        raise ConfigError("atoms must be a callable finite-support provider")
    if check_count(T, "T", 1) > 12:
        raise ConfigError("full enumeration is limited to T <= 12")
    seqs = list(itertools.product((0, 1), repeat=T))
    moments = np.empty((len(seqs), 2))  # E[Y^a], E[(Y^a)^2] per sequence
    for i, a_bar in enumerate(seqs):
        values, probs = atoms(a_bar)
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.ndim != 1 or values.shape != probs.shape:
            raise ConfigError("atoms must return matching value/probability vectors")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ConfigError("atom probabilities must sum to one")
        moments[i] = np.sum(probs * values), np.sum(probs * values**2)
    mean, second = moments.T
    treated = np.array(seqs, dtype=bool)
    path_prob = np.where(treated, p, 1.0 - p).prod(axis=1)

    # left side: the shifted-weight statistic over (sequence, atom)
    denom = delta * p + 1.0 - p
    w_inc = np.where(treated, delta / denom, 1.0 / denom).prod(axis=1)
    lhs = path_prob @ (w_inc**2 * second) - (path_prob @ (w_inc * mean)) ** 2

    # right side: variance of the square-root-weighted combination.  The
    # diagonal gives w (E[(Y^a)^2] / P(a) - m_a^2) and distinct sequences
    # sqrt(w_a w_b) (-m_a m_b); the m^2 terms cancel.
    w = np.array([path_weight(a_bar, delta, p) for a_bar in seqs])
    rhs = w @ (second / path_prob) - (np.sqrt(w) @ mean) ** 2
    return abs(float(lhs - rhs))


@dataclass
class EfficiencyReport:
    """Per-horizon exact ratios, bounds, and crossing certificates.

    ``ratio`` is Var(odds-shifted draw) / Var(fixed-regime draw), the
    quantity the bound derivation controls; it decays roughly
    geometrically for delta > 1.
    """

    variant: str
    delta: float
    p: float
    rows: list  # dicts: T, var_deterministic, var_incremental, ratio, lower, upper
    crossing_T: int | None
    scan_T: int | None
    scan_T_strict: int | None  # scan value minus one: horizons strictly beyond it gain

    def as_csv_rows(self):
        for row in self.rows:
            yield row["T"], row["lower"], row["upper"], row["ratio"], self.variant


def efficiency_curve(spec_for: Callable[[int], MomentSpec], T_max: int,
                     variant: str = "always_treated", c: float | None = None) -> EfficiencyReport:
    """Exact variance-ratio curve with bounds for horizons 1..T_max.

    ``spec_for(T)`` must return the moment specification at horizon T,
    with the same delta and p at every horizon; otherwise ``ConfigError``.
    The crossing certificate is the variant's own arm's: the scan of
    ``crossover_horizon_bound`` with the arm's most conservative
    (smallest) second-moment ratio along the curve, at (delta, p) for the
    always-treated arm and at (1/delta, 1 - p) for the never-treated one.
    It exists for delta > 1 and delta < 1 respectively, else it is None.
    """
    check_count(T_max, "T_max", 1)
    rows, crossing, c1_min = [], None, math.inf
    for T in range(1, T_max + 1):
        spec = spec_for(T)
        if T == 1:
            first = spec
        if (spec.T, spec.delta, spec.p) != (T, first.delta, first.p):
            raise ConfigError(f"spec_for({T}) gave T={spec.T}, delta={spec.delta}, p={spec.p}; "
                              f"want T={T}, delta={first.delta}, p={first.p}")
        arm = _fixed_regime(spec, variant)
        var_det = _fixed_variance(T, arm)
        var_inc = exact_variance(spec, "inc")
        lower, upper = variance_ratio_bounds(spec, variant=variant, c=c)
        ratio = var_inc / var_det if var_det > 0 else math.inf
        rows.append({"T": T, "var_deterministic": var_det, "var_incremental": var_inc,
                     "ratio": ratio, "lower": lower, "upper": upper})
        if crossing is None and var_inc < var_det:
            crossing = T
        c1_min = min(c1_min, arm.second / spec.b_u**2)
    scan = crossover_horizon_bound(arm.delta, arm.r, c1_min) if arm.delta > 1 else None
    return EfficiencyReport(variant=variant, delta=float(first.delta), p=float(first.p), rows=rows,
                            crossing_T=crossing, scan_T=scan,
                            scan_T_strict=None if scan is None else scan - 1)
