"""Analytic long-horizon variance comparisons under constant propensities.

Setting: treatment probability p at every period, no dropout, a bounded
outcome |Y| <= b_u observed at the horizon.  Two single-pass weighted
means are compared: the fixed-regime estimator (weights 1(A_t = a_t)/p)
and the odds-shifted estimator (weights (delta A_t + 1 - A_t)/(delta p +
1 - p)).  The variance of the ratio admits closed bounds whose base
factor

    (delta^2 p^2 + p(1-p)) / (delta p + 1 - p)^2     (always treated)

is strictly below one for delta > 1, so the fixed-regime estimator's
variance grows roughly geometrically relative to the shifted one.  The
module evaluates those bounds, the first horizon at which the bound
expression certifies a variance crossing, the exact variances via the
sequential-integral (g-formula) expansion, and an exact decomposition
check that writes the shifted estimator's variance as the variance of a
square-root-weighted combination of fixed-regime estimators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, EstimationError

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


def truncated_normal_variance(half_width: float, sd: float = 1.0) -> float:
    """Variance of N(mu, sd^2) truncated symmetrically at mu +- half_width*sd.

    ``half_width`` must be finite and positive.  Below 1e-3 the closed form
    cancels, so its Taylor series a^2/3 - 2a^4/45 + 2a^6/945 is used; the
    omitted terms are below 1e-20 of the value there.
    """
    a = float(half_width)
    if not (math.isfinite(a) and a > 0):
        raise ConfigError(f"half_width must be finite and > 0, got {half_width!r}")
    if a < 1e-3:
        a2 = a * a
        return sd**2 * (a2 / 3.0 - 2.0 * a2 * a2 / 45.0 + 2.0 * a2 * a2 * a2 / 945.0)
    z = 2.0 * ndtr(a) - 1.0
    # the normal density; a * a squares as numpy does, where a**2 can differ in the last bit
    pdf = np.exp(-(a * a) / 2.0) / np.sqrt(2 * np.pi)
    return sd**2 * (1.0 - 2.0 * a * pdf / z)


@dataclass(frozen=True)
class MomentSpec:
    """Counterfactual outcome moments feeding the variance formulas.

    Providers map a full treatment sequence (tuple of 0/1, length T) to
    E[Y^a] and E[(Y^a)^2].  When the moments depend on the sequence only
    through its number of ones, supply the count-based providers instead;
    sums over the 2^T sequences then collapse to T+1 binomial terms.
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
        if not 0 < self.p < 1:
            raise ConfigError("p must lie in (0,1)")
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if self.T < 1:
            raise ConfigError("T must be >= 1")
        seq_route = self.mean_of is not None and self.second_of is not None
        cnt_route = self.mean_by_count is not None and self.second_by_count is not None
        if not (seq_route or cnt_route):
            raise ConfigError("provide sequence or count moment providers")

    @property
    def count_based(self) -> bool:
        return self.mean_by_count is not None and self.second_by_count is not None

    def mean(self, a_bar) -> float:
        if self.mean_of is not None:
            return float(self.mean_of(tuple(a_bar)))
        return float(self.mean_by_count(int(sum(a_bar))))

    def second(self, a_bar) -> float:
        if self.second_of is not None:
            return float(self.second_of(tuple(a_bar)))
        return float(self.second_by_count(int(sum(a_bar))))

    def check_bounds(self) -> None:
        """Require |E[Y^a]| <= b_u and E[(Y^a)^2] <= b_u^2 for every sequence a."""
        for a_bar in _representative_sequences(self):
            if abs(self.mean(a_bar)) > self.b_u + 1e-12:
                raise ConfigError(f"mean provider exceeds the outcome bound b_u at a={a_bar}")
            if self.second(a_bar) > self.b_u**2 + 1e-9:
                raise ConfigError(f"second-moment provider exceeds b_u^2 at a={a_bar}")
        if self.second((1,) * self.T) <= 0:
            raise ConfigError("always-treated outcome must be non-degenerate")


def trial_moments(T: int, p: float, delta: float) -> MomentSpec:
    """Moments of the trial generator: Y ~ N(10 + sqrt(k), 1) truncated at 2 sd."""
    resid_var = truncated_normal_variance(2.0)

    def mean_k(k: int) -> float:
        return 10.0 + math.sqrt(k)

    def second_k(k: int) -> float:
        return mean_k(k) ** 2 + resid_var

    return MomentSpec(
        p=p,
        delta=delta,
        T=T,
        b_u=12.0 + math.sqrt(T),
        mean_by_count=mean_k,
        second_by_count=second_k,
    )


def base_factor(delta: float, p: float, variant: str = "always_treated") -> float:
    """Per-period factor governing the geometric variance-ratio trend."""
    denom = (delta * p + 1.0 - p) ** 2
    if variant == "always_treated":
        return (delta**2 * p**2 + p * (1.0 - p)) / denom
    if variant == "never_treated":
        return (delta**2 * p * (1.0 - p) + (1.0 - p) ** 2) / denom
    raise ConfigError(f"unknown variant {variant!r}")


def path_weight(a_bar, delta: float, p: float) -> float:
    """Weight of one treatment sequence in the shifted-variance decomposition.

    Per-period factor: p * delta^2 p / (delta p + 1 - p)^2 when treated,
    (1-p)^2 / (delta p + 1 - p)^2 when untreated.  Its square root equals
    the shifted path probability, which is what makes the decomposition
    in ``decomposition_check`` exact.
    """
    if not 0 < p < 1:
        raise ConfigError("p must lie in (0,1)")
    if delta <= 0:
        raise ConfigError("delta must be positive")
    denom = (delta * p + 1.0 - p) ** 2
    f1 = p * delta**2 * p / denom
    f0 = (1.0 - p) ** 2 / denom
    out = 1.0
    for a in a_bar:
        out *= f1 if a == 1 else f0
    return out


def _c_floor(spec: MomentSpec, variant: str) -> float:
    if variant == "always_treated":
        arm = (1,) * spec.T
        ret = spec.p
    else:
        arm = (0,) * spec.T
        ret = 1.0 - spec.p
    ratio = ret**spec.T * spec.mean(arm) ** 2 / spec.second(arm)
    return 1.0 / (1.0 - ratio)


def _check_enumerable(T: int) -> None:
    if T > _ENUM_LIMIT:
        raise EstimationError(
            f"enumeration over 2^{T} sequences is infeasible; supply count-based moments"
        )


def _representative_sequences(spec: MomentSpec):
    """One sequence per distinct moment pair: T+1 counts, or all 2^T sequences."""
    T = spec.T
    if spec.count_based:
        return ([1] * k + [0] * (T - k) for k in range(T + 1))
    _check_enumerable(T)
    return itertools.product((0, 1), repeat=T)


def _min_second(spec: MomentSpec) -> float:
    """Smallest counterfactual second moment E[(Y^a)^2] over all sequences."""
    return min(spec.second(a_bar) for a_bar in _representative_sequences(spec))


def variance_ratio_bounds(
    spec: MomentSpec, variant: str = "always_treated", c: float | None = None
) -> tuple[float, float]:
    """Lower and upper bounds on Var(odds-shifted) / Var(fixed-regime).

    The ratio is the one ``exact_variance`` gives as 'inc' over 'at' (or
    'nt'); the only outcome hypothesis is |Y| <= b_u.  With B the
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
    reproducible.  Sequence-based specs beyond 2^20 sequences raise
    ``EstimationError``, as ``exact_variance`` does.
    """
    if variant not in ("always_treated", "never_treated"):
        raise ConfigError(f"unknown variant {variant!r}")
    spec.check_bounds()
    floor = _c_floor(spec, variant)
    if c is None:
        c = floor * 1.001
    elif c < floor:
        raise ConfigError(f"c={c} below its floor {floor}")
    if variant == "always_treated":
        arm, r = (1,) * spec.T, spec.p
    else:
        arm, r = (0,) * spec.T, 1.0 - spec.p
    B = base_factor(spec.delta, spec.p, variant)
    C_T = spec.b_u**2 / spec.second(arm)
    zeta = 1.0 + c * spec.mean(arm) ** 2 / ((1.0 / r) ** spec.T * spec.second(arm))
    lower = max(
        0.0,
        (_min_second(spec) * B**spec.T - spec.b_u**2 * r**spec.T) / spec.second(arm),
    )
    upper = C_T * zeta * B**spec.T
    return float(lower), float(upper)


def crossover_horizon_bound(delta: float, p: float, second_moment_ratio: float) -> int:
    """Smallest T with [(delta^2 p + 1 - p)/(delta p + 1 - p)^2]^T - c1/p^T + 2 < 0.

    ``second_moment_ratio`` is c1 = E[(Y^ones)^2] / b_u^2.  Past the
    returned horizon the bound expression certifies that the shifted
    estimator has the smaller variance; the certificate convention counts
    horizons strictly beyond the crossing, so the scan value sits one
    above the conventional statement of the threshold.
    """
    if delta <= 1:
        raise ConfigError("the scan needs delta > 1")
    if not 0 < p < 1:
        raise ConfigError("p must lie in (0,1)")
    if not 0 < second_moment_ratio <= 1:
        raise ConfigError("second_moment_ratio must lie in (0, 1]")
    g = (delta**2 * p + 1.0 - p) / (delta * p + 1.0 - p) ** 2
    for T in range(1, _SCAN_LIMIT + 1):
        if g**T - second_moment_ratio / p**T + 2.0 < 0.0:
            return T
    raise EstimationError("scan did not terminate (cannot happen for delta > 1)")


def _path_sum(spec: MomentSpec, f1: float, moment: Callable) -> float:
    """Sum over sequences of prod_t (f1 if a_t = 1 else 1 - p) * moment(a)."""
    p, T = spec.p, spec.T
    total = 0.0
    if spec.count_based:
        for k in range(T + 1):
            coef = math.comb(T, k) * f1**k * (1.0 - p) ** (T - k)
            total += coef * moment([1] * k + [0] * (T - k))
        return total
    _check_enumerable(T)
    for a_bar in itertools.product((0, 1), repeat=T):
        coef = 1.0
        for a in a_bar:
            coef *= f1 if a == 1 else (1.0 - p)
        total += coef * moment(a_bar)
    return total


def _inc_first_term(spec: MomentSpec) -> float:
    """E[(prod_t ratio_t)^2 Y^2] by the sequential-integral expansion."""
    p, delta = spec.p, spec.delta
    denom = (delta * p + 1.0 - p) ** 2
    return _path_sum(spec, delta**2 * p, spec.second) / denom**spec.T


def _inc_mean(spec: MomentSpec) -> float:
    """E[prod_t ratio_t * Y] = the shifted-intervention mean."""
    p, delta = spec.p, spec.delta
    return _path_sum(spec, delta * p, spec.mean) / (delta * p + 1.0 - p) ** spec.T


def exact_variance(spec: MomentSpec, estimator: str) -> float:
    """Exact single-draw variance of one of the weighted estimators.

    ``estimator``: 'at' (always-treated weights), 'nt' (never-treated
    weights), or 'inc' (odds-shifted weights).
    """
    T = spec.T
    if estimator == "at":
        arm = (1,) * T
        return (1.0 / spec.p) ** T * spec.second(arm) - spec.mean(arm) ** 2
    if estimator == "nt":
        arm = (0,) * T
        return (1.0 / (1.0 - spec.p)) ** T * spec.second(arm) - spec.mean(arm) ** 2
    if estimator == "inc":
        return _inc_first_term(spec) - _inc_mean(spec) ** 2
    raise ConfigError(f"unknown estimator {estimator!r}")


def decomposition_check(p: float, delta: float, T: int, atoms: Callable) -> float:
    """|Var(shifted draw) - Var(sum_a sqrt(w(a)) fixed-regime draws)|, exactly.

    ``atoms(a_bar) -> (values, probs)`` must give the finite outcome
    distribution for each treatment sequence.  The left side enumerates
    the shifted-weight statistic directly; the right side expands the
    variance of the square-root-weighted combination through the per-pair
    covariances of the fixed-regime estimators (distinct sequences have
    product zero, so their covariance is minus the product of means); the
    sum over pairs collapses to one pass over the sequences.
    """
    if not callable(atoms):
        raise ConfigError("atoms must be a callable finite-support provider")
    if T > 12:
        raise ConfigError("full enumeration is limited to T <= 12")
    seqs = list(itertools.product((0, 1), repeat=T))
    dist = {}
    for a_bar in seqs:
        values, probs = atoms(a_bar)
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.ndim != 1 or values.shape != probs.shape:
            raise ConfigError("atoms must return matching value/probability vectors")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ConfigError("atom probabilities must sum to one")
        dist[a_bar] = (values, probs)

    def path_prob(a_bar):
        out = 1.0
        for a in a_bar:
            out *= p if a == 1 else 1.0 - p
        return out

    # left side: the shifted-weight statistic enumerated over (sequence, atom)
    denom = delta * p + 1.0 - p
    e1 = 0.0
    em = 0.0
    for a_bar in seqs:
        w_inc = 1.0
        for a in a_bar:
            w_inc *= (delta * a + 1.0 - a) / denom
        values, probs = dist[a_bar]
        pr = path_prob(a_bar)
        e1 += pr * float(np.sum(probs * (w_inc * values) ** 2))
        em += pr * float(np.sum(probs * w_inc * values))
    lhs = e1 - em**2

    # right side: variance of the square-root-weighted combination.  Distinct
    # sequences contribute sqrt(w_a w_b) (-m_a m_b), which sums to
    # -(sum sqrt(w) m)^2 + sum w m^2.
    rhs = 0.0
    root_sum = 0.0
    sq_sum = 0.0
    for a_bar in seqs:
        values, probs = dist[a_bar]
        mean = float(np.sum(probs * values))
        second = float(np.sum(probs * values**2))
        w = path_weight(a_bar, delta, p)
        rhs += w * (second / path_prob(a_bar) - mean**2)
        root_sum += math.sqrt(w) * mean
        sq_sum += w * mean**2
    rhs += sq_sum - root_sum**2
    return abs(lhs - rhs)


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
            yield (
                row["T"],
                row["lower"],
                row["upper"],
                row["ratio"],
                self.variant,
            )


def efficiency_curve(
    spec_for: Callable[[int], MomentSpec],
    T_max: int,
    variant: str = "always_treated",
    c: float | None = None,
) -> EfficiencyReport:
    """Exact variance-ratio curve with bounds for horizons 1..T_max.

    ``spec_for(T)`` must return the moment specification at horizon T.
    The crossing certificate from ``crossover_horizon_bound`` is reported
    with the most conservative (smallest) second-moment ratio along the
    curve; it applies only for delta > 1.
    """
    rows = []
    crossing = None
    est = "at" if variant == "always_treated" else "nt"
    c1_min = None
    delta = p = None
    for T in range(1, T_max + 1):
        spec = spec_for(T)
        delta, p = spec.delta, spec.p
        var_det = exact_variance(spec, est)
        var_inc = exact_variance(spec, "inc")
        lower, upper = variance_ratio_bounds(spec, variant=variant, c=c)
        ratio = var_inc / var_det if var_det > 0 else math.inf
        rows.append(
            {
                "T": T,
                "var_deterministic": var_det,
                "var_incremental": var_inc,
                "ratio": ratio,
                "lower": lower,
                "upper": upper,
            }
        )
        if crossing is None and var_inc < var_det:
            crossing = T
        c1 = spec.second((1,) * T) / spec.b_u**2
        c1_min = c1 if c1_min is None else min(c1_min, c1)
    scan = None
    if delta is not None and delta > 1:
        scan = crossover_horizon_bound(delta, p, c1_min)
    return EfficiencyReport(
        variant=variant,
        delta=float(delta),
        p=float(p),
        rows=rows,
        crossing_T=crossing,
        scan_T=scan,
        scan_T_strict=None if scan is None else scan - 1,
    )
