import itertools
import math
import sys
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from oddshift import (
    ConfigError,
    EstimationError,
    MomentSpec,
    base_factor,
    crossover_horizon_bound,
    decomposition_check,
    efficiency_curve,
    exact_variance,
    path_weight,
    trial_moments,
    truncated_normal_variance,
    variance_ratio_bounds,
)


class TestTruncatedVariance:
    def test_matches_quadrature(self):
        z = 2.0 * norm.cdf(2.0) - 1.0
        second, _ = integrate.quad(lambda x: x**2 * norm.pdf(x) / z, -2.0, 2.0)
        assert truncated_normal_variance(2.0) == pytest.approx(second, abs=1e-10)
        assert truncated_normal_variance(2.0) == pytest.approx(0.7737413, abs=1e-6)

    @pytest.mark.parametrize("sd", [1.0, 2.5])
    def test_bitwise_scipy_stats_norm(self, sd):
        widths = np.concatenate(
            [np.linspace(1e-3, 12.0, 2001), np.random.default_rng(0).uniform(0.0, 40.0, 2000)]
        )
        for a in widths.tolist() + [0.5, 1.0, 2.0, 38.0, 40.0]:
            z = 2.0 * norm.cdf(a) - 1.0
            reference = sd**2 * (1.0 - 2.0 * a * norm.pdf(a) / z)
            assert truncated_normal_variance(a, sd) == reference, a

    def test_small_half_widths_match_mpmath(self):
        # exact variance 1 - 2a phi(a) / erf(a / sqrt 2), at enough digits to survive its cancellation
        widths = np.concatenate(
            [np.geomspace(1e-300, 1e-3, 1500, endpoint=False),
             10.0 ** np.random.default_rng(1).uniform(-300.0, -3.0, 500),
             [np.nextafter(1e-3, 0.0), 1.3e-154, 1e-5, 1e-7, 1e-8, 1e-17]]
        )
        for a in widths.tolist():
            got = truncated_normal_variance(a)
            with mpmath.workdps(int(-2 * math.log10(a)) + 40):
                x = mpmath.mpf(a)
                pdf = mpmath.exp(-x * x / 2) / mpmath.sqrt(2 * mpmath.pi)
                exact = 1 - 2 * x * pdf / mpmath.erf(x / mpmath.sqrt(2))
                error = abs(mpmath.mpf(got) - exact)
            assert got >= 0.0, a
            if exact >= sys.float_info.min:
                assert error <= 1e-14 * exact, a
            else:  # below the normal range a double resolves only multiples of 2**-1074
                assert error <= 2.0**-1074, a

    def test_smallest_half_width_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert truncated_normal_variance(5e-324) == 0.0
            assert truncated_normal_variance(5e-324, 2.5) == 0.0

    @pytest.mark.parametrize("half_width", [0.0, math.inf, math.nan, -1.0])
    def test_rejects_unusable_half_width(self, half_width):
        with pytest.raises(ConfigError, match="half_width must be finite and > 0"):
            truncated_normal_variance(half_width)


class TestPathWeight:
    def test_examples(self):
        assert path_weight((1, 1), 2.0, 0.5) == pytest.approx((1.0 / 2.25) ** 2, abs=1e-12)
        assert path_weight((0, 0), 2.0, 0.5) == pytest.approx((0.25 / 2.25) ** 2, abs=1e-12)

    @pytest.mark.parametrize("T", [1, 3, 6, 12])
    @pytest.mark.parametrize("delta,p", [(2.0, 0.5), (0.5, 0.3), (5.0, 0.7)])
    def test_sum_over_sequences_closed_form(self, T, delta, p):
        total = sum(
            path_weight(a_bar, delta, p) for a_bar in itertools.product((0, 1), repeat=T)
        )
        per_t = (delta**2 * p**2 + (1.0 - p) ** 2) / (delta * p + 1.0 - p) ** 2
        assert total == pytest.approx(per_t**T, rel=1e-12)

    def test_square_root_is_shifted_path_probability(self):
        delta, p = 3.0, 0.4
        q = delta * p / (delta * p + 1.0 - p)
        for a_bar in itertools.product((0, 1), repeat=3):
            prob = math.prod(q if a == 1 else 1.0 - q for a in a_bar)
            assert math.sqrt(path_weight(a_bar, delta, p)) == pytest.approx(prob, rel=1e-12)


class TestBaseFactor:
    def test_delta_one_reduces_to_p(self):
        for p in (0.2, 0.5, 0.8):
            assert base_factor(1.0, p) == pytest.approx(p, abs=1e-15)

    def test_direct_value(self):
        assert base_factor(2.0, 0.5) == pytest.approx(1.25 / 2.25, abs=1e-12)

    def test_below_one_for_delta_above_one(self):
        for p in np.linspace(0.05, 0.95, 19):
            for delta in (1.01, 1.5, 2.0, 5.0, 20.0):
                assert base_factor(delta, p) < 1.0


class TestBounds:
    def test_delta_one_zero_lower(self):
        spec = trial_moments(3, 0.5, 1.0)
        lower, upper = variance_ratio_bounds(spec)
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert upper > 0

    def test_c_floor_enforced(self):
        spec = trial_moments(2, 0.5, 2.0)
        with pytest.raises(ConfigError, match="floor"):
            variance_ratio_bounds(spec, c=1.0)

    def test_never_treated_variant(self):
        spec = trial_moments(3, 0.5, 2.0)
        lo_at, up_at = variance_ratio_bounds(spec, "always_treated")
        lo_nt, up_nt = variance_ratio_bounds(spec, "never_treated")
        assert lo_nt < up_nt
        # at p = 0.5 the two variants share the same base factor
        assert base_factor(2.0, 0.5, "never_treated") == pytest.approx(
            base_factor(2.0, 0.5, "always_treated")
        )
        assert (lo_nt, up_nt) != (lo_at, up_at)  # moments differ across arms

    @pytest.mark.parametrize("variant", ["always_treated", "never_treated"])
    def test_lower_reduces_when_moments_sit_at_bound(self, variant):
        # Y = +-b makes every second moment b^2, where the lower bound is C_T (B^T - r^T)
        b = 3.0
        for p, delta, T in itertools.product((0.3, 0.5), (0.5, 2.0, 5.0), range(1, 7)):
            spec = two_point_spec(p, delta, T, hi=b, lo=-b, prob=0.3)
            arm = (1,) * T if variant == "always_treated" else (0,) * T
            r = p if variant == "always_treated" else 1.0 - p
            C_T = b**2 / spec.second(arm)
            expected = C_T * (base_factor(delta, p, variant) ** T - r**T)
            lower, _ = variance_ratio_bounds(spec, variant)
            assert lower == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("variant, est", [("always_treated", "at"), ("never_treated", "nt")])
    def test_trial_ratio_contained(self, variant, est):
        for delta, T in itertools.product((0.5, 2.0, 5.0), range(1, 13)):
            spec = trial_moments(T, 0.5, delta)
            lower, upper = variance_ratio_bounds(spec, variant)
            ratio = exact_variance(spec, "inc") / exact_variance(spec, est)
            assert lower <= ratio <= upper, (delta, T)

    def test_sequence_spec_beyond_enumeration_limit(self):
        spec = two_point_spec(0.5, 2.0, 21, hi=1.0, lo=-1.0)
        with pytest.raises(EstimationError, match="infeasible"):
            variance_ratio_bounds(spec)

    @pytest.mark.parametrize("variant", ["always_treated", "never_treated"])
    def test_every_sequence_checked_against_b_u(self, variant):
        # within b_u on the always-treated arm only: |mean| = 50 > b_u = 6 elsewhere;
        # the bounds used to come back as (0.0, 0.282) and (0.0, 0.0028)
        T = 3
        spec = MomentSpec(
            p=0.5, delta=2.0, T=T, b_u=6.0,
            mean_by_count=lambda k: 5.0 if k == T else 50.0,
            second_by_count=lambda k: (5.0 if k == T else 50.0) ** 2,
        )
        with pytest.raises(ConfigError, match="exceeds the outcome bound"):
            variance_ratio_bounds(spec, variant)

    def test_sequence_spec_checked_off_the_arm(self):
        spec = MomentSpec(
            p=0.5, delta=2.0, T=3, b_u=1.0,
            mean_of=lambda a: 0.5, second_of=lambda a: 2.0 if a == (0, 1, 0) else 0.5,
        )
        with pytest.raises(ConfigError, match=r"b_u\^2 at a=\(0, 1, 0\)"):
            variance_ratio_bounds(spec)


class TestHorizonScan:
    def test_reference_values(self):
        assert crossover_horizon_bound(2.5, 0.5, 0.05) == 7
        assert crossover_horizon_bound(5.0, 0.5, 0.05) == 10

    def test_large_ratio_small_horizon(self):
        assert crossover_horizon_bound(10.0, 0.5, 1.0) <= 3

    def test_domain(self):
        with pytest.raises(ConfigError):
            crossover_horizon_bound(1.0, 0.5, 0.5)
        with pytest.raises(ConfigError):
            crossover_horizon_bound(2.0, 0.5, 0.0)


def two_point_spec(p, delta, T, hi=1.0, lo=0.0, prob=0.5):
    """Y in {lo, hi} with path-independent probability, as a MomentSpec."""

    def mean_of(a_bar):
        return prob * hi + (1 - prob) * lo

    def second_of(a_bar):
        return prob * hi**2 + (1 - prob) * lo**2

    return MomentSpec(
        p=p, delta=delta, T=T, b_u=max(abs(hi), abs(lo)), mean_of=mean_of, second_of=second_of
    )


class TestExactVariance:
    def test_deterministic_outcome_single_period(self):
        spec = two_point_spec(0.5, 2.0, 1, hi=1.0, lo=1.0)
        assert exact_variance(spec, "at") == pytest.approx(1.0, abs=1e-12)

    def test_inc_at_delta_one_is_outcome_variance(self):
        spec = trial_moments(3, 0.5, 1.0)
        # at delta = 1 the weights are unity, so the variance is Var(Y)
        q = 0.5
        ks = np.arange(4)
        probs = np.array([math.comb(3, k) * q**k * (1 - q) ** (3 - k) for k in ks])
        means = 10.0 + np.sqrt(ks)
        ey = float(probs @ means)
        ey2 = float(probs @ (means**2 + truncated_normal_variance(2.0)))
        assert exact_variance(spec, "inc") == pytest.approx(ey2 - ey**2, rel=1e-12)

    def test_count_based_equals_enumeration(self):
        p, delta, T = 0.4, 2.5, 8
        fast = trial_moments(T, p, delta)
        slow = MomentSpec(
            p=p, delta=delta, T=T, b_u=fast.b_u,
            mean_of=lambda a: 10.0 + math.sqrt(sum(a)),
            second_of=lambda a: (10.0 + math.sqrt(sum(a))) ** 2 + truncated_normal_variance(2.0),
        )
        for which in ("at", "nt", "inc"):
            assert exact_variance(fast, which) == pytest.approx(
                exact_variance(slow, which), rel=1e-12
            )

    def test_at_closed_form(self):
        spec = trial_moments(5, 0.3, 2.0)
        ones = (1,) * 5
        direct = (1.0 / 0.3) ** 5 * spec.second(ones) - spec.mean(ones) ** 2
        assert exact_variance(spec, "at") == pytest.approx(direct, rel=1e-14)

    def test_enumeration_guard(self):
        spec = MomentSpec(
            p=0.5, delta=2.0, T=25, b_u=1.0,
            mean_of=lambda a: 0.0, second_of=lambda a: 0.5,
        )
        from oddshift import EstimationError

        with pytest.raises(EstimationError, match="infeasible"):
            exact_variance(spec, "inc")


def binary_atoms(a_bar):
    """Path-dependent binary outcome distribution for decomposition checks."""
    T = len(a_bar)
    weights = np.arange(1, T + 1) / (T + 1.0)
    pr = 0.15 + 0.7 * float(np.dot(weights, a_bar)) / max(float(weights.sum()), 1e-12)
    return np.array([0.0, 1.0]), np.array([1.0 - pr, pr])


class TestDecomposition:
    def test_single_period(self):
        assert decomposition_check(0.5, 2.0, 1, binary_atoms) < 1e-10

    def test_three_periods_large_delta(self):
        assert decomposition_check(0.5, 5.0, 3, binary_atoms) < 1e-10

    def test_delta_one(self):
        assert decomposition_check(0.3, 1.0, 2, binary_atoms) < 1e-10

    def test_rejects_non_callable(self):
        with pytest.raises(ConfigError):
            decomposition_check(0.5, 2.0, 2, atoms=None)

    def test_longest_horizon_exact_and_fast(self):
        start = time.perf_counter()
        gap = decomposition_check(0.5, 2.0, 12, binary_atoms)
        assert time.perf_counter() - start < 1.0
        assert gap < 1e-10


class TestCurve:
    def test_ratio_decreasing_and_upper_contained(self):
        report = efficiency_curve(lambda T: trial_moments(T, 0.5, 5.0), 12)
        ratios = [row["ratio"] for row in report.rows]
        assert all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
        # the proof-backed direction: the shifted/fixed variance ratio never
        # exceeds the upper bound
        assert all(row["ratio"] <= row["upper"] + 1e-12 for row in report.rows)

    def test_crossing_no_later_than_scan(self):
        report = efficiency_curve(lambda T: trial_moments(T, 0.5, 2.0), 10)
        assert report.crossing_T is not None
        assert report.scan_T is not None
        assert report.crossing_T <= report.scan_T
        assert report.scan_T_strict == report.scan_T - 1

    def test_rows_and_csv_shape(self):
        report = efficiency_curve(lambda T: trial_moments(T, 0.5, 2.0), 4)
        rows = list(report.as_csv_rows())
        assert len(rows) == 4
        assert rows[0][4] == "always_treated"
