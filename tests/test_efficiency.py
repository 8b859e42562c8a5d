import itertools
import math
import sys
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from oddshift import (
    ConfigError,
    DgpConfig,
    EstimationError,
    MomentSpec,
    base_factor,
    crossover_horizon_bound,
    decomposition_check,
    efficiency_curve,
    exact_effect_curve,
    exact_variance,
    path_weight,
    trial_moments,
    truncated_normal_variance,
    variance_ratio_bounds,
)
from oddshift import efficiency
from oddshift.intervention import incremental_propensity
from oddshift.simulation import _trial_tables


class TestTruncatedVariance:
    def test_matches_quadrature(self):
        z = 2.0 * norm.cdf(2.0) - 1.0
        second, _ = integrate.quad(lambda x: x**2 * norm.pdf(x) / z, -2.0, 2.0)
        assert truncated_normal_variance(2.0) == pytest.approx(second, abs=1e-10)
        assert truncated_normal_variance(2.0) == pytest.approx(0.7737413, abs=1e-6)

    def test_bitwise_scipy_stats_norm(self):
        widths = np.concatenate(
            [np.linspace(1e-3, 12.0, 2001), np.random.default_rng(0).uniform(0.0, 40.0, 2000)]
        )
        for a in widths.tolist() + [0.5, 1.0, 2.0, 38.0, 40.0]:
            z = 2.0 * norm.cdf(a) - 1.0
            reference = 1.0 - 2.0 * a * norm.pdf(a) / z
            assert truncated_normal_variance(a) == reference, a

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

    @pytest.mark.parametrize("half_width", [0.0, math.inf, math.nan, -1.0])
    def test_rejects_unusable_half_width(self, half_width):
        with pytest.raises(ConfigError, match="half_width must be finite and > 0"):
            truncated_normal_variance(half_width)

    @pytest.mark.parametrize("half_width", ["2", None, True, 2 + 0j, [2.0]])
    def test_rejects_a_half_width_that_is_not_a_real_number(self, half_width):
        # "2" went through float() and gave the variance at 2
        with pytest.raises(ConfigError, match="^half_width must be a real number, got "):
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

    @pytest.mark.parametrize("a_bar", [(2, 1), (0, -1), (0.5,), (1, math.nan)])
    def test_entries_other_than_zero_or_one_rejected(self, a_bar):
        # (2, 1) used to weigh the same as (0, 1)
        with pytest.raises(ConfigError, match="treatment entries must be 0 or 1"):
            path_weight(a_bar, 2.0, 0.5)

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

    def test_arm_probability_times_g(self):
        # the two hand-written per-variant formulas, against r g with g >= 1
        for p, delta in itertools.product(np.linspace(0.05, 0.95, 19), (0.1, 0.5, 1.0, 2.0, 10.0)):
            denom = (delta * p + 1.0 - p) ** 2
            g = efficiency._g(delta, p)
            assert g >= 1.0 - 1e-15 and (g > 1.0 or delta == 1.0)
            assert base_factor(delta, p) == pytest.approx(
                (delta**2 * p**2 + p * (1.0 - p)) / denom, rel=1e-14)
            assert base_factor(delta, p, "never_treated") == pytest.approx(
                (delta**2 * p * (1.0 - p) + (1.0 - p) ** 2) / denom, rel=1e-14)
            assert base_factor(delta, p, "never_treated") == (1.0 - p) * g


@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1.0])
def test_delta_not_finite_and_positive_rejected(delta):
    calls = (
        lambda: MomentSpec(p=0.5, delta=delta, T=2, b_u=1.0,
                           mean_by_count=float, second_by_count=float),
        lambda: path_weight((1, 0), delta, 0.5),
        lambda: base_factor(delta, 0.5),
    )
    for call in calls:
        with pytest.raises(ConfigError, match="delta must be finite and positive"):
            call()


# (call, message): horizons, deltas, probabilities and provider routes the bounds cannot use
UNUSABLE_INPUTS = {
    "T=2.5": (lambda: trial_moments(2.5, 0.5, 2.0), "T must be an integer >= 1, got 2.5"),
    "T_max=0": (lambda: efficiency_curve(lambda T: trial_moments(T, 0.5, 2.0), 0),
                "T_max must be an integer >= 1, got 0"),
    "scan delta=nan": (lambda: crossover_horizon_bound(math.nan, 0.5, 0.5),
                       "delta must be finite and positive"),
    "scan delta=inf": (lambda: crossover_horizon_bound(math.inf, 0.5, 0.5),
                       "delta must be finite and positive"),
    # both routes: mean() would read 0.5 and the moment table 0.9
    "both routes": (lambda: MomentSpec(p=0.5, delta=2.0, T=3, b_u=1.0,
                                       mean_of=lambda a: 0.5, second_of=lambda a: 0.25,
                                       mean_by_count=lambda k: 0.9,
                                       second_by_count=lambda k: 0.81),
                    "provide one pair of moment providers, sequence or count"),
    "base factor p=1.5": (lambda: base_factor(2.0, 1.5), "p must lie in (0,1)"),
    "base factor p=0": (lambda: base_factor(2.0, 0.0), "p must lie in (0,1)"),
    "decomposition T=2.5": (lambda: decomposition_check(0.5, 2.0, 2.5, binary_atoms),
                            "T must be an integer >= 1, got 2.5"),
    # NaN and inf gave bounds (0.0, nan) and (0.0, inf); 0 and -1 a misleading b_u violation
    **{f"b_u={b_u!r}": (lambda b_u=b_u: MomentSpec(p=0.5, delta=2.0, T=2, b_u=b_u,
                                                  mean_by_count=float, second_by_count=float),
                        f"b_u must be finite and > 0, got {b_u!r}")
       for b_u in (math.nan, math.inf, 0.0, -1.0, True, "1", None)},
    # a spec_for that ignores T labelled T = 1, 2, 3 with the T=5 ratio
    "spec_for at another horizon": (
        lambda: efficiency_curve(lambda T: trial_moments(5, 0.5, 2.0), 3),
        "spec_for(1) gave T=5, delta=2.0, p=0.5; want T=1, delta=2.0, p=0.5"),
    "delta changing along the curve": (
        lambda: efficiency_curve(lambda T: trial_moments(T, 0.5, 2.0 if T < 3 else 5.0), 4),
        "spec_for(3) gave T=3, delta=5.0, p=0.5; want T=3, delta=2.0, p=0.5"),
    "p changing along the curve": (
        lambda: efficiency_curve(lambda T: trial_moments(T, 0.5 if T < 2 else 0.3, 2.0), 4),
        "spec_for(2) gave T=2, delta=2.0, p=0.3; want T=2, delta=2.0, p=0.5"),
    # each function keeps the variant spellings it accepted
    "bounds variant 'at'": (lambda: variance_ratio_bounds(trial_moments(2, 0.5, 2.0), "at"),
                            "unknown variant 'at'"),
    "curve variant 'nt'": (lambda: efficiency_curve(lambda T: trial_moments(T, 0.5, 2.0), 2,
                                                    "nt"), "unknown variant 'nt'"),
    "base factor variant 'at'": (lambda: base_factor(2.0, 0.5, "at"), "unknown variant 'at'"),
    "estimator 'always_treated'": (
        lambda: exact_variance(trial_moments(2, 0.5, 2.0), "always_treated"),
        "unknown estimator 'always_treated'"),
}


@pytest.mark.parametrize("case", UNUSABLE_INPUTS)
def test_unusable_input_raises_config_error(case):
    call, message = UNUSABLE_INPUTS[case]
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message


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

    def test_long_horizon_bounds(self):
        # (1/r)^T leaves double range at T=1024 (r=0.5); zeta is 1 there to double precision
        assert variance_ratio_bounds(trial_moments(1000, 0.5, 5.0)) == (
            2.724824719137131e-143, 5.145384077785235e-142
        )
        assert variance_ratio_bounds(trial_moments(1023, 0.5, 5.0)) == (
            1.5040357924197167e-146, 2.887404069259883e-145
        )
        for T in (1024, 1100):
            lower, upper = variance_ratio_bounds(trial_moments(T, 0.5, 5.0))
            assert math.isfinite(lower) and math.isfinite(upper) and lower <= upper

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


def count_spec(T, mean_k, second_k, p=0.5, delta=2.0, b_u=1.0):
    return MomentSpec(p=p, delta=delta, T=T, b_u=b_u, mean_by_count=mean_k,
                      second_by_count=second_k)


class TestCertificate:
    @pytest.mark.parametrize("variant", ["always_treated", "never_treated"])
    def test_sweep_certificate_holds(self, variant):
        # the never-treated certificate used to be the always-treated arm's, and the exact
        # curve contradicted it in 9 of these 72 cases (p=0.2, delta=5: scan 2, ratio >= 1 to 60)
        for p, delta in itertools.product((0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95),
                                          (0.1, 0.2, 0.5, 0.8, 1.25, 2.0, 5.0, 10.0)):
            report = efficiency_curve(lambda T: trial_moments(T, p, delta), 40, variant)
            has_scan = delta > 1 if variant == "always_treated" else delta < 1
            assert (report.scan_T is not None) == has_scan, (p, delta)
            for row in report.rows:
                if has_scan and row["T"] >= report.scan_T:
                    assert row["ratio"] < 1.0, (p, delta, row["T"])

    def test_cli_defaults_pinned(self):
        always = efficiency_curve(lambda T: trial_moments(T, 0.5, 2.0), 12)
        assert (always.scan_T, always.crossing_T) == (3, 1)
        never = efficiency_curve(lambda T: trial_moments(T, 0.5, 2.0), 12, "never_treated")
        assert (never.scan_T, never.crossing_T) == (None, 1)

    def test_never_treated_is_always_treated_at_mirrored_point(self):
        p, delta, T_max = 0.3, 0.4, 10
        report = efficiency_curve(lambda T: trial_moments(T, p, delta), T_max, "never_treated")
        c1 = min(trial_moments(T, p, delta).second((0,) * T) / trial_moments(T, p, delta).b_u**2
                 for T in range(1, T_max + 1))
        assert report.scan_T == crossover_horizon_bound(1.0 / delta, 1.0 - p, c1)
        assert report.scan_T_strict == report.scan_T - 1

    def test_degenerate_never_treated_arm_raises(self):
        # Y = 0 on the never-treated arm: a raw ZeroDivisionError before
        spec_for = lambda T: count_spec(T, lambda k: 0.0 if k == 0 else 0.5,  # noqa: E731
                                        lambda k: 0.0 if k == 0 else 0.5)
        message = "never-treated outcome must be non-degenerate"
        with pytest.raises(ConfigError, match=message):
            variance_ratio_bounds(spec_for(3), "never_treated")
        with pytest.raises(ConfigError, match=message):
            efficiency_curve(spec_for, 3, "never_treated")
        with pytest.raises(ConfigError, match=message):
            exact_variance(spec_for(3), "nt")

    def test_degenerate_always_treated_arm_does_not_block_never_treated(self):
        spec = count_spec(3, lambda k: 0.0 if k == 3 else 0.5, lambda k: 0.0 if k == 3 else 0.5)
        lower, upper = variance_ratio_bounds(spec, "never_treated")
        assert 0.0 <= lower <= upper < math.inf
        with pytest.raises(ConfigError, match="always-treated outcome must be non-degenerate"):
            variance_ratio_bounds(spec, "always_treated")


def reference_path_sum(spec, f1, moment):
    """Sum over sequences of prod_t (f1 if a_t = 1 else 1 - p) * moment(a), term by term.

    The comb-and-pow count sum of the first implementation, kept as the
    reference for the binomial collapse; it overflows from T = 282 at
    delta = 5, p = 0.5.
    """
    p, T = spec.p, spec.T
    total = 0.0
    for k in range(T + 1):
        coef = math.comb(T, k) * f1**k * (1.0 - p) ** (T - k)
        total += coef * moment([1] * k + [0] * (T - k))
    return total


def reference_row(spec, variant):
    """var_deterministic, var_incremental, lower and upper as first implemented."""
    p, delta, T = spec.p, spec.delta, spec.T
    arm, r = ((1,) * T, p) if variant == "always_treated" else ((0,) * T, 1.0 - p)
    denom = delta * p + 1.0 - p
    first = reference_path_sum(spec, delta**2 * p, spec.second) / (denom**2) ** T
    mean = reference_path_sum(spec, delta * p, spec.mean) / denom**T
    floor = 1.0 / (1.0 - r**T * spec.mean(arm) ** 2 / spec.second(arm))
    c = floor * 1.001
    B = base_factor(delta, p, variant)
    C_T = spec.b_u**2 / spec.second(arm)
    zeta = 1.0 + c * spec.mean(arm) ** 2 / ((1.0 / r) ** T * spec.second(arm))
    min_second = min(spec.second([1] * k + [0] * (T - k)) for k in range(T + 1))
    return {
        "var_deterministic": (1.0 / r) ** T * spec.second(arm) - spec.mean(arm) ** 2,
        "var_incremental": first - mean**2,
        "lower": max(0.0, (min_second * B**T - spec.b_u**2 * r**T) / spec.second(arm)),
        "upper": C_T * zeta * B**T,
    }


def reference_bound_message(spec):
    """The first b_u violation in enumeration order, mean before second moment."""
    T = spec.T
    if spec.mean_by_count is not None:
        seqs = ([1] * k + [0] * (T - k) for k in range(T + 1))
    else:
        seqs = itertools.product((0, 1), repeat=T)
    for a_bar in seqs:
        if abs(spec.mean(a_bar)) > spec.b_u + 1e-12:
            return f"mean provider exceeds the outcome bound b_u at a={a_bar}"
        if spec.second(a_bar) > spec.b_u**2 + 1e-9:
            return f"second-moment provider exceeds b_u^2 at a={a_bar}"
    return None


class TestBinomialCollapse:
    @pytest.mark.parametrize(
        "delta,p,variant,T_max",
        [(d, p, "always_treated", 100) for d in (0.5, 2.0, 5.0) for p in (0.3, 0.5, 0.7)]
        + [(2.0, 0.5, "never_treated", 60)],
    )
    def test_matches_term_by_term_sums(self, delta, p, variant, T_max):
        report = efficiency_curve(lambda T: trial_moments(T, p, delta), T_max, variant)
        for row in report.rows:
            want = reference_row(trial_moments(row["T"], p, delta), variant)
            for key in ("var_deterministic", "lower", "upper"):
                assert row[key] == want[key], (row["T"], key)
            assert row["var_incremental"] == pytest.approx(want["var_incremental"], rel=1e-12)

    def test_trial_mean_equals_exact_truth_bitwise(self):
        # the shifted mean inside the 'inc' variance is the trial generator's psi_T(delta)
        for p, delta, T in itertools.product((0.3, 0.5, 0.7), (0.2, 2.0, 5.0), (1, 2, 5, 12, 40)):
            spec = trial_moments(T, p, delta)
            D = delta * p + 1.0 - p
            q = delta * p / D
            *_, mean = efficiency._collapse(spec._moments.mean, q, 1.0 - q)
            *_, second = efficiency._collapse(spec._moments.second, delta**2 * p / D**2,
                                              (1.0 - p) / D**2)
            truth = exact_effect_curve(DgpConfig(kind="trial", n=1, T=T, p=p), [delta], T)
            assert mean[0] == truth[0], (p, delta, T)
            assert exact_variance(spec, "inc") == float(second[0] - truth[0] ** 2), (p, delta, T)

    @pytest.mark.parametrize("T", [1, 2, 10, 300])
    def test_trial_truth_is_the_oracle_tables_stage_zero(self, T):
        grid = [0.1, 0.5, 1.0, 2.0, 5.0]
        truth = exact_effect_curve(DgpConfig(kind="trial", n=1, T=T, p=0.4), grid, T)
        tables = _trial_tables(T, incremental_propensity(0.4, np.asarray(grid)))
        assert np.array_equal(truth, tables[0][0])

    def test_last_step_held_alone(self):
        # every step was kept: 95.7 MiB for the curve and 7.8 MiB for the variance before
        cfg, grid = DgpConfig(kind="trial", n=1, T=1000, p=0.5), np.geomspace(0.1, 5.0, 25)
        spec = trial_moments(1000, 0.5, 2.0)
        for call, limit in ((lambda: exact_effect_curve(cfg, grid, 1000), 4 * 2**20),
                            (lambda: exact_variance(spec, "inc"), 2**20)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit

    def test_count_providers_called_once_per_count(self):
        calls = []

        def counted(k):
            calls.append(k)
            return 1.0 + k

        spec = MomentSpec(
            p=0.4, delta=2.0, T=30, b_u=40.0, mean_by_count=counted,
            second_by_count=lambda k: (1.0 + k) ** 2 + 1.0,
        )
        exact_variance(spec, "inc")
        variance_ratio_bounds(spec)
        variance_ratio_bounds(spec, "never_treated")
        # one table per spec, plus one read of each fixed arm's mean
        assert sorted(calls) == sorted(list(range(31)) + [30, 0])

    @pytest.mark.parametrize("estimator", ["at", "nt"])
    def test_fixed_arm_of_long_sequence_spec(self, estimator):
        # the fixed arm is one sequence, read through the providers without enumeration
        spec = MomentSpec(
            p=0.5, delta=2.0, T=25, b_u=1.0, mean_of=lambda a: 0.0, second_of=lambda a: 0.5,
        )
        assert exact_variance(spec, estimator) == 16777216.0

    def test_exact_variance_does_not_check_outcome_bound(self):
        T = 3
        spec = MomentSpec(
            p=0.5, delta=2.0, T=T, b_u=6.0,
            mean_by_count=lambda k: 5.0 if k == T else 50.0,
            second_by_count=lambda k: (5.0 if k == T else 50.0) ** 2,
        )
        assert exact_variance(spec, "at") == 175.0
        assert exact_variance(spec, "nt") == 17500.0
        assert exact_variance(spec, "inc") == pytest.approx(346.63923182441704, rel=1e-12)
        with pytest.raises(ConfigError, match="exceeds the outcome bound"):
            variance_ratio_bounds(spec)

    @pytest.mark.parametrize(
        "mean_of,second_of",
        [
            # (0, 1, 0) breaks the second moment before (0, 1, 1) breaks the mean
            (lambda a: 2.0 if a == (0, 1, 1) else 0.5, lambda a: 2.0 if a == (0, 1, 0) else 0.5),
            # one sequence breaking both reports its mean
            (lambda a: 2.0 if a == (1, 0, 0) else 0.5, lambda a: 5.0 if a == (1, 0, 0) else 0.5),
            (lambda a: 0.5, lambda a: 2.0 if sum(a) == 2 else 0.5),
        ],
    )
    def test_bound_offender_order_sequences(self, mean_of, second_of):
        spec = MomentSpec(p=0.5, delta=2.0, T=3, b_u=1.0, mean_of=mean_of, second_of=second_of)
        message = reference_bound_message(spec)
        with pytest.raises(ConfigError) as info:
            spec.check_bounds()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "mean_k,second_k",
        [
            (lambda k: 2.0 if k == 2 else 0.5, lambda k: 2.0 if k == 1 else 0.5),
            (lambda k: 2.0 if k == 1 else 0.5, lambda k: 5.0 if k == 1 else 0.5),
        ],
    )
    def test_bound_offender_order_counts(self, mean_k, second_k):
        spec = MomentSpec(
            p=0.5, delta=2.0, T=3, b_u=1.0, mean_by_count=mean_k, second_by_count=second_k
        )
        with pytest.raises(ConfigError) as info:
            variance_ratio_bounds(spec)
        assert str(info.value) == reference_bound_message(spec)

    def test_long_horizon_curve_finite(self):
        report = efficiency_curve(lambda T: trial_moments(T, 0.5, 5.0), 400)
        assert len(report.rows) == 400
        for row in report.rows:
            values = [row[k] for k in ("var_deterministic", "var_incremental", "ratio", "lower",
                                       "upper")]
            assert all(math.isfinite(v) for v in values), row["T"]
            assert row["lower"] <= row["ratio"] <= row["upper"], row["T"]

    @pytest.mark.parametrize(
        "T,p,delta,estimator",
        [(1100, 0.5, 5.0, "at"), (1100, 0.5, 5.0, "nt"), (1000, 0.7, 0.1, "inc"),
         (2000, 0.5, 5.0, "inc")],
    )
    def test_variance_beyond_double_precision_is_typed(self, T, p, delta, estimator):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match=f"at T={T} is beyond double precision"):
                exact_variance(trial_moments(T, p, delta), estimator)
