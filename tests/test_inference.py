import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from oddshift import (
    ConfigError,
    DeltaGrid,
    EffectEstimate,
    EifMatrix,
    EstimationError,
    estimate_variance,
    inference,
    pointwise_interval,
    uniform_band,
)


def make_pair(values, grid=None):
    n, D = values.shape
    grid = grid or DeltaGrid(values=tuple(np.linspace(1.0, 2.0, D)))
    psi = values.mean(axis=0)
    est = EffectEstimate(
        psi_hat=psi,
        sigma_hat=np.sqrt(np.mean((values - psi) ** 2, axis=0)),
        n=n,
        t=1,
        kind="test",
        grid=grid,
        per_fold=psi[None, :],
    )
    return EifMatrix(values=values, t=1, grid=grid), est


class TestVariance:
    def test_constant_values(self):
        eif, est = make_pair(np.full((10, 2), 3.0))
        assert np.all(estimate_variance(eif, est) == 0.0)

    def test_two_point(self):
        eif, est = make_pair(np.array([[0.0], [2.0]]))
        assert estimate_variance(eif, est)[0] == pytest.approx(1.0, abs=1e-15)

    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(500, 4))
        eif, est = make_pair(values)
        sigma = estimate_variance(eif, est)
        for j in range(4):
            acc = 0.0
            for i in range(500):
                acc += (values[i, j] - est.psi_hat[j]) ** 2
            assert sigma[j] == pytest.approx(np.sqrt(acc / 500), abs=1e-12)

    @pytest.mark.parametrize(
        "change, message",
        [
            # same grid size, other values and horizon: once labelled with one, carrying the other
            ({"grid": DeltaGrid(values=(0.1, 1.0, 5.0)), "t": 7}, "different grids"),
            ({"t": 7}, r"at \(t, n\)=\(3, 200\), estimate at \(7, 200\)"),
            ({"n": 199}, r"at \(t, n\)=\(3, 200\), estimate at \(3, 199\)"),
        ],
    )
    @pytest.mark.parametrize("pooled", [False, True])
    def test_mismatched_pair_rejected(self, change, message, pooled, monkeypatch):
        rng = np.random.default_rng(8)
        grid = DeltaGrid(values=(0.5, 1.0, 2.0))
        main, other = (make_pair(rng.normal(size=(200, 3)), grid) for _ in range(2))
        main, other = ((replace(eif, t=3), replace(est, t=3)) for eif, est in (main, other))
        bad = (other if pooled else main)[0], replace((other if pooled else main)[1], **change)
        with pytest.raises(ConfigError, match=message):
            estimate_variance(*bad)
        monkeypatch.setattr(inference, "_draw_signs", lambda *a: pytest.fail("bootstrap started"))
        with pytest.raises(ConfigError, match=message):
            if pooled:
                uniform_band(*main, B=200, seed=0, pool_with=[bad])
            else:
                uniform_band(*bad, B=200, seed=0, pool_with=[other])


class TestPointwise:
    def test_degenerate(self):
        lo, hi = pointwise_interval(np.array([2.0]), np.array([0.0]), 100, 0.05)
        assert lo[0] == hi[0] == 2.0

    def test_half_width(self):
        lo, hi = pointwise_interval(np.array([0.0]), np.array([1.0]), 100, 0.05)
        z = norm.ppf(0.975)
        assert hi[0] == pytest.approx(z / 10.0, abs=1e-9)
        assert hi[0] == pytest.approx(0.195996, abs=1e-6)

    def test_root_n_scaling(self):
        _, hi1 = pointwise_interval(np.array([0.0]), np.array([1.0]), 100, 0.05)
        _, hi4 = pointwise_interval(np.array([0.0]), np.array([1.0]), 400, 0.05)
        assert hi4[0] == pytest.approx(hi1[0] / 2.0, abs=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(ConfigError):
            pointwise_interval(np.array([0.0]), np.array([1.0]), 10, 0.0)

    @pytest.mark.parametrize("n", [0, -3, 2.0, True])
    def test_n_must_be_a_positive_integer(self, n):
        # n=0 gave infinite half-widths with a divide-by-zero warning, n=-3 NaN intervals
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=rf"^n must be an integer >= 1, got {n!r}$"):
                pointwise_interval(np.array([0.0]), np.array([1.0]), n, 0.05)

    @pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.05, 0.5, 0.95])
    def test_z_bitwise_scipy_stats_norm(self, alpha):
        lo, hi = pointwise_interval(np.array([0.0]), np.array([1.0]), 1, alpha)
        z = norm.ppf(1.0 - alpha / 2.0)
        assert hi[0] == z and lo[0] == -z


@pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.05, 0.5, 0.95])
def test_band_floor_z_bitwise_scipy_stats_norm(alpha):
    # two units: every replicate's sup is 0 or sqrt(2), below z_{1-alpha/2}
    # at each level for this seed, so c_alpha is the floor z itself
    band = uniform_band(*make_pair(np.array([[-1.0], [1.0]])), alpha=alpha, B=1000, seed=0)
    z = float(norm.ppf(1.0 - alpha / 2.0))
    assert band.c_alpha_raw < z
    assert band.c_alpha == z


def _neighbours(y, steps=3):
    """y and the ``steps`` floats on either side of it."""
    below, above = [y], [y]
    for _ in range(steps):
        below.append(float(np.nextafter(below[-1], 0.0)))
        above.append(float(np.nextafter(above[-1], 1.0)))
    return below[::-1] + above[1:]


# both sides of the centre's edges exp(-2) and 1 - exp(-2), of the tails'
# switch at x = sqrt(-2 log y) = 8 (y = exp(-32)) on either tail, the
# extremes and the midpoint
_NDTRI_POINTS = [
    *_neighbours(math.exp(-2.0)),
    *_neighbours(1.0 - math.exp(-2.0)),
    *_neighbours(math.exp(-32.0)),
    *_neighbours(1.0 - math.exp(-32.0)),
    1e-300, 5e-324, 1e-100, 1e-20, 1.0 - 2.0**-53, 1.0 - 1e-16, 0.5, 0.0, 1.0,
]


def _same_bits(got, want):
    return np.float64(got).tobytes() == np.float64(want).tobytes()


class TestNdtri:
    def test_fixed_points_bitwise_scipy_special(self):
        tails = np.array([min(y, 1.0 - y) for y in _NDTRI_POINTS if 0.0 < y < 1.0])
        x = np.sqrt(-2.0 * np.log(tails))
        assert np.any((x > 7.9) & (x < 8.0)) and np.any((x >= 8.0) & (x < 8.1))
        for y in _NDTRI_POINTS:
            assert _same_bits(inference._ndtri(y), ndtri(y)), y
        assert inference._ndtri(0.0) == -math.inf and inference._ndtri(1.0) == math.inf

    @given(y=st.one_of(
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.5).map(lambda e: 1.0 - e),  # the upper tail, down to 1 - 2^-53
    ))
    @settings(max_examples=2000, deadline=None)
    def test_bitwise_scipy_special(self, y):
        assert _same_bits(inference._ndtri(y), ndtri(y))


@pytest.fixture(scope="module")
def gaussian_pair():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(2500, 5)) + rng.normal(size=(2500, 1))
    return make_pair(values)


class TestUniformBand:
    def test_contains_pointwise(self, gaussian_pair):
        eif, est = gaussian_pair
        band = uniform_band(eif, est, alpha=0.05, B=500, seed=1)
        assert band.c_alpha >= norm.ppf(0.975)
        assert np.all(band.uniform_lo <= band.pointwise_lo + 1e-12)
        assert np.all(band.uniform_hi >= band.pointwise_hi - 1e-12)

    def test_deterministic(self, gaussian_pair):
        eif, est = gaussian_pair
        a = uniform_band(eif, est, alpha=0.05, B=400, seed=9)
        b = uniform_band(eif, est, alpha=0.05, B=400, seed=9)
        assert a.c_alpha == b.c_alpha
        assert np.array_equal(a.uniform_lo, b.uniform_lo)

    def test_alpha_nesting(self, gaussian_pair):
        eif, est = gaussian_pair
        wide = uniform_band(eif, est, alpha=0.05, B=400, seed=2)
        narrow = uniform_band(eif, est, alpha=0.10, B=400, seed=2)
        assert wide.c_alpha >= narrow.c_alpha
        assert np.all(wide.uniform_lo <= narrow.uniform_lo)
        assert np.all(wide.uniform_hi >= narrow.uniform_hi)
        assert np.all(wide.pointwise_lo <= narrow.pointwise_lo)

    def test_grid_monotone_sup(self, gaussian_pair):
        eif, est = gaussian_pair
        sub_vals = eif.values[:, :2]
        sub_eif, sub_est = make_pair(sub_vals, DeltaGrid(values=eif.grid.values[:2]))
        small = uniform_band(sub_eif, sub_est, alpha=0.05, B=300, seed=5)
        big = uniform_band(eif, est, alpha=0.05, B=300, seed=5)
        assert big.c_alpha >= small.c_alpha - 1e-12

    def test_zero_variance_column_excluded(self):
        rng = np.random.default_rng(4)
        values = np.column_stack([rng.normal(size=300), np.full(300, 2.0)])
        eif, est = make_pair(values)
        with pytest.warns(UserWarning, match="excluded"):
            band = uniform_band(eif, est, alpha=0.05, B=200, seed=3)
        assert band.excluded == (eif.grid.values[1],)
        assert band.uniform_lo[1] == band.uniform_hi[1] == 2.0

    def test_pooled_zero_variance_column_warns(self):
        rng = np.random.default_rng(4)
        main = make_pair(rng.normal(size=(300, 2)))
        other_eif, other_est = make_pair(
            np.column_stack([rng.normal(size=300), np.full(300, 5.0)]),
            DeltaGrid(values=(0.5, 3.0)),
        )
        other_eif.t = other_est.t = 4
        with pytest.warns(UserWarning) as record:
            band = uniform_band(*main, B=200, seed=3, pool_with=[(other_eif, other_est)])
        assert [str(w.message) for w in record] == [
            "zero influence-value variance at pooled horizon t=4, delta=(3.0,); "
            "excluded from the uniform supremum"
        ]
        assert band.excluded == ()  # the main horizon's delta values only

    def test_needs_enough_replicates(self, gaussian_pair):
        eif, est = gaussian_pair
        with pytest.raises(ConfigError):
            uniform_band(eif, est, alpha=0.05, B=50, seed=0)

    def test_pooled_horizons_widen_critical_value(self, gaussian_pair):
        eif, est = gaussian_pair
        rng = np.random.default_rng(21)
        other_vals = rng.normal(size=(eif.values.shape[0], 3))
        other_eif, other_est = make_pair(
            other_vals, DeltaGrid(values=(1.0, 2.0, 3.0))
        )
        single = uniform_band(eif, est, alpha=0.05, B=300, seed=6)
        pooled = uniform_band(
            eif, est, alpha=0.05, B=300, seed=6, pool_with=[(other_eif, other_est)]
        )
        assert pooled.c_alpha >= single.c_alpha - 1e-12
        with pytest.raises(ConfigError):
            short_eif, short_est = make_pair(other_vals[:100])
            uniform_band(eif, est, B=300, seed=0, pool_with=[(short_eif, short_est)])


def reference_bootstrap_sup(centered, sigma, n, B, seed):
    """The per-replicate loop: one gemv per replicate on its own keyed stream."""
    scaled = centered / (np.sqrt(n) * sigma[None, :])  # sum_i xi_i * scaled -> stat
    sups = np.empty(B)
    for b in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        xi = rng.integers(0, 2, size=n) * 2.0 - 1.0
        sups[b] = np.max(np.abs(xi @ scaled))
    return sups


def reference_c_alpha_raw(pairs, alpha, B, seed):
    centered, sigmas = [], []
    for eif, est in pairs:
        sigma = estimate_variance(eif, est)
        keep = sigma > 0
        centered.append(eif.values[:, keep] - est.psi_hat[None, keep])
        sigmas.append(sigma[keep])
    n = pairs[0][0].n
    sups = reference_bootstrap_sup(
        np.concatenate(centered, axis=1), np.concatenate(sigmas), n, B, seed
    )
    return float(np.quantile(sups, 1.0 - alpha))


def integer_values(rng, n, D):
    """Small integers with heavy ties; no column is constant."""
    values = rng.integers(0, 3, size=(n, D)).astype(float)
    values[0] = 0.0
    values[1] = rng.integers(1, 4, size=D)
    return values


def record_draws(monkeypatch) -> list:
    """The replicates that ``_draw_signs`` draws from now on, in call order."""
    draws, built = inference._draw_signs, []

    def counted(keys, start, out):
        built.extend(range(start, start + out.shape[0]))
        return draws(keys, start, out)

    monkeypatch.setattr(inference, "_draw_signs", counted)
    return built


@st.composite
def centered_columns(draw):
    """Columns for the first pass: tie-heavy integers, magnitudes down to 1e-45, or normals.

    The 1e-45 end rounds to float32 subnormals or to zero.  n runs over a
    few chunks of the first pass and is mostly not a multiple of one.
    """
    n = draw(st.integers(2, 3 * inference._CHUNK + 3))
    D = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["ties", "wide", "normal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        values = integer_values(rng, n, D) - 1.0
    elif kind == "wide":
        values = rng.choice([-1.0, 1.0], size=(n, D)) * 10.0 ** rng.uniform(-45, 0, size=(n, D))
        values[0] = 1.0
    else:
        values = rng.normal(size=(n, D))
    return values, draw(st.integers(0, 2**40))


class TestBlockedBootstrap:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(centered_columns())
    def test_first_pass_within_rounding_bound_of_gemv(self, case):
        centered, seed = case
        n, B = centered.shape[0], 64
        sigma = np.sqrt(np.mean(centered**2, axis=0))
        denom = np.sqrt(n) * sigma[None, :]
        keys = inference._stream_keys(seed, B)
        approx = inference._chunked_sups(centered, denom, keys)
        exact = reference_bootstrap_sup(centered, sigma, n, B, seed)
        eps = inference._rounding_bound(centered / denom)
        assert np.all(np.abs(approx - exact) <= eps), np.max(np.abs(approx - exact)) / eps

    def test_rounding_bound_recomputes_few_replicates_at_scale(self, monkeypatch):
        # a bound gone slack would send many replicates to the second pass
        rng = np.random.default_rng(20)
        pair = make_pair(rng.normal(size=(20_000, 25)) + rng.normal(size=(20_000, 1)))
        B, built = 2000, record_draws(monkeypatch)
        uniform_band(*pair, alpha=0.05, B=B, seed=3)
        assert sorted(set(built)) == list(range(B))
        assert len(built) - B <= 2 + B // 100

    @pytest.mark.parametrize(
        "n, D, B, alpha, pooled, ties",
        [
            (2, 1, 100, 0.05, False, True),
            (2, 9, 101, 0.5, True, True),
            (2, 25, 1000, 0.95, False, True),
            (3, 25, 1000, 0.01, False, True),
            (3, 1, 101, 0.95, True, False),
            (50, 9, 1000, 0.05, False, False),
            (50, 25, 100, 0.95, True, True),
            (50, 1, 101, 0.5, False, False),
            (2000, 25, 1000, 0.05, False, False),
            (2000, 1, 101, 0.01, True, False),
            (2000, 9, 100, 0.5, False, True),
            (20000, 25, 200, 0.05, False, False),
            (20000, 9, 200, 0.01, True, False),
        ],
    )
    def test_critical_value_bitwise_reference(self, n, D, B, alpha, pooled, ties):
        rng = np.random.default_rng(n * 1000 + D * 10 + B)
        make = integer_values if ties else (lambda r, k, d: r.normal(size=(k, d)))
        pair = make_pair(make(rng, n, D))
        pool = [make_pair(make(rng, n, 3), DeltaGrid(values=(1.0, 2.0, 3.0)))] if pooled else []
        band = uniform_band(*pair, alpha=alpha, B=B, seed=17, pool_with=pool)
        assert band.c_alpha_raw == reference_c_alpha_raw([pair, *pool], alpha, B, 17)

    @pytest.mark.parametrize("rows", [1, 7, 1000])
    def test_independent_of_block_size(self, gaussian_pair, monkeypatch, rows):
        eif, est = gaussian_pair
        default = uniform_band(eif, est, alpha=0.05, B=1000, seed=8)
        monkeypatch.setattr(inference, "_SIGN_BLOCK_BYTES", rows * 8 * eif.n)
        blocked = uniform_band(eif, est, alpha=0.05, B=1000, seed=8)
        assert blocked.c_alpha_raw == default.c_alpha_raw
        assert blocked.c_alpha == default.c_alpha

    def test_refinement_recomputes_few_replicates(self, gaussian_pair, monkeypatch):
        eif, est = gaussian_pair
        built = record_draws(monkeypatch)
        uniform_band(eif, est, alpha=0.05, B=1000, seed=4)
        assert sorted(set(built)) == list(range(1000))
        assert len(built) <= 1000 + 4


class TestSignStream:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**62, 2**64 + 5, 2**130 + 11])
    def test_stream_keys_are_seed_sequence_pcg64_bitwise(self, seed):
        keys = inference._stream_keys(seed, 10_000)
        assert keys.shape == (10_000, 4)
        for b in [*range(300), *range(9990, 10_000)]:
            stream = np.random.SeedSequence(entropy=seed, spawn_key=(b,))
            assert np.array_equal(keys[b], stream.generate_state(4, np.uint64)), b
            expected = np.random.PCG64(stream)
            seeded = np.random.PCG64(inference._Key(keys[b]))
            assert seeded.state == expected.state, b
            assert np.array_equal(seeded.random_raw(3), expected.random_raw(3)), b

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**62])
    def test_signs_are_generator_integers_bitwise(self, seed):
        # Generator.integers is the reference: a numpy that changes its draw fails here
        keys = inference._stream_keys(seed, 64)
        for n in (1, 2, 3, 7, 2000, 2001, 20001):
            # replicates 0-2 one row each, then 3-63 as one block
            rows = [inference._draw_signs(keys, b, np.empty((1, n), np.float32))
                    for b in range(3)]
            rows.append(inference._draw_signs(keys, 3, np.empty((61, n), np.float32)))
            signs = np.concatenate(rows).astype(np.float64)
            for b in range(64):
                stream = np.random.SeedSequence(entropy=seed, spawn_key=(b,))
                expected = np.random.default_rng(stream).integers(0, 2, size=n) * 2.0 - 1.0
                assert np.array_equal(signs[b].view(np.uint64), expected.view(np.uint64)), (b, n)

    def test_band_builds_no_generator(self, gaussian_pair, monkeypatch):
        def no_generator(*args, **kwargs):
            pytest.fail("a numpy Generator was built")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        monkeypatch.setattr(np.random, "Generator", no_generator)
        band = uniform_band(*gaussian_pair, alpha=0.05, B=500, seed=9)
        monkeypatch.undo()
        assert band.c_alpha_raw == reference_c_alpha_raw([gaussian_pair], 0.05, 500, 9)

    def test_band_builds_no_seed_sequence(self, gaussian_pair, monkeypatch):
        # every replicate's key comes from one pass, not from a SeedSequence of its own
        def no_seed_sequence(*args, **kwargs):
            pytest.fail("a numpy SeedSequence was built")

        monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
        band = uniform_band(*gaussian_pair, alpha=0.05, B=1000, seed=12)
        monkeypatch.undo()
        assert band.c_alpha_raw == reference_c_alpha_raw([gaussian_pair], 0.05, 1000, 12)


class TestBandInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pooled", [False, True])
    def test_non_finite_influence_values_raise(self, bad, pooled, monkeypatch):
        rng = np.random.default_rng(5)
        main = make_pair(rng.normal(size=(200, 3)), DeltaGrid(values=(0.5, 1.0, 2.0)))
        other = make_pair(rng.normal(size=(200, 2)), DeltaGrid(values=(1.0, 4.0)))
        (other if pooled else main)[0].values[7, 1] = bad
        monkeypatch.setattr(inference, "_draw_signs", lambda *a: pytest.fail("bootstrap started"))
        delta = "4.0" if pooled else "1.0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match=rf"non-finite .* delta=\({delta},\)"):
                uniform_band(*main, B=200, seed=0, pool_with=[other])

    @pytest.mark.parametrize("pooled", [False, True])
    def test_overflow_when_standardized_raises(self, pooled, monkeypatch):
        rng = np.random.default_rng(6)
        main = make_pair(rng.normal(size=(200, 2)))
        other = make_pair(rng.normal(size=(200, 2)))
        (other if pooled else main)[0].values[:, 0] *= 1e300
        monkeypatch.setattr(inference, "_draw_signs", lambda *a: pytest.fail("bootstrap started"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match=r"overflow .* delta=\(1\.0,\)"):
                uniform_band(*main, B=200, seed=0, pool_with=[other])

    @pytest.mark.parametrize("B", [1000.5, 500.0])
    def test_non_integer_replicate_count(self, gaussian_pair, B):
        with pytest.raises(ConfigError, match="integer"):
            inference.check_band_options(0.05, B)
        with pytest.raises(ConfigError, match="integer"):
            uniform_band(*gaussian_pair, B=B, seed=0)

    @pytest.mark.parametrize("seed", [-1, -(2**40), True, False, 1.0, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, gaussian_pair, seed, monkeypatch):
        monkeypatch.setattr(inference, "_draw_signs", lambda *a: pytest.fail("bootstrap started"))
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            uniform_band(*gaussian_pair, B=200, seed=seed)
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            inference._stream_keys(seed, 100)

    def test_numpy_integer_seed(self, gaussian_pair):
        band = uniform_band(*gaussian_pair, B=300, seed=np.uint64(2**63 + 1))
        assert band.c_alpha_raw == reference_c_alpha_raw([gaussian_pair], 0.05, 300, 2**63 + 1)

    def test_replicate_count_fits_one_spawn_key_word(self):
        inference.check_band_options(0.05, 2**32)
        with pytest.raises(ConfigError, match="at most 2"):
            inference.check_band_options(0.05, 2**32 + 1)

    def test_numpy_integer_replicate_count(self, gaussian_pair):
        inference.check_band_options(0.05, np.int64(500))
        band = uniform_band(*gaussian_pair, B=np.int64(300), seed=2)
        assert band.c_alpha_raw == uniform_band(*gaussian_pair, B=300, seed=2).c_alpha_raw
