import numpy as np
import pytest
from scipy.stats import norm

from oddshift import (
    ConfigError,
    DeltaGrid,
    EffectEstimate,
    EifMatrix,
    estimate_variance,
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
    return EifMatrix(values=values, t=1, grid=grid, fold_by_row=np.zeros(n, dtype=np.int64)), est


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
