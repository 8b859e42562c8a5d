import json

import numpy as np
import pytest

from oddshift import (
    ConfigError,
    DeltaGrid,
    default_grid,
    density_ratio,
    incremental_propensity,
)


class TestShiftedPropensity:
    def test_identity_at_one(self):
        assert incremental_propensity(0.3, 1.0) == pytest.approx(0.3, abs=1e-15)

    def test_boundary_fixed_points(self):
        assert incremental_propensity(0.0, 5.0) == 0.0
        assert incremental_propensity(1.0, 5.0) == 1.0

    def test_direct_value(self):
        assert incremental_propensity(0.5, 2.0) == pytest.approx(1.0 / 1.5, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            incremental_propensity(0.5, 0.0)
        with pytest.raises(ConfigError):
            incremental_propensity(1.2, 1.0)
        with pytest.raises(ConfigError):
            incremental_propensity(-0.1, 1.0)

    def test_odds_identity(self):
        rng = np.random.default_rng(42)
        pi = rng.uniform(0.01, 0.99, 2000)
        delta = np.exp(rng.uniform(np.log(0.1), np.log(5.0), 2000))
        q = incremental_propensity(pi, delta)
        lhs = q / (1.0 - q)
        rhs = delta * pi / (1.0 - pi)
        assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) < 1e-12

    def test_strictly_increasing_in_delta_and_pi(self):
        pis = np.linspace(0.05, 0.95, 12)
        deltas = np.exp(np.linspace(np.log(0.2), np.log(5.0), 12))
        for pi in pis:
            vals = incremental_propensity(np.full_like(deltas, pi), deltas)
            assert np.all(np.diff(vals) > 0)
        for delta in deltas:
            vals = incremental_propensity(pis, np.full_like(pis, delta))
            assert np.all(np.diff(vals) > 0)


class TestDensityRatio:
    def test_no_shift(self):
        for a in (0, 1):
            assert density_ratio(a, 0.37, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_values(self):
        assert density_ratio(1, 0.5, 2.0) == pytest.approx(2.0 / 1.5, abs=1e-12)
        assert density_ratio(0, 0.5, 2.0) == pytest.approx(1.0 / 1.5, abs=1e-12)

    def test_mean_one(self):
        rng = np.random.default_rng(7)
        pi = rng.uniform(0.01, 0.99, 1000)
        delta = np.exp(rng.uniform(np.log(0.1), np.log(5.0), 1000))
        mean = pi * density_ratio(1, pi, delta) + (1.0 - pi) * density_ratio(0, pi, delta)
        assert np.max(np.abs(mean - 1.0)) < 1e-12


class TestGrid:
    def test_default_grid(self):
        grid = default_grid()
        vals = np.asarray(grid.values)
        assert len(grid) == 25
        assert vals[0] == 0.1 and vals[-1] == 5.0
        ratios = vals[1:] / vals[:-1]
        assert np.max(np.abs(ratios - ratios[0])) < 1e-12

    def test_invalid_grids(self):
        with pytest.raises(ConfigError):
            DeltaGrid(values=(0.0, 1.0))
        with pytest.raises(ConfigError):
            DeltaGrid(values=(2.0, 1.0))
        for values in [(0.5, np.nan, 2.0), (1.0, np.inf), (-np.inf, 1.0), (np.nan,)]:
            with pytest.raises(ConfigError, match="grid values must be finite"):
                DeltaGrid(values=values)
        with pytest.raises(ConfigError, match="grid values must be finite"):
            DeltaGrid.from_json("[0.5, NaN, 2.0]")
        with pytest.raises(ConfigError, match="grid values must be finite"):
            DeltaGrid.log_spaced(0.1, np.inf, 3)

    def test_json_round_trip(self):
        grid = default_grid()
        again = DeltaGrid.from_json(grid.to_json())
        assert again.values == grid.values
        assert json.loads(grid.to_json())[0] == 0.1
