import ast
from pathlib import Path

import numpy as np
import pytest

from oddshift import (
    ConfigError,
    DeltaGrid,
    default_grid,
    density_ratio,
    incremental_propensity,
)
from oddshift.errors import check_count, check_open_unit


class TestShiftedPropensity:
    @pytest.mark.parametrize("delta", [0.0, -0.5, np.nan, np.inf, [2.0, np.nan], []])
    def test_delta_must_be_finite_and_positive(self, delta):
        for fn in (incremental_propensity, lambda pi, d: density_ratio(1, pi, d)):
            with pytest.raises(ConfigError, match="delta must be finite and positive"):
                fn(0.3, np.asarray(delta))

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
            DeltaGrid.log_spaced(0.1, np.inf, 3)

    @pytest.mark.parametrize("num", [2.5, 0, True])
    def test_log_spaced_num_must_be_a_count(self, num):
        with pytest.raises(ConfigError) as info:
            DeltaGrid.log_spaced(0.1, 5.0, num)
        assert str(info.value) == f"num must be an integer >= 1, got {num!r}"

    def test_of_keeps_a_grid_and_builds_one_from_values(self):
        grid = DeltaGrid.log_spaced(0.5, 2.0, 3)
        assert DeltaGrid.of(grid) is grid
        for values in ([0.5, 1.0, 2.0], (0.5, 1.0, 2.0), np.array([0.5, 1.0, 2.0])):
            built = DeltaGrid.of(values)
            assert built == DeltaGrid(values=(0.5, 1.0, 2.0))
            assert all(type(v) is float for v in built.values)

    @pytest.mark.parametrize("values,message", [
        ([], "grid must be non-empty"),
        ([5.0, 0.1], "grid values must be strictly increasing"),
        ([1.0, 1.0], "grid values must be strictly increasing"),
    ])
    def test_of_applies_the_grid_rule(self, values, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            DeltaGrid.of(values)


@pytest.mark.parametrize("value,low,message", [
    (-1, 0, "x must be a non-negative integer, got -1"),
    (True, 0, "x must be a non-negative integer, got True"),
    (1, 2, "x must be an integer >= 2, got 1"),
    (2.0, 1, "x must be an integer >= 1, got 2.0"),
    ("3", 1, "x must be an integer >= 1, got '3'"),
])
def test_check_count_message(value, low, message):
    with pytest.raises(ConfigError) as info:
        check_count(value, "x", low)
    assert str(info.value) == message


def test_check_count_returns_an_int():
    for value in (0, 7, np.int64(7), np.uint8(7)):
        got = check_count(value, "x", 0)
        assert type(got) is int and got == value


@pytest.mark.parametrize("value", [0.0, 1.0, -0.5, 1.5, np.nan])
def test_check_open_unit_message(value):
    with pytest.raises(ConfigError) as info:
        check_open_unit(value, "q")
    assert str(info.value) == "q must lie in (0,1)"
    check_open_unit(0.5, "q")


def test_each_input_rule_has_one_owner():
    # intervention owns the grid rule (DeltaGrid.of); errors owns the (0,1) rule and
    # the whole-number rule, which knn's k and the panel's n_periods keep for their
    # own pinned messages and exception type
    owners = {"DeltaGrid": {"intervention"}, "(0,1)": {"errors"},
              "Integral": {"errors", "learners", "panel"}}
    found = {rule: set() for rule in owners}
    for path in (Path(__file__).resolve().parents[1] / "src" / "oddshift").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and "DeltaGrid" in {getattr(n, "id", None) for n in ast.walk(node.args[1])}):
                found["DeltaGrid"].add(path.stem)
            elif isinstance(node, ast.Constant) and "must lie in (0,1)" in str(node.value):
                found["(0,1)"].add(path.stem)
            elif "Integral" in (getattr(node, "attr", None), getattr(node, "id", None)):
                found["Integral"].add(path.stem)
    for rule, modules in found.items():
        assert modules <= owners[rule], (rule, modules - owners[rule])
