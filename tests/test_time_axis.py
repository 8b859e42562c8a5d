"""The time axis has one rule per kind of index, and every entry point applies it.

A stage of a panel or a configuration with T periods is an integer in
1..T (``errors.check_stage``); a horizon is a stage at which the panel
records an outcome (``panel.check_horizon``).  Every public function that
takes a stage or a horizon raises ``ConfigError`` for anything else,
before any fit, and never returns an empty result or ends in a raw
numpy or Python exception.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oddshift import (
    ConfigError,
    DeltaGrid,
    DgpConfig,
    LearnerSpec,
    NuisanceSpecs,
    complete_case_subset,
    estimate_complete_case,
    estimate_cross_fit,
    estimate_ipw,
    estimate_no_censoring,
    estimate_plugin,
    exact_effect_curve,
    fit_missingness_sequence,
    fit_nuisances,
    fit_propensity_sequence,
    fit_pseudo_outcome_sequence,
    history_features,
    nuisance,
    oracle_specs,
    simulate,
    true_effect_curve,
    true_propensities,
)
from oddshift.simulation import _ContinuationOracle, _trial_continuation, _trial_tables

CFG = DgpConfig(kind="dropout", n=50, T=3, seed=0)  # an outcome at t=3 only
GRID = DeltaGrid(values=(1.0, 2.0))
SPECS = NuisanceSpecs(
    pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.ridge(0.01)
)

CALLS = {
    "history_features": lambda ds, t: history_features(ds, t),
    "fit_propensity_sequence": lambda ds, t: fit_propensity_sequence(ds, None, SPECS.pi, t_star=t),
    "fit_missingness_sequence": lambda ds, t: fit_missingness_sequence(
        ds, None, SPECS.omega, t_star=t),
    "fit_pseudo_outcome_sequence": lambda ds, t: fit_pseudo_outcome_sequence(
        ds, None, np.full((ds.n, ds.T), 0.5), SPECS.m, GRID.values, t),
    "fit_nuisances": lambda ds, t: fit_nuisances(ds, None, SPECS, GRID.values, t),
    "estimate_cross_fit": lambda ds, t: estimate_cross_fit(ds, 2, 0, SPECS, GRID, t),
    "estimate_plugin": lambda ds, t: estimate_plugin(ds, SPECS, GRID, t),
    "estimate_ipw": lambda ds, t: estimate_ipw(ds, SPECS, GRID, t),
    "estimate_no_censoring": lambda ds, t: estimate_no_censoring(ds, 2, 0, SPECS, GRID, t),
    "estimate_complete_case": lambda ds, t: estimate_complete_case(ds, t),
    "complete_case_subset": lambda ds, t: complete_case_subset(ds, t),
    "true_propensities": lambda ds, t: true_propensities(CFG, ds, t),
    "true_effect_curve": lambda ds, t: true_effect_curve(CFG, GRID, t, draws=10),
    "exact_effect_curve": lambda ds, t: exact_effect_curve(CFG, GRID, t),
    "oracle_specs": lambda ds, t: oracle_specs(CFG, t),
}


@pytest.fixture(scope="module")
def dropout_panel():
    return simulate(CFG)


@pytest.mark.parametrize("t", [0, CFG.T + 1, 2.0, True, float(CFG.T), str(CFG.T)])
@pytest.mark.parametrize("name", list(CALLS))
def test_every_stage_and_horizon_argument_is_checked(dropout_panel, monkeypatch, name, t):
    monkeypatch.setattr(nuisance, "fit_learner", lambda *a, **k: pytest.fail("fit before check"))
    with pytest.raises(ConfigError):
        CALLS[name](dropout_panel, t)


class TestOracleHorizon:
    CFG = DgpConfig(kind="trial", n=200, T=5, seed=1)
    GRID = DeltaGrid(values=(1.0, 2.0))

    @pytest.mark.parametrize("kind", ["trial", "dropout"])
    def test_an_earlier_horizon_refuses_a_later_stage(self, kind):
        cfg = replace(self.CFG, kind=kind)
        ds = simulate(cfg)
        message = r"^oracle for horizon t=3: stage t=5 must lie in 1\.\.3$"
        with pytest.raises(ConfigError, match=message):
            estimate_cross_fit(ds, 2, 0, oracle_specs(cfg, 3), self.GRID, 5)
        estimate_cross_fit(ds, 2, 0, oracle_specs(cfg, 5), self.GRID, 5)

    @pytest.mark.parametrize("t_star,message", [
        (0, r"^horizon t=0 must lie in 1\.\.5$"),
        (7, r"^horizon t=7 must lie in 1\.\.5$"),
        (2.0, r"^t must be an integer >= 1, got 2\.0$"),
    ])
    def test_horizon_must_be_a_stage_of_the_config(self, t_star, message):
        # t_star=7 ran silently at T=5 on the continuation tables of another horizon
        with pytest.raises(ConfigError, match=message):
            oracle_specs(self.CFG, t_star)

    def test_each_continuation_oracle_names_both_horizons(self):
        ds = simulate(replace(self.CFG, kind="dropout"))
        units = np.arange(ds.n)
        trial = _trial_tables(3, np.array([0.5]))
        for oracle in (_ContinuationOracle(3, (2.0,)).predict,
                       lambda *args: _trial_continuation(trial, 3, *args)):
            with pytest.raises(ConfigError, match=r"^oracle for horizon t=3: stage t=4 "):
                oracle(ds, 4, units, 1.0)


def test_each_time_rule_has_one_owner():
    # errors owns the stage range message and panel the horizon one; neither
    # module copy of the horizon check is left
    owners = {"must lie in 1..": {"errors"}, "no recorded outcome": {"panel"}}
    found = {text: set() for text in owners}
    defined = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "oddshift").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.update({text: modules | {path.stem} for text, modules in found.items()
                              if text in node.value})
            elif isinstance(node, ast.FunctionDef) and node.name == "_check_horizon":
                defined.add(path.stem)
    assert found == owners
    assert not defined
