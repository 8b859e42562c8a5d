"""The traced benchmark run wraps package functions by name: each must still be there.

``perfbench/spans.py`` replaces functions where they are looked up at call
time and skips a name that no longer exists, so a renamed function would
silently read zero in its per-layer metric.  This test installs the tracer
and asserts that every (owner, attribute) pair it wraps was wrapped, and
that the parameters and fields its counters read keep their names.
"""

import dataclasses
import inspect
import sys
from pathlib import Path

from oddshift import cli, efficiency, estimator, inference, learners, nuisance, panel, simulation

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import Tracer  # noqa: E402

WRAPPED = [
    (cli, "main"),
    (cli, "load_long_csv"),
    (cli, "estimate_cross_fit"),
    (cli, "uniform_band"),
    (panel.PanelDataset, "from_arrays"),
    (learners.FittedModel, "predict"),
    (nuisance, "history_features"),
    (nuisance, "fit_propensity_sequence"),
    (nuisance, "fit_missingness_sequence"),
    (nuisance, "fit_pseudo_outcome_sequence"),
    (nuisance, "fit_learner"),
    (estimator, "eif_values_for"),
    (estimator, "split_folds"),
    (estimator, "estimate_cross_fit"),
    (simulation, "estimate_cross_fit"),
    (simulation, "estimate_plugin"),
    (simulation, "estimate_ipw"),
    (simulation, "estimate_no_censoring"),
    (simulation, "simulate"),
    (simulation, "true_effect_curve"),
    (simulation, "relative_efficiency_mc"),
    (inference, "uniform_band"),
    (efficiency, "decomposition_check"),
    (efficiency, "efficiency_curve"),
]


def _raw(owner, attr):
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def test_every_traced_name_is_wrapped():
    before = [_raw(owner, attr) for owner, attr in WRAPPED]
    assert all(f is not None for f in before)
    tracer = Tracer()
    tracer.install()
    try:
        missed = [f"{getattr(owner, '__name__', owner)}.{attr}"
                  for (owner, attr), f in zip(WRAPPED, before) if _raw(owner, attr) is f]
        assert missed == []
    finally:
        tracer.uninstall()
    assert all(_raw(owner, attr) is f for (owner, attr), f in zip(WRAPPED, before))


def test_counter_inputs_keep_their_names():
    # nuisance.missingness.* reads these arguments, estimator.eif.* reads eta.excluded_fold
    for fit in (nuisance.fit_missingness_sequence, nuisance.fit_propensity_sequence):
        assert {"folds", "exclude_fold"} <= set(inspect.signature(fit).parameters)
    assert "eta" in inspect.signature(estimator.eif_values_for).parameters
    assert "excluded_fold" in {f.name for f in dataclasses.fields(nuisance.NuisanceSet)}
    assert "pred" in {f.name for f in dataclasses.fields(nuisance.SequenceFit)}
