"""The benchmark calls package functions by name and shape: each must still take the call.

``perfbench/spans.py`` replaces functions where they are looked up at call
time and skips a name that no longer exists, so a renamed function would
silently read zero in its per-layer metric.  This test installs the tracer
and asserts that every (owner, attribute) pair it wraps was wrapped, and
that the parameters and fields its counters read keep their names.  It
also reads every call into the package that ``perfbench/workloads.py``
makes and checks that the callee still accepts its positional count and
keyword names, so a removed parameter fails here and not in a benchmark
run.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

from oddshift import cli, efficiency, estimator, inference, learners, nuisance, panel, simulation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

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


def _package_calls(path: Path):
    """(dotted callee, callee, positional count or None if starred, keyword names) per call.

    Only calls rooted at a name the file imports from ``oddshift`` are kept.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "oddshift":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.insert(0, func.attr)
            func = func.value
        if not (isinstance(func, ast.Name) and func.id in names):
            continue
        callee = names[func.id]
        for attr in parts:
            callee = getattr(callee, attr)  # a removed name fails here
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        yield (".".join([func.id, *parts]), callee, None if starred else len(node.args),
               [k.arg for k in node.keywords if k.arg is not None])


def test_workload_calls_fit_the_package_signatures():
    seen = set()
    for name, callee, n_args, keywords in _package_calls(PERFBENCH / "workloads.py"):
        sig = inspect.signature(callee)
        if n_args is None:  # a starred argument: check the keywords alone
            sig.bind_partial(**dict.fromkeys(keywords))
        else:
            sig.bind(*[None] * n_args, **dict.fromkeys(keywords))
        seen.add(name)
    assert {
        "simulation.run_benchmark", "simulation.true_effect_curve",
        "simulation.relative_efficiency_mc", "simulation.simulate", "simulation.DgpConfig",
        "simulation.oracle_specs", "inference.uniform_band", "panel.write_long_csv",
        "estimator.estimate_cross_fit", "efficiency.efficiency_curve", "cli.main",
    } <= seen
