"""Span recorder and call-site wrappers for the traced benchmark run.

Spans are recorded from outside the package: each public function is
replaced, for the length of one job, by a wrapper installed where it is
looked up at call time.  Modules import names with ``from .x import y``,
so a function is wrapped in every module namespace that calls it, and
methods are wrapped on their class.  A name that no longer exists is
skipped, so its metrics read zero instead of failing the run.

Every counter is computed from the arguments and return values of the
wrapped calls.  Byte figures are computed from array shapes, not
measured.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

# span name -> name of the per-layer metric that receives its self time
SELF_TIME_METRICS = {
    "panel.load_long_csv": "panel.load_long_csv.s",
    "panel.from_arrays": "panel.from_arrays.s",
    "panel.history_features": "panel.history_features.s",
    "learners.knn.predict": "learners.knn.predict_s",
    "learners.logistic.fit": "learners.logistic.fit_s",
    "learners.ridge.fit": "learners.ridge.fit_s",
    "learners.ridge.predict": "learners.ridge.predict_s",
    "learners.oracle.predict": "learners.oracle.predict_s",
    "nuisance.propensity": "nuisance.propensity.s",
    "nuisance.missingness": "nuisance.missingness.s",
    "nuisance.pseudo_outcome": "nuisance.pseudo_outcome.s",
    "estimator.eif": "estimator.eif.s",
    "estimator.cross_fit": "estimator.cross_fit.self_s",
    "estimator.plugin": "estimator.plugin.s",
    "estimator.ipw": "estimator.ipw.s",
    "estimator.no_censoring": "estimator.no_censoring.s",
    "inference.uniform_band": "inference.uniform_band.s",
    "simulation.simulate": "simulation.simulate.s",
    "simulation.true_effect_curve": "simulation.true_effect_curve.s",
    "simulation.relative_efficiency_mc": "simulation.relative_efficiency_mc.self_s",
    "efficiency.decomposition_check": "efficiency.decomposition_check.s",
    "efficiency.efficiency_curve": "efficiency.efficiency_curve.s",
    "cli.main": "cli.self_s",
}

# counters reported as they are; a span's ".calls" counter counts its calls
COUNTERS = {
    "panel.from_arrays.calls": "count",
    "panel.from_arrays.cells": "count",
    "panel.history_features.calls": "count",
    "learners.knn.query_rows": "count",
    "learners.knn.dist_bytes": "B_computed",
    "learners.logistic.iterations": "count",
    "learners.ridge.fits": "count",
    "learners.oracle.calls": "count",
    "nuisance.propensity.calls": "count",
    "nuisance.missingness.calls": "count",
    "nuisance.missingness.pred_rows": "count",
    "nuisance.pseudo_outcome.calls": "count",
    "estimator.eif.calls": "count",
    "inference.uniform_band.bytes": "B_computed",
    "simulation.simulate.calls": "count",
}

# every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS.values()},
    **COUNTERS,
    "inference.uniform_band.reps_per_s": "1/s",
    "learners.clip_share": "ratio",
    "nuisance.missingness.useful_ratio": "ratio",
    "estimator.eif.useful_ratio": "ratio",
    "trace.job_s": "s",
    "trace.self_sum_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_s": "s",
}

_PREDICT_SPANS = {"knn": "learners.knn.predict", "ridge": "learners.ridge.predict",
                  "oracle": "learners.oracle.predict"}
_FIT_SPANS = {"logistic_irls": "learners.logistic.fit", "ridge": "learners.ridge.fit"}


class Tracer:
    """Spans (name, start, end, parent index) and counters for one traced job."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._folds = None  # the latest fold assignment made by split_folds

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called ``name`` (no span when name is None)."""
        if name is None:
            return fn(*args, **kwargs)
        self.counts[name + ".calls"] += 1
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            func = raw.__func__
            wrapped = classmethod(make(func, inspect.signature(func)))
        else:
            wrapped = make(raw, inspect.signature(raw))
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def _span_wrapper(self, name: str | None, on_call=None):
        def make(func, sig):
            def wrapper(*args, **kwargs):
                out = self.call(name, func, *args, **kwargs)
                if on_call is not None:
                    on_call(_arguments(sig, args, kwargs), out)
                return out
            return wrapper
        return make

    def install(self) -> None:
        mod = {m: importlib.import_module(f"oddshift.{m}") for m in (
            "cli", "efficiency", "estimator", "inference", "learners",
            "nuisance", "panel", "simulation")}
        c = self.counts
        wrap = self._patch
        span = self._span_wrapper

        def on_from_arrays(a, out):
            c["panel.from_arrays.cells"] += int(np.asarray(a["A"]).size)

        def on_missingness(a, out):
            predicted = ~np.isnan(out.pred)
            c["nuisance.missingness.pred_rows"] += int(predicted.sum())
            k = a["exclude_fold"]
            held = predicted if k is None else predicted[a["folds"].by_index == k]
            c["nuisance.missingness.useful_rows"] += int(held.sum())

        def on_eif(a, out):
            c["estimator.eif.rows"] += out.shape[0]
            k = a["eta"].excluded_fold
            folds = self._folds
            if k is None or folds is None or folds.by_index.shape[0] != out.shape[0]:
                c["estimator.eif.useful_rows"] += out.shape[0]
            else:
                c["estimator.eif.useful_rows"] += int(np.sum(folds.by_index == k))

        def on_split(a, out):
            self._folds = out

        def on_band(a, out):
            c["inference.uniform_band.reps"] += a["B"]
            c["inference.uniform_band.bytes"] += a["B"] * a["eif"].values.size * 8

        wrap(mod["cli"], "main", span("cli.main"))
        wrap(mod["cli"], "load_long_csv", span("panel.load_long_csv"))
        wrap(mod["panel"].PanelDataset, "from_arrays", span("panel.from_arrays", on_from_arrays))
        wrap(mod["nuisance"], "history_features", span("panel.history_features"))
        for owner in (mod["estimator"], mod["nuisance"]):
            wrap(owner, "fit_propensity_sequence", span("nuisance.propensity"))
            wrap(owner, "fit_missingness_sequence", span("nuisance.missingness", on_missingness))
        wrap(mod["nuisance"], "fit_pseudo_outcome_sequence", span("nuisance.pseudo_outcome"))
        wrap(mod["estimator"], "eif_values_for", span("estimator.eif", on_eif))
        wrap(mod["estimator"], "split_folds", span(None, on_split))
        for owner in (mod["cli"], mod["estimator"], mod["simulation"]):
            wrap(owner, "estimate_cross_fit", span("estimator.cross_fit"))
        wrap(mod["simulation"], "estimate_plugin", span("estimator.plugin"))
        wrap(mod["simulation"], "estimate_ipw", span("estimator.ipw"))
        wrap(mod["simulation"], "estimate_no_censoring", span("estimator.no_censoring"))
        for owner in (mod["cli"], mod["inference"]):
            wrap(owner, "uniform_band", span("inference.uniform_band", on_band))
        wrap(mod["simulation"], "simulate", span("simulation.simulate"))
        wrap(mod["simulation"], "true_effect_curve", span("simulation.true_effect_curve"))
        wrap(mod["simulation"], "relative_efficiency_mc", span("simulation.relative_efficiency_mc"))
        wrap(mod["efficiency"], "decomposition_check", span("efficiency.decomposition_check"))
        wrap(mod["efficiency"], "efficiency_curve", span("efficiency.efficiency_curve"))
        wrap(mod["nuisance"], "fit_learner", self._fit_wrapper)
        wrap(mod["learners"].FittedModel, "predict", self._predict_wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _fit_wrapper(self, func, sig):
        c = self.counts

        def wrapper(spec, *args, **kwargs):
            model = self.call(_FIT_SPANS.get(spec.kind), func, spec, *args, **kwargs)
            if spec.kind == "logistic_irls":
                c["learners.logistic.iterations"] += model.iterations
            elif spec.kind == "ridge":
                c["learners.ridge.fits"] += 1
            return model
        return wrapper

    def _predict_wrapper(self, func, sig):
        c = self.counts
        from oddshift.learners import OMEGA_FLOOR, PI_CLIP

        def wrapper(model, X):
            out = self.call(_PREDICT_SPANS.get(model.kind), func, model, X)
            rows = np.atleast_2d(X).shape[0]
            if model.kind == "knn":
                c["learners.knn.query_rows"] += rows
                c["learners.knn.dist_bytes"] += rows * model.n_train * 8
            if model.clip is not None:
                c["learners.clip.predictions"] += out.size
                c["learners.clip.at_floor"] += int(np.count_nonzero(
                    (out == PI_CLIP) | (out == 1.0 - PI_CLIP) | (out == OMEGA_FLOOR)))
            return out
        return wrapper

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, job_s: float, untraced_job_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced job; every name in PER_LAYER_UNITS."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        out = {name: 0.0 for name in PER_LAYER_UNITS}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[SELF_TIME_METRICS[name]] += (end - start) - inner
        c = self.counts
        for name in COUNTERS:
            out[name] = float(c[name])
        out["learners.oracle.calls"] = float(c["learners.oracle.predict.calls"])
        out["inference.uniform_band.reps_per_s"] = _ratio(c["inference.uniform_band.reps"],
                                                         out["inference.uniform_band.s"])
        out["learners.clip_share"] = _ratio(c["learners.clip.at_floor"], c["learners.clip.predictions"])
        out["nuisance.missingness.useful_ratio"] = _ratio(
            c["nuisance.missingness.useful_rows"], c["nuisance.missingness.pred_rows"])
        out["estimator.eif.useful_ratio"] = _ratio(c["estimator.eif.useful_rows"], c["estimator.eif.rows"])
        out["trace.job_s"] = job_s
        out["trace.self_sum_s"] = sum(out[name] for name in SELF_TIME_METRICS.values())
        out["trace.remainder_s"] = job_s - top
        out["trace.overhead_s"] = job_s - untraced_job_s
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def _arguments(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
