"""Sequential nuisance fitting: treatment, retention, and continuation models.

The fold is the unit of work.  ``fit_nuisances`` fits three pipelines
once per training pool (everything outside one held-out fold), for a
whole delta grid at once.  The excluded fold alone encodes the split:
fold k's units are held out of every fit and are the units evaluated.

* ``fit_propensity_sequence``   -- regress A_t on the history H_t;
* ``fit_missingness_sequence``  -- regress R_{t+1} on (H_t, A_t);
* ``fit_pseudo_outcome_sequence`` -- backward recursion for the
  delta-specific continuation values m_t(H_t, a), one column per delta.

The recursion starts from the horizon outcome and repeatedly (i) regresses
the current pseudo-outcome on (H_t, A_t) among units still present at
t+1, then (ii) collapses the treatment arm with the shifted propensity
weights, producing the next regression target:

    M_t = [delta * pi_t * m_t(H_t,1) + (1 - pi_t) * m_t(H_t,0)]
          / (delta * pi_t + 1 - pi_t).

One stage fit serves all three pipelines and decides oracle vs learned
once.  A learned spec builds the stage's history features once and makes
one fit; in the recursion all D delta columns are one (rows, D) target,
whose columns are bitwise what a one-delta recursion would fit.  An
oracle spec, zero included, fits nothing and builds no features: it is
called on the panel, so only the learners that fit see the history layout.
An oracle recursion also builds no regression target and queries only
the evaluated fold's retained units, the only rows m1 and m0 keep.
Predictions for units already censored at t are defined as zero; every
influence-function term touching them carries a retention indicator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, EstimationError, check_stage
from .intervention import DeltaGrid, _check_delta
from .learners import OMEGA_FLOOR, PI_CLIP, FittedModel, LearnerSpec, fit_learner
from .panel import FoldAssignment, PanelDataset, check_horizon, history_features

__all__ = [
    "NuisanceSpecs",
    "SequenceFit",
    "PseudoOutcomeFit",
    "NuisanceSet",
    "fit_propensity_sequence",
    "fit_missingness_sequence",
    "fit_pseudo_outcome_sequence",
    "fit_nuisances",
]


@dataclass(frozen=True)
class NuisanceSpecs:
    """One learner per nuisance, applied at every stage.

    ``m`` may also be a callable grid -> LearnerSpec: it receives the tuple
    of deltas once per recursion, and its learner must predict one column
    per delta, in grid order.  An oracle's handle serves every stage as
    ``fn(ds, s, units, a)``, with ``a`` the observed A_s for omega, the
    counterfactual 1.0 or 0.0 for m and None for pi (``LearnerSpec.oracle``).
    """

    pi: LearnerSpec
    omega: LearnerSpec
    m: LearnerSpec | Callable


def _split(ds: PanelDataset, folds: FoldAssignment | None, exclude_fold):
    """(training, evaluated) unit masks: fold k's complement and fold k, or all units twice."""
    if folds is not None and folds.by_index.shape != (ds.n,):
        raise ConfigError(
            f"fold assignment covers {folds.by_index.shape[0]} units, the panel has {ds.n}"
        )
    if exclude_fold is None:
        every = np.ones(ds.n, dtype=bool)
        return every, every
    if folds is None:
        raise ConfigError("exclude_fold given without a fold assignment")
    if exclude_fold not in range(1, folds.K + 1):
        raise ConfigError(f"exclude_fold={exclude_fold!r} is not a fold of K={folds.K}")
    train = folds.by_index != exclude_fold
    return train, ~train


@dataclass
class SequenceFit:
    """Per-time fitted models with a dataset-wide prediction cache."""

    models: list[FittedModel]
    pred: np.ndarray  # (n, t_star), NaN where the unit has left or was not evaluated
    warnings: list[str] = field(default_factory=list)


@dataclass
class PseudoOutcomeFit:
    m1: np.ndarray  # (units, t_star, D), zero where the unit has left
    m0: np.ndarray
    deltas: tuple
    warnings: list[str] = field(default_factory=list)


def _fit_stage(spec, ds, s, pool, target, units, queries, clip, what, warns,
               rows=None) -> FittedModel:
    """Fit stage s on the ``pool`` rows of ``target``; fill ``out[rows]`` per (a, out) query.

    ``a`` is A_s in the query: observed for omega, 1.0 or 0.0 for m, None
    for pi.  The predictions are for ``units``, written at ``rows`` of
    ``out`` (``units`` by default).  A learned spec needs two training
    units (fewer than max(10, width + 2) warn) and predicts with the
    action column set; an oracle is called on the panel as
    ``fn(ds, s, units, a)`` and reads only the width of a 2-D ``target``.
    A ``clip`` makes a probability task.  Returns the (last) model.
    """
    n_pool = int(pool.sum())
    rows = units if rows is None else rows
    if spec.kind == "oracle":
        columns = target.shape[1] if target.ndim == 2 else None
        for a, out in queries:
            model = FittedModel("oracle", lambda q, a=a: spec.fn(ds, s, q, a), n_pool,
                                clip=clip, columns=columns)
            out[rows] = model.predict(units)
        return model
    F = history_features(ds, s, with_action=queries[0][0] is not None)[0]
    if n_pool < 2:
        raise EstimationError(f"{n_pool} training unit(s) for {what} at t={s}; need at least 2")
    if n_pool < max(10, F.shape[1] + 2):
        warns.append(f"underdetermined {what} fit at t={s}: {n_pool} units")
    task = "regression" if clip is None else "probability"
    model = fit_learner(spec, F[pool], target[pool], task, clip=clip)
    if not model.converged:
        warns.append(f"{what} fit at t={s} stopped at IRLS_MAX_ITER={model.iterations} "
                     "without converging")
    X = F[units]
    for a, out in queries:
        if a is not None:
            X[:, -1] = a  # the action column
        out[rows] = model.predict(X)
    return model


def _fit_forward(
    ds, folds, spec, exclude_fold, t_star, target, what: str, clip, retention: bool = False,
) -> SequenceFit:
    """Fit target[:, t-1] on the stage-t history of retained training units, t = 1..t*.

    t* defaults to T and is a stage 1..T.  A propensity fit predicts
    every retained unit, NaN elsewhere: the m recursion weighs its
    training units' arms with pi.  The ``retention`` fit (omega) is
    queried at the observed A_t and predicts only the retained evaluated
    units, the only ones whose influence values use it.
    """
    t_star = ds.T if t_star is None else check_stage(t_star, ds.T, "horizon")
    train, held = _split(ds, folds, exclude_fold)
    pred = np.full((ds.n, t_star), np.nan)
    models, warns = [], []
    for s in range(1, t_star + 1):
        alive = ds.R[:, s - 1] == 1
        units = np.flatnonzero(alive & held if retention else alive)
        a = ds.A[units, s - 1] if retention else None
        models.append(_fit_stage(spec, ds, s, train & alive, target[:, s - 1], units,
                                 ((a, pred[:, s - 1]),), clip, what, warns))
    return SequenceFit(models=models, pred=pred, warnings=warns)


def fit_propensity_sequence(
    ds: PanelDataset,
    folds: FoldAssignment | None,
    spec,
    exclude_fold: int | None = None,
    t_star: int | None = None,
) -> SequenceFit:
    """Fit A_t ~ H_t for t = 1..t* on retained training units; predict every retained unit."""
    return _fit_forward(ds, folds, spec, exclude_fold, t_star, ds.A, "propensity",
                        (PI_CLIP, 1.0 - PI_CLIP))


def fit_missingness_sequence(
    ds: PanelDataset,
    folds: FoldAssignment | None,
    spec,
    exclude_fold: int | None = None,
    t_star: int | None = None,
) -> SequenceFit:
    """Fit R_{t+1} ~ (H_t, A_t) for t = 1..t*; predictions floored at OMEGA_FLOOR.

    Only the retained units of fold ``exclude_fold`` are predicted (every
    retained unit without one), NaN elsewhere.
    """
    return _fit_forward(ds, folds, spec, exclude_fold, t_star, ds.R[:, 1:],  # R_{t+1}
                        "missingness", (OMEGA_FLOOR, 1.0), retention=True)


def fit_pseudo_outcome_sequence(
    ds: PanelDataset,
    folds: FoldAssignment | None,
    pi_pred: np.ndarray,
    spec,
    deltas,
    t_star: int,
    exclude_fold: int | None = None,
) -> PseudoOutcomeFit:
    """Backward continuation-value recursion over a grid of odds multipliers.

    ``spec`` is a LearnerSpec, or a callable grid -> LearnerSpec called
    once with the tuple of deltas.  A learned spec makes one fit per
    stage on the (rows, D) target, one column per delta, and predicts
    every retained unit: the next stage's target needs the training
    units' arms.  An oracle spec, zero included, fits nothing, builds no
    target and never reads ``pi_pred``: each stage queries it only on
    the retained units of the evaluated fold.
    ``pi_pred``, an (n, >= t_star) array, must hold propensity
    predictions from the same training pool for every retained unit;
    they weight the two arms when the recursion collapses A_t.  m1 and
    m0 hold fold ``exclude_fold``'s units (every unit without one), one
    column per delta.  The deltas must be finite and positive and form a
    ``DeltaGrid``, the horizon must have a recorded outcome, and
    ``pi_pred`` must have its shape; all are checked before any fit.
    """
    _check_delta(deltas)
    deltas = DeltaGrid.of(deltas).values
    t_star = check_horizon(ds, t_star)
    shape = np.shape(pi_pred)
    if len(shape) != 2 or shape[0] != ds.n or shape[1] < t_star:
        raise ConfigError(f"pi_pred must be an (n, >= t_star) = ({ds.n}, >= {t_star}) array, "
                          f"got shape {shape}")
    grid = np.asarray(deltas, dtype=float)
    m_spec = spec(deltas) if callable(spec) else spec
    train, held = _split(ds, folds, exclude_fold)
    m1 = np.zeros((int(np.count_nonzero(held)), t_star, grid.size))
    m0 = np.zeros_like(m1)
    warns: list[str] = []

    if m_spec.kind == "oracle":
        width = np.empty((0, grid.size))  # all an oracle reads of the target
        for s in range(t_star, 0, -1):
            alive = ds.R[:, s - 1] == 1
            _fit_stage(m_spec, ds, s, train & (ds.R[:, s] == 1), width,
                       np.flatnonzero(alive & held), ((1.0, m1[:, s - 1]), (0.0, m0[:, s - 1])),
                       None, "pseudo-outcome", warns, rows=alive[held])
        return PseudoOutcomeFit(m1=m1, m0=m0, deltas=deltas, warnings=warns)

    y = np.where(ds.R[:, t_star] == 1, ds.Y[:, t_star - 1], np.nan)
    target = np.repeat(y[:, None], grid.size, axis=1)
    for s in range(t_star, 0, -1):
        alive = ds.R[:, s - 1] == 1
        pool = train & (ds.R[:, s] == 1)  # R_{s+1} = 1
        m1s = np.zeros((ds.n, grid.size))
        m0s = np.zeros((ds.n, grid.size))
        _fit_stage(m_spec, ds, s, pool, target, np.flatnonzero(alive), ((1.0, m1s), (0.0, m0s)),
                   None, "pseudo-outcome", warns)
        m1[:, s - 1] = m1s[held]
        m0[:, s - 1] = m0s[held]
        if s > 1:
            p = pi_pred[:, s - 1, None]
            num = grid * p * m1s + (1.0 - p) * m0s
            target = np.where(alive[:, None], num / (grid * p + 1.0 - p), np.nan)
    return PseudoOutcomeFit(m1=m1, m0=m0, deltas=deltas, warnings=warns)


@dataclass
class NuisanceSet:
    """Fitted nuisances for one excluded fold over a delta grid.

    Arrays hold the excluded fold's units, marked by the ``rows`` mask, in
    dataset order, or every unit when ``rows`` is None.  No model saw the
    units of ``rows``; every other unit trained them.
    """

    pi: np.ndarray      # (units, t_star)
    omega: np.ndarray   # (units, t_star)
    m1: np.ndarray      # (units, t_star, D)
    m0: np.ndarray      # (units, t_star, D)
    deltas: tuple
    t_star: int
    excluded_fold: int | None
    rows: np.ndarray | None = None  # boolean mask over dataset rows
    pi_models: list = field(default_factory=list)
    omega_models: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def summary(self) -> dict:
        """JSON-ready diagnostics: convergence flags and effective sizes per t."""
        return {
            "delta": self.deltas[0],  # diagnostics.json layout; other fields are delta-free
            "t_star": self.t_star,
            "excluded_fold": self.excluded_fold,
            "n_train": int(self.pi.shape[0] if self.rows is None else np.sum(~self.rows)),
            "pi_converged": [bool(m.converged) for m in self.pi_models],
            "pi_iterations": [int(m.iterations) for m in self.pi_models],
            "omega_converged": [bool(m.converged) for m in self.omega_models],
            "n_train_per_t": [int(m.n_train) for m in self.pi_models],
            "warnings": list(self.warnings),
        }


def fit_nuisances(
    ds: PanelDataset,
    folds: FoldAssignment | None,
    specs: NuisanceSpecs,
    deltas,
    t_star: int,
    exclude_fold: int | None = None,
) -> NuisanceSet:
    """Fit all three nuisance sequences for one fold over a delta grid.

    The arrays hold fold ``exclude_fold``'s units (every unit without one).
    Deltas that do not form a ``DeltaGrid``, or a horizon without a
    recorded outcome, are rejected before any fit.
    """
    _check_delta(deltas)
    deltas = DeltaGrid.of(deltas).values
    t_star = check_horizon(ds, t_star)
    held = _split(ds, folds, exclude_fold)[1]
    pi_fit = fit_propensity_sequence(ds, folds, specs.pi, exclude_fold, t_star)
    omega_fit = fit_missingness_sequence(ds, folds, specs.omega, exclude_fold, t_star)
    m_fit = fit_pseudo_outcome_sequence(
        ds, folds, pi_fit.pred, specs.m, deltas, t_star, exclude_fold
    )
    return NuisanceSet(
        pi=pi_fit.pred[held],
        omega=omega_fit.pred[held],
        m1=m_fit.m1,
        m0=m_fit.m0,
        deltas=m_fit.deltas,
        t_star=t_star,
        excluded_fold=exclude_fold,
        rows=None if exclude_fold is None else held,
        pi_models=pi_fit.models,
        omega_models=omega_fit.models,
        warnings=pi_fit.warnings + omega_fit.warnings + m_fit.warnings,
    )
