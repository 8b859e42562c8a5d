"""Reference nuisance stage loops shared by the nuisance and estimator tests.

Each loop is written out on its own, without the package's shared
fitters, and predicts every retained unit unless told otherwise.  A fit
that the package limits to the excluded fold's units is checked bitwise
against these full caches at that fold's units.  The forward loops call
an oracle spec on the panel arrays, ``fn(ds, s, units, a)``, clipped as
its nuisance is.  The ``reference`` fixture hands them to tests.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from oddshift import FittedModel, NuisanceSet, fit_learner
from oddshift.learners import OMEGA_FLOOR, PI_CLIP
from oddshift.panel import history_features


def reference_oracle_stage(spec, ds, s, pool, query, a, clip):
    """An oracle's clipped predictions at the ``query`` units, and a fit record of the pool."""
    out = np.clip(spec.fn(ds, s, np.flatnonzero(query), a), *clip)
    return out, FittedModel(kind="oracle", predict_fn=spec.fn, n_train=int(pool.sum()))


def reference_pool_warnings(spec, pool, F, s, what):
    if spec.kind == "oracle" or pool.sum() >= max(10, F.shape[1] + 2):
        return []
    return [f"underdetermined {what} fit at t={s}: {int(pool.sum())} units"]


def reference_propensity_loop(ds, train, spec):
    """The propensity stage loop as written before the forward fitter was shared."""
    pred = np.full((ds.n, ds.T), np.nan)
    models, warns = [], []
    for s in range(1, ds.T + 1):
        F, alive = history_features(ds, s)
        pool = train & alive
        warns += reference_pool_warnings(spec, pool, F, s, "propensity")
        if spec.kind == "oracle":
            clip = (PI_CLIP, 1.0 - PI_CLIP)
            pred[alive, s - 1], model = reference_oracle_stage(spec, ds, s, pool, alive, None, clip)
        else:
            model = fit_learner(spec, F[pool], ds.A[pool, s - 1], "probability")
            pred[alive, s - 1] = model.predict(F[alive])
        models.append(model)
    return pred, models, warns


def reference_missingness_loop(ds, train, spec, rows=None):
    """The retention stage loop as written before the forward fitter was shared."""
    pred = np.full((ds.n, ds.T), np.nan)
    models, warns = [], []
    for s in range(1, ds.T + 1):
        F, alive = history_features(ds, s, with_action=True)
        pool = train & alive
        warns += reference_pool_warnings(spec, pool, F, s, "missingness")
        query = alive if rows is None else alive & rows
        if spec.kind == "oracle":
            a, clip = ds.A[query, s - 1], (OMEGA_FLOOR, 1.0)
            pred[query, s - 1], model = reference_oracle_stage(spec, ds, s, pool, query, a, clip)
        else:
            target = ds.R[pool, s].astype(float)
            model = fit_learner(spec, F[pool], target, "probability", clip=(OMEGA_FLOOR, 1.0))
            pred[query, s - 1] = model.predict(F[query])
        models.append(model)
    return pred, models, warns


def reference_continuation_loop(ds, train, pi_pred, spec, deltas, t_star):
    """The backward recursion with m1/m0 kept for every unit, zero where it has left."""
    grid = np.asarray(deltas, dtype=float)
    m1 = np.zeros((ds.n, t_star, grid.size))
    m0 = np.zeros_like(m1)
    y = np.where(ds.R[:, t_star] == 1, ds.Y[:, t_star - 1], np.nan)
    target = np.repeat(y[:, None], grid.size, axis=1)
    for s in range(t_star, 0, -1):
        F, alive = history_features(ds, s, with_action=True)
        pool = train & (ds.R[:, s] == 1)
        model = fit_learner(spec, F[pool], target[pool], "regression")
        for m, a in ((m1, 1.0), (m0, 0.0)):
            Fa = F[alive].copy()
            Fa[:, -1] = a
            m[alive, s - 1] = model.predict(Fa)
        p = pi_pred[:, s - 1, None]
        num = grid * p * m1[:, s - 1] + (1.0 - p) * m0[:, s - 1]
        target = np.where(alive[:, None], num / (grid * p + 1.0 - p), np.nan)
    return m1, m0


def reference_full_set(ds, folds, specs, deltas, t_star, exclude_fold):
    """The nuisances fit without ``exclude_fold``, for every unit (t_star = ds.T)."""
    train = folds.by_index != exclude_fold
    pi, pi_models, _ = reference_propensity_loop(ds, train, specs.pi)
    omega, omega_models, _ = reference_missingness_loop(ds, train, specs.omega)
    m1, m0 = reference_continuation_loop(ds, train, pi, specs.m, deltas, t_star)
    return NuisanceSet(
        pi=pi, omega=omega, m1=m1, m0=m0, deltas=tuple(deltas), t_star=t_star,
        excluded_fold=exclude_fold, pi_models=pi_models, omega_models=omega_models,
    )


@pytest.fixture(scope="session")
def reference():
    return SimpleNamespace(
        propensity=reference_propensity_loop,
        missingness=reference_missingness_loop,
        continuation=reference_continuation_loop,
        full_set=reference_full_set,
    )
