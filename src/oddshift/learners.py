"""Self-contained regression and classification learners.

The estimator only needs a fit/predict contract, so the menu is small:
logistic regression fit by iteratively reweighted least squares, k-nearest
neighbours and closed-form ridge, fit on feature rows, and oracle specs
(the constant zero among them): known functions of the panel, never fit,
which ``fit_learner`` rejects.  Probability predictions are clipped away
from {0, 1} so inverse weights stay finite.  kNN on a {0,1} target (a
retention or treatment indicator) predicts the count of ones among the k
neighbours over k: the neighbours need no order, and the count is bitwise
the ordered mean.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, EstimationError

__all__ = ["LearnerSpec", "FittedModel", "fit_learner", "PI_CLIP", "OMEGA_FLOOR"]

# floors for predicted probabilities: treatment propensities are clipped
# symmetrically, retention propensities only from below (they may be 1).
PI_CLIP = 1e-6
OMEGA_FLOOR = 0.01

IRLS_MAX_ITER = 100
IRLS_TOL = 1e-8
RIDGE_JITTER = 1e-10
# query rows per kNN block: distance and selection temporaries stay
# O(_KNN_BLOCK * n_train) whatever the query count
_KNN_BLOCK = 256


@dataclass(frozen=True)
class LearnerSpec:
    """Declarative learner choice used by the nuisance pipelines."""

    kind: str
    k: int = 5
    lam: float = 0.0
    fn: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("logistic_irls", "knn", "ridge", "oracle"):
            raise ConfigError(f"unknown learner kind {self.kind!r}")
        if self.kind == "knn" and (
            isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral) or self.k < 1
        ):
            raise ConfigError(f"knn needs an integer k >= 1, got {self.k!r}")
        if self.kind == "ridge" and not 0 <= self.lam < np.inf:  # NaN fails too
            raise ConfigError(f"ridge needs a finite lam >= 0, got {self.lam!r}")
        if self.kind == "oracle" and self.fn is None:
            raise ConfigError("oracle spec needs a function handle")

    @classmethod
    def logistic(cls) -> "LearnerSpec":
        return cls(kind="logistic_irls")

    @classmethod
    def knn(cls, k: int) -> "LearnerSpec":
        return cls(kind="knn", k=k)

    @classmethod
    def ridge(cls, lam: float = 0.0) -> "LearnerSpec":
        return cls(kind="ridge", lam=lam)

    @classmethod
    def oracle(cls, fn: Callable) -> "LearnerSpec":
        """A known nuisance function, called as ``fn(ds, s, units, a)``; never fit.

        ``ds`` is the panel, ``s`` the 1-based stage and ``units`` an integer
        index array of the units to predict.  ``a`` is the action at s: the
        observed A_s for omega, the counterfactual 1.0 or 0.0 for m, and
        unused (None) for pi.  It returns (q,), or (q, D) over a delta grid.
        """
        return cls(kind="oracle", fn=fn)

    @classmethod
    def zero(cls) -> "LearnerSpec":
        return cls.oracle(_zeros)

    @classmethod
    def from_config(cls, obj) -> "LearnerSpec":
        """Parse 'knn[:k]' | 'ridge[:lam]' | 'logistic' | 'logistic_irls' | 'zero'.

        Only knn (k, default 5) and ridge (lam, default 0) take an argument;
        a ':' with nothing after it is an error, not the default.
        """
        if not isinstance(obj, str):
            raise ConfigError(f"cannot parse learner spec {obj!r}")
        name, colon, arg = obj.partition(":")
        if colon and not arg:
            raise ConfigError(f"empty learner argument in {obj!r}")
        try:
            if name == "knn":
                return cls.knn(int(arg)) if arg else cls.knn(5)
            if name == "ridge":
                return cls.ridge(float(arg)) if arg else cls.ridge(0.0)
        except ValueError as err:  # a ConfigError from the spec is one too
            raise ConfigError(f"bad learner argument in {obj!r}: {err}") from None
        if name not in ("logistic_irls", "logistic", "zero"):
            raise ConfigError(f"unknown learner {obj!r}")
        if arg:
            raise ConfigError(f"learner {name!r} takes no argument, got {obj!r}")
        return cls.zero() if name == "zero" else cls.logistic()


def _zeros(ds, s: int, units: np.ndarray, a) -> np.ndarray:
    """The constant-zero predictor, an oracle handle (``LearnerSpec.zero``)."""
    return np.zeros(units.size)


@dataclass
class FittedModel:
    """Deterministic predictor with training metadata."""

    kind: str
    predict_fn: Callable = field(repr=False)
    n_train: int = 0
    iterations: int = 0
    converged: bool = True
    clip: tuple | None = None
    columns: int | None = None  # D for a (rows, D) target, None for a 1-D one

    def predict(self, X: np.ndarray) -> np.ndarray:
        """(q,) predictions for a 1-D target, (q, D) for a (rows, D) one.

        ``X`` is feature rows, or unit indices for an oracle model.
        """
        if self.kind != "oracle":
            X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.asarray(self.predict_fn(X), dtype=float)
        if out.ndim == 1 and self.columns is not None:
            # an oracle may ignore the target: one output serves every column
            out = np.repeat(out[:, None], self.columns, axis=1)
        elif out.ndim == 2 and self.columns is None:
            out = out[:, 0]  # ridge and knn fit a 1-D target as one column
        if self.clip is not None:
            out = np.clip(out, self.clip[0], self.clip[1])
        return out


def _expit(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _fit_logistic_irls(X: np.ndarray, y: np.ndarray, clip: tuple) -> FittedModel:
    n, p = X.shape
    Xd = np.column_stack([np.ones(n), X])
    mean_y = float(np.mean(y))
    if mean_y in (0.0, 1.0):
        # degenerate single-class target: constant model at the clipped frequency
        const = float(np.clip(mean_y, clip[0], clip[1]))
        return FittedModel(
            kind="logistic_irls",
            predict_fn=lambda Xq, c=const: np.full(Xq.shape[0], c),
            n_train=n,
            iterations=0,
            converged=True,
            clip=clip,
        )
    beta = np.zeros(p + 1)
    converged = False
    it = 0
    for it in range(1, IRLS_MAX_ITER + 1):
        mu = _expit(Xd @ beta)
        grad = Xd.T @ (y - mu)
        if np.linalg.norm(grad) < IRLS_TOL:
            converged = True
            break
        w = np.maximum(mu * (1.0 - mu), 1e-10)
        H = Xd.T @ (w[:, None] * Xd)
        H[np.diag_indices_from(H)] += RIDGE_JITTER
        beta = beta + np.linalg.solve(H, grad)
    fitted = beta.copy()
    return FittedModel(
        kind="logistic_irls",
        predict_fn=lambda Xq, b=fitted: _expit(
            np.column_stack([np.ones(Xq.shape[0]), Xq]) @ b
        ),
        n_train=n,
        iterations=it,
        converged=converged,
        clip=clip,
    )


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mu = X.mean(axis=0) if X.shape[0] else np.zeros(X.shape[1])
    sd = X.std(axis=0) if X.shape[0] else np.ones(X.shape[1])
    sd = np.where(sd > 0, sd, 1.0)
    return (X - mu) / sd, mu, sd


def _knn_select(d2: np.ndarray, k: int, scratch: np.ndarray, chosen: np.ndarray) -> None:
    """Mark each row's k nearest columns of ``d2`` in ``chosen``, exactly k per row.

    The marked columns are the k smallest (distance, column) pairs: ties at
    the k-th distance go to the lowest columns.  Selection is linear in the
    row length.  ``scratch`` (float) and ``chosen`` (bool) are buffers of
    ``d2``'s shape that the selection overwrites.
    """
    np.copyto(scratch, d2)
    scratch.partition(k - 1, axis=1)
    kth = scratch[:, k - 1 : k]
    np.less_equal(d2, kth, out=chosen)  # every strictly closer column plus every tie
    extra = np.count_nonzero(chosen, axis=1) - k
    over = np.flatnonzero(extra)
    if over.size:
        # keep only the lowest-column ties, by a running count per row
        tie = d2[over] == kth[over]
        keep = np.count_nonzero(tie, axis=1) - extra[over]
        rank = np.cumsum(tie, axis=1, dtype=np.int32)
        chosen[over] &= ~tie | (rank <= keep[:, None])


def _knn_neighbours(
    d2: np.ndarray, k: int, scratch: np.ndarray, chosen: np.ndarray
) -> np.ndarray:
    """Each row's k nearest columns of ``d2``, nearest first.

    The columns ``_knn_select`` marks, in (distance, column) order, so the
    result is bitwise ``np.argsort(d2, axis=1, kind="stable")[:, :k]``.
    """
    _knn_select(d2, k, scratch, chosen)
    # exactly k per row, in row-major order: the ascending columns of each row
    cols = np.flatnonzero(chosen).reshape(-1, k)
    cols -= np.arange(0, chosen.size, chosen.shape[1])[:, None]
    order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _fit_knn(X: np.ndarray, Y: np.ndarray, k: int, clip: tuple | None) -> FittedModel:
    """k nearest neighbours for the D target rows of ``Y`` (D, n); predicts (q, D).

    A prediction is the mean target over the k nearest training rows.  When
    every target value is +0.0 or 1 (a retention or treatment target), that
    mean is the count of chosen ones over k: each partial sum of 0/1 values
    is an exact integer, so the neighbours need no order and the count is
    bitwise the ordered mean.  Any other target sums its neighbours nearest
    first; so does one holding -0.0, since a count is +0.0 where a sum of
    -0.0s may keep the sign.  Each predict call allocates its (block, n)
    distance and selection buffers once and reuses them for every query
    block.
    """
    n = X.shape[0]
    k_eff = min(k, n)
    Xs, mu, sd = _standardize(X)
    sq = np.sum(Xs**2, axis=1)
    ones = Y == 1
    if not np.all(ones | ((Y == 0) & ~np.signbit(Y))):
        ones = None  # not a {0,1} target: ordered gather and mean

    def predict(Xq, Xs=Xs, Y=Y, ones=ones, mu=mu, sd=sd, k_eff=k_eff, sq=sq):
        Q = (Xq - mu) / sd
        if Xs.shape[1] == 0:
            # featureless: every training point ties at distance zero
            return np.repeat(Y[:, :k_eff].mean(axis=1)[None, :], Q.shape[0], axis=0)
        out = np.empty((Q.shape[0], Y.shape[0]))
        rows = min(_KNN_BLOCK, Q.shape[0])
        dist, scratch = np.empty((rows, n)), np.empty((rows, n))
        chosen = np.empty((rows, n), dtype=bool)
        # one target counts in the selection mask itself; D targets need a mask each
        hits = chosen if ones is None or len(ones) == 1 else np.empty_like(chosen)
        for lo in range(0, Q.shape[0], _KNN_BLOCK):
            q = Q[lo : lo + _KNN_BLOCK]
            m = q.shape[0]
            d2 = dist[:m]
            # |q|^2 - (2q).x + |x|^2, left to right: the distances' bits depend on
            # this order, and on Xs.T staying a view (a copy may pick another gemm kernel)
            np.matmul(2.0 * q, Xs.T, out=d2)
            np.subtract(np.sum(q**2, axis=1)[:, None], d2, out=d2)
            d2 += sq
            if ones is None:
                nbrs = _knn_neighbours(d2, k_eff, scratch[:m], chosen[:m])
                for j, y in enumerate(Y):  # one (q, k) gather and mean per target, as for 1-D
                    out[lo : lo + m, j] = y[nbrs].mean(axis=1)
            else:
                _knn_select(d2, k_eff, scratch[:m], chosen[:m])
                for j, one in enumerate(ones):
                    hit = np.logical_and(chosen[:m], one, out=hits[:m])
                    out[lo : lo + m, j] = np.count_nonzero(hit, axis=1) / k_eff
        return out

    return FittedModel(kind="knn", predict_fn=predict, n_train=n, clip=clip)


def _fit_ridge(X: np.ndarray, Y: np.ndarray, lam: float, clip: tuple | None) -> FittedModel:
    """Closed-form ridge for the D target rows of ``Y`` (D, n); predicts (q, D).

    The design's standardisation and Gram matrix, and at predict time the
    standardised query, are computed once.  Each target keeps the
    one-target arithmetic (its own mean, solve and gemv), so every column
    is bitwise a one-column fit; byte-identical targets share one solve.
    """
    n, p = X.shape
    Xs, mu, sd = _standardize(X)
    G = Xs.T @ Xs
    G[np.diag_indices_from(G)] += lam + RIDGE_JITTER
    first: dict[bytes, int] = {}
    owner = np.array([first.setdefault(y.tobytes(), j) for j, y in enumerate(Y)])
    fits = {}  # first column of each distinct target -> (ybar, beta)
    for j in first.values():
        ybar = float(np.mean(Y[j]))
        fits[j] = ybar, np.linalg.solve(G, Xs.T @ (Y[j] - ybar)) if p else np.empty(0)

    def predict(Xq, fits=fits, owner=owner, mu=mu, sd=sd):
        Q = (Xq - mu) / sd
        out = np.empty((Q.shape[0], owner.size))
        for j, (ybar, beta) in fits.items():
            out[:, owner == j] = (ybar + Q @ beta)[:, None]
        return out

    return FittedModel(kind="ridge", predict_fn=predict, n_train=n, clip=clip)


def fit_learner(
    spec: LearnerSpec,
    features: np.ndarray,
    targets: np.ndarray,
    task: str,
    clip: tuple | None = None,
) -> FittedModel:
    """Fit one learner on a feature matrix.

    ``task`` is 'probability' (targets in {0,1}, predictions clipped) or
    'regression' (unrestricted).  ``clip`` overrides the default
    probability clipping range [PI_CLIP, 1 - PI_CLIP].

    A 1-D target gives (q,) predictions.  A target may also be (rows, D),
    for every learner but logistic_irls: the model then predicts (q, D),
    and column j is bitwise what a fit on ``targets[:, j]`` alone
    predicts.  The target-free work (validation, standardisation, the
    ridge Gram matrix, the kNN neighbour search, the standardised query)
    is done once for all D.
    """
    if task not in ("probability", "regression"):
        raise ConfigError(f"unknown task {task!r}")
    if spec.kind == "oracle":  # zero included
        raise ConfigError("an oracle spec is not fit: the nuisance pipelines call it on the panel")
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float)
    columns = y.shape[1] if y.ndim == 2 else None
    if columns is None:
        y = y.ravel()
    elif columns < 1 or spec.kind == "logistic_irls":
        raise ConfigError("a (rows, D) target needs D >= 1 and a learner other than logistic_irls")
    if X.shape[0] != y.shape[0]:
        raise ConfigError("features and targets disagree on row count")
    if X.shape[0] < 1:
        raise EstimationError("cannot fit on an empty training set")
    if np.isnan(X).any() or np.isnan(y).any():
        raise EstimationError("training data contain unavailable (NaN) cells")
    if task == "probability":
        if not np.all((y == 0) | (y == 1)):
            raise ConfigError("probability task requires {0,1} targets")
        if clip is None:
            clip = (PI_CLIP, 1.0 - PI_CLIP)
    # one contiguous row per target column: each column's sums run as a 1-D target's
    Y = np.ascontiguousarray(y.T) if columns else y[None, :]

    if spec.kind == "logistic_irls":
        if task != "probability":
            raise ConfigError("logistic_irls only fits probability targets")
        model = _fit_logistic_irls(X, y, clip)
    elif spec.kind == "knn":
        model = _fit_knn(X, Y, spec.k, clip)
    else:
        model = _fit_ridge(X, Y, spec.lam, clip)
    model.columns = columns
    return model
