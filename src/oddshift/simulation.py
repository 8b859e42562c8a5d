"""Synthetic data generators, ground-truth oracles, and the benchmark protocol.

Three generators share one structural family:

* ``dropout``: two standard-normal covariates per period; treatment
  probability expit(1'X_t + 2 * sum_{s=t-2}^{t-1} (A_s - 1/2)) with the
  out-of-range terms dropped; retention probability
  expit(C_0 + sum_{s<=t} A_s) with a per-subject frailty C_0 ~ U[u_l, 5];
  a single terminal outcome Y_T ~ N(10 + A_T + A_{T-1} + |1'X_T +
  1'X_{T-1}|, 1), recorded only for subjects retained at T+1.
* ``observational``: the same without dropout.
* ``trial``: treatment Bernoulli(p) at every period, no covariates, no
  dropout, and Y_T normal around 10 + sqrt(#treated) truncated at two
  standard deviations.

``exact_effect_curve`` computes the target curve exactly, with no
dropout: for the covariate family a forward recursion over the last two
treatments with the mean shifted propensities, for the trial a binomial
sum.  ``true_effect_curve`` computes the same curve by drawing treatments
from the shifted propensities and averaging the structural outcome mean;
it is coded separately and kept as an independent Monte Carlo check.

Each generator also exports oracle nuisance functions.  For the dropout
generator the observable retention propensity marginalizes the latent
frailty over its posterior given survival, and the continuation values
are computed by one-dimensional Gauss-Hermite quadrature with closed
forms for the absolute-value term.
"""

from __future__ import annotations

import math
import pickle
import warnings as _warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import expit, logit, ndtr

from .efficiency import _collapse, trial_moments, variance_ratio_bounds
from .errors import ConfigError, check_count, check_open_unit, check_seed, check_stage
from .estimator import (
    _ones,
    estimate_cross_fit,
    estimate_ipw,
    estimate_no_censoring,
    estimate_plugin,
    ipw_weight_products,
)
from .intervention import DeltaGrid, _check_delta, incremental_propensity
from .learners import LearnerSpec
from .nuisance import NuisanceSpecs, fit_nuisances
from .panel import PanelDataset

__all__ = [
    "DgpConfig",
    "BenchmarkResult",
    "simulate",
    "true_effect_curve",
    "exact_effect_curve",
    "oracle_specs",
    "true_propensities",
    "normalized_rmse",
    "run_benchmark",
    "relative_efficiency_mc",
]

_GH_NODES = 48
_GL_NODES = 64
# Draws per block of the Monte Carlo truth's treatment decisions, made for
# every delta at once in two (D, block) buffers.  Blocks of 1024 to 4096
# ran about equally fast at 200 000 draws and D=25; 8192 was slower.
_TRUTH_BLOCK = 2048


@dataclass(frozen=True)
class DgpConfig:
    """Configuration of one synthetic data-generating process."""

    kind: str  # "dropout" | "trial" | "observational"
    n: int
    T: int
    u_l: float = 1.0
    p: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("dropout", "trial", "observational"):
            raise ConfigError(f"unknown DGP kind {self.kind!r}")
        check_count(self.n, "n", 1)
        check_count(self.T, "T", 1)
        if not (math.isfinite(self.u_l) and self.u_l <= 5):
            raise ConfigError(f"u_l must be finite and at most 5, got {self.u_l!r}")
        check_open_unit(self.p, "p")
        check_seed(self.seed)


def _prop_logit(u: np.ndarray, a_prev1, a_prev2, t: int) -> np.ndarray:
    """Treatment logit at period t; terms before the study start are dropped."""
    lin = np.asarray(u, dtype=float).copy()
    if t >= 2:
        lin = lin + 2.0 * (np.asarray(a_prev1, dtype=float) - 0.5)
    if t >= 3:
        lin = lin + 2.0 * (np.asarray(a_prev2, dtype=float) - 0.5)
    return lin


def _outcome_mean(a_cur, a_prev, u_cur, u_prev) -> np.ndarray:
    return 10.0 + np.asarray(a_cur, float) + np.asarray(a_prev, float) + np.abs(
        np.asarray(u_cur, float) + np.asarray(u_prev, float)
    )


def _truncated_normal(rng: np.random.Generator, mean: np.ndarray, bound: float = 2.0) -> np.ndarray:
    """N(mean, 1) draws conditioned on |draw - mean| <= bound, by rejection."""
    z = rng.standard_normal(mean.shape)
    bad = np.abs(z) > bound
    while np.any(bad):
        z[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(z) > bound
    return mean + z


def simulate(cfg: DgpConfig) -> PanelDataset:
    """Draw one panel. Byte-identical output for identical configs."""
    rng = np.random.default_rng(cfg.seed)
    n, T = cfg.n, cfg.T

    if cfg.kind == "trial":
        A = (rng.random((n, T)) < cfg.p).astype(float)
        mean = 10.0 + np.sqrt(A.sum(axis=1))
        y = _truncated_normal(rng, mean)
        Y = np.full((n, T), np.nan)
        Y[:, T - 1] = y
        R = np.ones((n, T + 1), dtype=np.int8)
        X = np.empty((n, T, 0))
        return PanelDataset.from_arrays(X, A, Y, R)

    with_dropout = cfg.kind == "dropout"
    C0 = rng.uniform(cfg.u_l, 5.0, n) if with_dropout else None
    X = np.empty((n, T, 2))
    A = np.empty((n, T))
    R = np.ones((n, T + 1), dtype=np.int8)
    alive = np.ones(n, dtype=bool)
    a_prev1 = np.zeros(n)
    a_prev2 = np.zeros(n)
    treated_total = np.zeros(n)
    u_prev = np.zeros(n)
    u_cur = np.zeros(n)
    for t in range(1, T + 1):
        X[:, t - 1] = rng.standard_normal((n, 2))
        u_prev, u_cur = u_cur, X[:, t - 1].sum(axis=1)
        pi = expit(_prop_logit(u_cur, a_prev1, a_prev2, t))
        a = (rng.random(n) < pi).astype(float)
        A[:, t - 1] = a
        treated_total += a
        if with_dropout:
            omega = expit(C0 + treated_total)
            stay = rng.random(n) < omega
            alive = alive & stay
        R[:, t] = np.where(alive, 1, 0) if with_dropout else 1
        a_prev2, a_prev1 = a_prev1, a
    a_last_prev = A[:, T - 2] if T >= 2 else np.zeros(n)
    u_last_prev = X[:, T - 2].sum(axis=1) if T >= 2 else np.zeros(n)
    mean = _outcome_mean(A[:, T - 1], a_last_prev, X[:, T - 1].sum(axis=1), u_last_prev)
    y = mean + rng.standard_normal(n)
    Y = np.full((n, T), np.nan)
    Y[:, T - 1] = np.where(R[:, T] == 1, y, np.nan)
    # from_arrays blanks X and A after dropout
    return PanelDataset.from_arrays(X, A, Y, R)


def true_effect_curve(
    cfg: DgpConfig, grid, t: int, draws: int = 200_000, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth curve by intervention-draw Monte Carlo, the check on ``exact_effect_curve``.

    Covariates evolve as in the generator, there is no dropout, and the
    structural outcome mean is averaged (its additive noise integrates out
    exactly).  Each period draws one standard logistic L = logit U for every
    delta and treats where L < log(delta) + logit(pi), with probability
    delta*pi / (delta*pi + 1 - pi): the odds shift itself.  Returns (psi,
    standard error) per grid value; each error is its own delta's, the
    errors are correlated across deltas, and no value depends on the others.
    """
    t = check_stage(t, cfg.T, "horizon")
    check_count(draws, "draws", 2)
    deltas = np.asarray(tuple(grid), dtype=float)  # any order, repeats allowed
    _check_delta(deltas)
    trial, rng = cfg.kind == "trial", np.random.default_rng(check_seed(seed))
    log_deltas = np.log(deltas)[:, None]
    lag1, lag2 = np.zeros((2, deltas.size, draws), dtype=bool)  # A_{s-1}, A_{s-2} per delta
    if trial:
        count = np.zeros((deltas.size, draws), dtype=np.min_scalar_type(t))  # the trial's k
    else:
        work = np.empty((2, deltas.size, min(draws, _TRUTH_BLOCK)))
    u_prev = u_cur = np.zeros(draws)
    for s in range(1, t + 1):
        if not trial:
            u_prev, u_cur = u_cur, math.sqrt(2.0) * rng.standard_normal(draws)
        unif = rng.random(draws)
        logistic = np.log(unif) - np.log1p(-unif)
        if trial:
            np.less(logistic, log_deltas + logit(cfg.p), out=lag1)  # A_s
            count += lag1
            continue
        for lo in range(0, draws, _TRUTH_BLOCK):
            cols = slice(lo, lo + _TRUTH_BLOCK)
            lin, step = work[:, :, : logistic[cols].size]
            np.copyto(lin, u_cur[cols])  # _prop_logit's sum, in its order
            for lag in (lag1, lag2)[: min(s - 1, 2)]:
                np.subtract(lag[:, cols], 0.5, out=step)
                step *= 2.0
                lin += step
            lin += log_deltas
            np.less(logistic[cols], lin, out=lag2[:, cols])  # A_s, once A_{s-2} is read
        lag1, lag2 = lag2, lag1
    abs_u = None if trial else np.abs(u_cur + u_prev)
    psi, se = np.empty((2, deltas.size))
    for j in range(deltas.size):
        if trial:
            vals = 10.0 + np.sqrt(count[j], dtype=float)
        else:
            vals = np.add(lag1[j], 10.0)  # _outcome_mean at (A_t, A_{t-1}), in its order
            vals += lag2[j]
            vals += abs_u
        psi[j], se[j] = vals.mean(), vals.std(ddof=1) / math.sqrt(draws)
    return psi, se


def exact_effect_curve(cfg: DgpConfig, grid, t: int) -> np.ndarray:
    """Ground-truth curve psi_t(delta), exact up to quadrature, one value per grid point.

    Covariate family: psi_t = 10 + E|1'X_t + 1'X_{t-1}| + P(A_t=1) +
    P(A_{t-1}=1), where the covariates are independent of the treatments,
    so the absolute term is 2/sqrt(pi) at t=1 and 2*sqrt(2/pi) after, and
    P(A_s=1) comes from a forward recursion over (A_{s-1}, A_{s-2}) with
    the mean shifted propensities as transitions.  Trial: the continuation
    table collapsed to stage 0, sum_k Binom(t, q)(k) * (10 + sqrt(k)).
    """
    t = check_stage(t, cfg.T, "horizon")
    deltas = np.asarray(DeltaGrid.of(grid).values)
    if cfg.kind == "trial":
        return _trial_tables(t, incremental_propensity(cfg.p, deltas))[0][0]
    qbar = _mean_shifted_propensity(t, deltas)
    # state[a, b, j]: P(A_{s-1}=a, A_{s-2}=b) under delta j; no treatment before s=1
    state = np.zeros((2, 2, deltas.size))
    state[0, 0] = 1.0
    prev = cur = np.zeros(deltas.size)  # P(A_{s-1}=1), P(A_s=1)
    for s in range(1, t + 1):
        joint = state * qbar[s]  # P(A_s=1, A_{s-1}=a, A_{s-2}=b)
        prev, cur = cur, joint.sum(axis=(0, 1))
        state = np.stack([(state - joint).sum(axis=1), joint.sum(axis=1)])
    c_abs = 2.0 / math.sqrt(math.pi) if t == 1 else 2.0 * math.sqrt(2.0 / math.pi)
    return 10.0 + c_abs + cur + prev


# ---------------------------------------------------------------------------
# Oracle nuisance functions
# ---------------------------------------------------------------------------


def _e_abs_shifted(v: np.ndarray, sigma2: float = 2.0) -> np.ndarray:
    """E|Z + v| for Z ~ N(0, sigma2), closed form."""
    v = np.asarray(v, dtype=float)
    sd = math.sqrt(sigma2)
    return sd * math.sqrt(2.0 / math.pi) * np.exp(-(v**2) / (2.0 * sigma2)) + v * (
        2.0 * ndtr(v / sd) - 1.0
    )


def _mean_shifted_propensity(t_star: int, deltas) -> np.ndarray:
    """qbar[s, a, b, j]: mean shifted propensity at s = 1..t* given A_{s-1}=a, A_{s-2}=b.

    Gauss-Hermite quadrature over 1'X_s ~ N(0, 2) for each delta j; row
    s = 0 stays zero.
    """
    x, w = hermgauss(_GH_NODES)
    u = math.sqrt(2.0 * 2.0) * x  # integration points for U ~ N(0,2)
    w = w / math.sqrt(math.pi)
    # each delta's node sum stays a 1-D sum
    grid = np.asarray(deltas, dtype=float)[:, None]
    qbar = np.zeros((t_star + 1, 2, 2, grid.size))
    for s in range(1, t_star + 1):
        for a in (0, 1):
            for b in (0, 1):
                q = w * incremental_propensity(expit(_prop_logit(u, a, b, s)), grid)
                qbar[s, a, b] = [np.sum(row) for row in q]
    return qbar


class _ContinuationOracle:
    """Exact continuation values m_s(H_s, a) for the covariate DGP family.

    One oracle serves a whole delta grid: every value below carries a
    trailing delta axis of length D.  Only (1'X_s, A_s, A_{s-1}) matter at
    the two periods nearest the horizon; deeper periods collapse to a
    (2, 2, D) table over (A_s, A_{s-1}).
    """

    def __init__(self, t_star: int, deltas):
        self.t_star = t_star
        # mean of E|U' + U| over U ~ N(0,2): |N(0,4)| has mean 2*sqrt(2/pi)
        c_abs = 2.0 * math.sqrt(2.0 / math.pi)
        qbar = _mean_shifted_propensity(t_star, deltas)
        # tables[s, a, b, j]: m_s at A_s=a, A_{s-1}=b for delta j, s <= t*-2
        t = t_star
        tables = np.zeros_like(qbar)
        if t >= 3:
            # s = t-2: integrate the penultimate level over 1'X_{t-1}
            gap = 1.0 + qbar[t, 1] - qbar[t, 0]  # (a, D)
            tables[t - 2] = 10.0 + c_abs + qbar[t, 0][:, None] + qbar[t - 1] * gap[:, None]
        for s in range(t - 3, 0, -1):
            q, nxt = qbar[s + 1], tables[s + 1]
            tables[s] = q * nxt[1][:, None] + (1.0 - q) * nxt[0][:, None]
        self._qbar, self._tables = qbar, tables

    def predict(self, ds: PanelDataset, s: int, units: np.ndarray, a) -> np.ndarray:
        """m_s at the units with A_s = a: (q,) at the horizon, else (q, D); s <= the horizon."""
        t = self.t_star
        check_stage(s, t, f"oracle for horizon t={t}: stage")
        u_cur = ds.X[units, s - 1].sum(axis=1)
        a_prev = ds.A[units, s - 2] if s >= 2 else np.zeros(units.size)
        if s == t:
            u_prev = ds.X[units, s - 2].sum(axis=1) if s >= 2 else 0.0
            return _outcome_mean(a, a_prev, u_cur, u_prev)
        ab = np.asarray(a).astype(np.intp), a_prev.astype(np.intp)
        if s == t - 1:
            return (10.0 + a + _e_abs_shifted(u_cur))[:, None] + self._qbar[t][ab]
        return self._tables[s][ab]


class _RetentionOracle:
    """Observable retention propensity for the dropout generator.

    The frailty C_0 is latent, so the truth conditional on the observed
    history averages expit(C_0 + k_t) over the posterior of C_0 given
    survival so far; survival weights are prod_{j<t} expit(C_0 + k_j).
    One-dimensional Gauss-Legendre quadrature over the uniform prior.
    """

    def __init__(self, u_l: float):
        x, w = np.polynomial.legendre.leggauss(_GL_NODES)
        self._c = 0.5 * (x + 1.0) * (5.0 - u_l) + u_l
        self._w = w  # prior density constant cancels in the posterior mean

    def predict(self, ds: PanelDataset, s: int, units: np.ndarray, a) -> np.ndarray:
        """Retention at s given A_s = a, by quadrature once per distinct path a_1..a_s.

        A path is keyed by its 0/1 actions packed eight to a byte, one
        opaque key per row, which groups the rows faster than comparing
        float rows; each path's actions are its first row's.
        """
        rows = np.column_stack([ds.A[units, : s - 1], a])
        packed = np.packbits(rows != 0, axis=1)
        _, first, row_path = np.unique(
            packed.view(f"V{packed.shape[1]}").ravel(), return_index=True, return_inverse=True
        )
        ks = np.cumsum(rows[first], axis=1)  # k_1..k_s per path
        surv = expit(self._c[None, None, :] + ks[:, :-1, None])  # (paths, s - 1, nodes)
        weights = self._w[None, :] * np.prod(surv, axis=1)
        cur = expit(self._c[None, :] + ks[:, -1:, ])
        by_path = np.sum(weights * cur, axis=1) / np.sum(weights, axis=1)
        return by_path[row_path.ravel()]


def _trial_tables(t_star: int, q: np.ndarray) -> dict[int, np.ndarray]:
    """Trial continuation values v_s over (k_s = 0..s, delta) for s = t*-1 down to 0.

    k_s counts the treated periods through s and q holds the shifted
    propensity per delta; v_0[0] is the curve psi_t*.
    """
    table = (10.0 + np.sqrt(np.arange(t_star + 1.0)))[:, None]
    return dict(zip(range(t_star - 1, -1, -1), _collapse(table, q, 1.0 - q)))


def _true_pi(cfg: DgpConfig, ds: PanelDataset, s: int, units: np.ndarray, a=None) -> np.ndarray:
    """Structural treatment propensity at time s for the given units."""
    if cfg.kind == "trial":
        return np.full(units.size, cfg.p)
    u = ds.X[units, s - 1].sum(axis=1)
    a1 = ds.A[units, s - 2] if s >= 2 else 0.0
    a2 = ds.A[units, s - 3] if s >= 3 else 0.0
    return expit(_prop_logit(u, a1, a2, s))


def true_propensities(cfg: DgpConfig, ds: PanelDataset, t: int) -> np.ndarray:
    """Structural treatment propensities for every unit and period 1..t, NaN after dropout."""
    t = check_stage(t, ds.T, "horizon")
    out = np.full((ds.n, t), np.nan)
    for s in range(1, t + 1):
        units = np.flatnonzero(ds.R[:, s - 1] == 1)
        out[units, s - 1] = _true_pi(cfg, ds, s, units)
    return out


def _trial_continuation(values: dict, t_star: int, ds, s: int, units, a) -> np.ndarray:
    """Trial m_s at the units with A_s = a: the table at k_s, the outcome mean at the horizon."""
    check_stage(s, t_star, f"oracle for horizon t={t_star}: stage")
    k = ds.A[units, : s - 1].sum(axis=1) + a
    if s == t_star:
        return 10.0 + np.sqrt(k)
    return values[s][k.astype(np.intp)]


def _continuation_spec(cfg: DgpConfig, t_star: int, deltas: tuple) -> LearnerSpec:
    if cfg.kind == "trial":
        q = incremental_propensity(cfg.p, np.asarray(deltas, dtype=float))
        return LearnerSpec.oracle(partial(_trial_continuation, _trial_tables(t_star, q), t_star))
    return LearnerSpec.oracle(_ContinuationOracle(t_star, deltas).predict)


def oracle_specs(cfg: DgpConfig, t_star: int) -> NuisanceSpecs:
    """Oracle learner specs exposing the generator's true nuisance functions.

    One handle per nuisance serves every stage; m is a grid callable.
    Every handle is a module-level function or a bound method, partially
    applied, so the specs pickle and ``run_benchmark`` can ship them to
    worker processes.  ``t_star`` is a stage 1..T of ``cfg``, and the
    continuation oracle rejects a stage past it.
    """
    t_star = check_stage(t_star, cfg.T, "horizon")
    omega = _RetentionOracle(cfg.u_l).predict if cfg.kind == "dropout" else _ones
    return NuisanceSpecs(
        pi=LearnerSpec.oracle(partial(_true_pi, cfg)),
        omega=LearnerSpec.oracle(omega),
        m=partial(_continuation_spec, cfg, t_star),
    )


# ---------------------------------------------------------------------------
# Benchmark protocol
# ---------------------------------------------------------------------------


def normalized_rmse(
    estimates: np.ndarray,
    truths: np.ndarray,
    psi_bar: float,
) -> float:
    """Grid-averaged mean squared error normalized by the mean true level.

    estimates is (S, D): one row per replication.  The value is
    (1/D) sum_d (1/S) sum_s ((est - truth)/psi_bar)^2.
    """
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    truths = np.asarray(truths, dtype=float)
    if estimates.shape[1] != truths.shape[0]:
        raise ConfigError("estimates and truths disagree on grid size")
    if psi_bar == 0:
        raise ConfigError("psi_bar must be nonzero")
    return float(np.mean(((estimates - truths[None, :]) / psi_bar) ** 2))


@dataclass
class BenchmarkResult:
    """Normalized error of each estimator under one generator setting."""

    rmse: dict
    dropout_fraction: float
    S: int
    n: int
    D: int
    T: int
    u_l: float
    seed: int
    truths: np.ndarray
    truth_se: np.ndarray
    estimates: dict = field(repr=False, default_factory=dict)  # kind -> (S, D)

    def summary(self) -> dict:
        return {
            "rmse": {k: float(v) for k, v in self.rmse.items()},
            "dropout_fraction": float(self.dropout_fraction),
            "S": self.S,
            "n": self.n,
            "D": self.D,
            "T": self.T,
            "u_l": self.u_l,
            "seed": self.seed,
            "truths": [float(v) for v in self.truths],
            "truth_se": [float(v) for v in self.truth_se],
        }


def _derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(check_seed(seed), spawn_key=tuple(key)).generate_state(1)[0])


def _benchmark_one(args):
    cfg, grid, specs, K, rep_seed, fold_seed = args
    t = cfg.T
    ds = simulate(replace(cfg, seed=rep_seed))
    out = {}
    est, _ = estimate_cross_fit(ds, K, fold_seed, specs, grid, t)
    out["cross_fit"] = est.psi_hat
    # the plug-in and IPW baselines share one full-sample nuisance fit
    eta = fit_nuisances(ds, None, specs, grid.values, t)
    est, _ = estimate_plugin(ds, specs, grid, t, eta=eta)
    out["plugin"] = est.psi_hat
    out["ipw"] = estimate_ipw(ds, specs, grid, t, eta=eta).psi_hat
    est, _ = estimate_no_censoring(ds, K, fold_seed, specs, grid, t)
    out["no_censoring"] = est.psi_hat
    out["dropout"] = float(np.mean(ds.R[:, t] == 0))
    return out


def run_benchmark(
    cfg: DgpConfig,
    S: int,
    grid,
    specs: NuisanceSpecs,
    seed: int,
    K: int = 2,
    truth_draws: int = 200_000,
    threads: int = 1,
) -> BenchmarkResult:
    """Repeat the generator S times and score each estimator at the horizon T against the truth.

    Estimators: the cross-fit estimator, the plug-in and IPW baselines,
    and the no-censoring baseline (dropouts discarded, retention weights
    pinned at one).  The truth is ``exact_effect_curve``, so ``truth_se``
    is all zeros.  ``truth_draws`` is ignored; it is still accepted so
    that callers passing it keep working until it is removed.
    Deterministic for a given seed; replicate seeds are derived so
    results do not depend on execution order or on ``threads``, the
    number of worker processes.
    """
    check_count(S, "S", 1)
    if threads > 1:
        try:
            pickle.dumps(specs)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ConfigError(f"threads > 1 needs picklable specs: {exc}") from None
    grid = DeltaGrid.of(grid)
    truths = exact_effect_curve(cfg, grid, cfg.T)
    psi_bar = float(truths.mean())
    jobs = [
        (cfg, grid, specs, K, _derived_seed(seed, r, 1), _derived_seed(seed, r, 2))
        for r in range(1, S + 1)
    ]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_benchmark_one, jobs))
    else:
        results = [_benchmark_one(job) for job in jobs]

    kinds = ("cross_fit", "plugin", "ipw", "no_censoring")
    estimates = {k: np.stack([r[k] for r in results]) for k in kinds}
    rmse = {k: normalized_rmse(estimates[k], truths, psi_bar) for k in kinds}
    dropout = float(np.mean([r["dropout"] for r in results]))
    return BenchmarkResult(
        rmse=rmse,
        dropout_fraction=dropout,
        S=S,
        n=cfg.n,
        D=len(grid),
        T=cfg.T,
        u_l=cfg.u_l,
        seed=seed,
        truths=truths,
        truth_se=np.zeros_like(truths),
        estimates=estimates,
    )


def relative_efficiency_mc(
    cfg: DgpConfig,
    delta: float,
    horizons,
    reps: int,
    seed: int,
) -> list[dict]:
    """Variance of the shifted weight estimator relative to the always-treated one.

    For each horizon t >= 1, ``reps`` >= 2 fresh panels are drawn; on each
    the two single-pass weighted means (known propensities, no estimation)
    are computed, and ``ratio`` is Var(shifted) / Var(fixed-regime) across
    replicates, the quantity ``variance_ratio_bounds`` bounds.  Horizons
    where either sample variance is exactly zero (the fixed-regime weights
    routinely vanish for long horizons) are excluded with a warning.  For
    the trial generator the analytic bounds on that ratio are attached.
    """
    if cfg.kind not in ("trial", "observational"):
        raise ConfigError("relative efficiency runs on the trial or observational generator")
    check_count(reps, "reps", 2)
    horizons = [check_count(t, "each horizon", 1) for t in horizons]
    records = []
    for t in horizons:
        at_vals = np.empty(reps)
        inc_vals = np.empty(reps)
        for r in range(reps):
            ds = simulate(replace(cfg, T=t, seed=_derived_seed(seed, t, r)))
            pi = true_propensities(cfg, ds, t)
            A = ds.A[:, :t]
            y = ds.Y[:, t - 1]
            w_det = np.prod(np.where(A == 1.0, 1.0 / pi, 0.0), axis=1)
            w_inc = ipw_weight_products(A, ds.R[:, : t + 1], pi, np.ones_like(pi), delta)
            at_vals[r] = float(np.mean(w_det * y))
            inc_vals[r] = float(np.mean(w_inc * y))
        var_at = float(np.var(at_vals, ddof=1))
        var_inc = float(np.var(inc_vals, ddof=1))
        rec = {"t": t, "var_deterministic": var_at, "var_incremental": var_inc}
        if var_inc == 0.0 or var_at == 0.0:
            _warnings.warn(
                f"degenerate sample variance at t={t}; point excluded from the ratio"
            )
            rec["ratio"] = None
        else:
            rec["ratio"] = var_inc / var_at
        if cfg.kind == "trial":
            spec = trial_moments(t, cfg.p, delta)
            lower, upper = variance_ratio_bounds(spec)
            rec["lower_bound"] = lower
            rec["upper_bound"] = upper
        records.append(rec)
    return records
