import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.special import expit

from oddshift import (
    ConfigError,
    DeltaGrid,
    DgpConfig,
    EstimationError,
    LearnerSpec,
    NuisanceSpecs,
    PanelDataset,
    default_grid,
    estimate_cross_fit,
    estimate_ipw,
    estimate_no_censoring,
    estimate_plugin,
    fit_missingness_sequence,
    fit_propensity_sequence,
    fit_pseudo_outcome_sequence,
    fit_learner,
    fit_nuisances,
    incremental_propensity,
    oracle_specs,
    simulate,
    split_folds,
    true_propensities,
)
from oddshift import learners, nuisance
from oddshift.learners import OMEGA_FLOOR, PI_CLIP
from oddshift.simulation import (
    _GH_NODES,
    _ContinuationOracle,
    _RetentionOracle,
    _e_abs_shifted,
    _outcome_mean,
    _prop_logit,
)


@pytest.fixture(scope="module")
def trial5000():
    return simulate(DgpConfig(kind="trial", n=5000, T=3, p=0.5, seed=10))


@pytest.fixture(scope="module")
def dropout_ds():
    return simulate(DgpConfig(kind="dropout", n=2000, T=4, u_l=1.0, seed=11))


class TestPropensitySequence:
    def test_constant_propensity_recovered(self, trial5000):
        folds = split_folds(trial5000, 2, seed=0)
        fit = fit_propensity_sequence(trial5000, folds, LearnerSpec.logistic(), exclude_fold=1)
        for s in range(trial5000.T):
            assert np.nanmean(fit.pred[:, s]) == pytest.approx(0.5, abs=0.02)

    def test_oracle_passthrough(self, dropout_ds):
        cfg = DgpConfig(kind="dropout", n=2000, T=4, u_l=1.0, seed=11)
        specs = oracle_specs(cfg, 4)
        fit = fit_propensity_sequence(dropout_ds, None, specs.pi, exclude_fold=None)
        truth = true_propensities(cfg, dropout_ds, 4)
        mask = ~np.isnan(truth)
        assert np.allclose(fit.pred[mask], truth[mask], atol=1e-12)

    def test_empty_pool_errors(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 3, 1))
        A = (rng.random((6, 3)) < 0.5).astype(float)
        Y = np.full((6, 3), np.nan)
        R = np.ones((6, 4), dtype=np.int8)
        R[:, 2:] = 0  # everyone leaves after t=2
        X[:, 2] = np.nan
        A[:, 2] = np.nan
        ds = PanelDataset.from_arrays(X, A, Y, R)
        with pytest.raises(EstimationError):
            fit_propensity_sequence(ds, None, LearnerSpec.logistic(), exclude_fold=None)

    def test_single_subject_pool_errors(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(6, 2, 1))
        A = (rng.random((6, 2)) < 0.5).astype(float)
        Y = np.full((6, 2), np.nan)
        R = np.ones((6, 3), dtype=np.int8)
        R[1:, 1:] = 0  # only one subject remains at t=2
        X[1:, 1] = np.nan
        A[1:, 1] = np.nan
        ds = PanelDataset.from_arrays(X, A, Y, R)
        with pytest.raises(EstimationError, match="at least 2"):
            fit_propensity_sequence(ds, None, LearnerSpec.logistic(), exclude_fold=None)

    def test_underdetermined_warning_recorded(self):
        rng = np.random.default_rng(1)
        n = 8
        X = rng.normal(size=(n, 1, 1))
        A = (rng.random((n, 1)) < 0.5).astype(float)
        Y = rng.normal(size=(n, 1))
        ds = PanelDataset.from_arrays(X, A, Y, np.ones((n, 2), dtype=np.int8))
        fit = fit_propensity_sequence(ds, None, LearnerSpec.logistic(), exclude_fold=None)
        assert any("underdetermined" in w for w in fit.warnings)

    def test_underdetermined_judged_on_feature_width(self):
        # d=5 at t=3: width 15 covariates + 2 past treatments + 2 past outcomes
        # = 19, so 18 units are too few although 18 > d*t + 2 = 17
        rng = np.random.default_rng(2)
        n = 18
        X = rng.normal(size=(n, 3, 5))
        A = (rng.random((n, 3)) < 0.5).astype(float)
        Y = rng.normal(size=(n, 3))
        ds = PanelDataset.from_arrays(X, A, Y, np.ones((n, 4), dtype=np.int8))
        fit = fit_propensity_sequence(ds, None, LearnerSpec.logistic(), exclude_fold=None)
        assert fit.warnings == ["underdetermined propensity fit at t=3: 18 units"]

    def test_clipping(self, dropout_ds):
        fit = fit_propensity_sequence(dropout_ds, None, LearnerSpec.logistic(), exclude_fold=None)
        pred = fit.pred[~np.isnan(fit.pred)]
        assert pred.min() >= PI_CLIP and pred.max() <= 1.0 - PI_CLIP


class TestMissingnessSequence:
    def test_no_dropout_near_one(self, trial5000):
        fit = fit_missingness_sequence(trial5000, None, LearnerSpec.logistic(), exclude_fold=None)
        pred = fit.pred[~np.isnan(fit.pred)]
        assert np.all(pred == 1.0)  # degenerate all-ones target, clipped at 1

    def test_floor(self, dropout_ds):
        fit = fit_missingness_sequence(dropout_ds, None, LearnerSpec.logistic(), exclude_fold=None)
        pred = fit.pred[~np.isnan(fit.pred)]
        assert pred.min() >= OMEGA_FLOOR and pred.max() <= 1.0

    def test_rows_mask_limits_predictions(self, dropout_ds, reference):
        # the excluded fold is the only prediction mask
        folds = split_folds(dropout_ds, 2, seed=3)
        rows = folds.by_index == 1
        spec = LearnerSpec.knn(20)
        full = reference.missingness(dropout_ds, ~rows, spec)[0]
        held = fit_missingness_sequence(dropout_ds, folds, spec, exclude_fold=1)
        assert np.all(np.isnan(held.pred[~rows]))
        assert np.array_equal(held.pred[rows], full[rows], equal_nan=True)

    def test_oracle_matches_empirical_rates(self):
        # group units alive at t=2 by their treatment path and compare the
        # posterior-averaged retention truth with the realized frequencies
        cfg = DgpConfig(kind="dropout", n=120_000, T=2, u_l=1.0, seed=5)
        ds = simulate(cfg)
        specs = oracle_specs(cfg, 2)
        fit = fit_missingness_sequence(ds, None, specs.omega, exclude_fold=None)
        alive = ds.R[:, 1] == 1
        for a1 in (0, 1):
            for a2 in (0, 1):
                sel = alive & (ds.A[:, 0] == a1) & (ds.A[:, 1] == a2)
                emp = ds.R[sel, 2].mean()
                oracle = fit.pred[sel, 1]
                assert np.ptp(oracle) < 1e-12  # depends on the path only
                se = np.sqrt(emp * (1 - emp) / sel.sum())
                assert abs(oracle[0] - emp) < 4 * se + 1e-4


class TestForwardFitter:
    """One forward stage fitter gives pi and omega exactly what their own loops gave."""

    @pytest.mark.parametrize("n", [12, 300])  # 12: the held-out pools warn
    @pytest.mark.parametrize("learner", ["logistic", "knn", "oracle"])
    @pytest.mark.parametrize("held_out", [False, True])
    def test_bitwise_equal_to_separate_loops(self, n, learner, held_out, reference):
        cfg = DgpConfig(kind="dropout", n=n, T=3, u_l=1.0, seed=17)
        ds = simulate(cfg)
        pi_spec, omega_spec = {
            "logistic": (LearnerSpec.logistic(), LearnerSpec.logistic()),
            "knn": (LearnerSpec.knn(7), LearnerSpec.knn(7)),
            "oracle": (oracle_specs(cfg, 3).pi, oracle_specs(cfg, 3).omega),
        }[learner]
        folds = split_folds(ds, 3, seed=1)
        k = 2 if held_out else None
        train = np.ones(ds.n, dtype=bool) if k is None else folds.by_index != k
        rows = None if k is None else folds.by_index == k
        for fit, (pred, models, warns) in (
            (fit_propensity_sequence(ds, folds, pi_spec, exclude_fold=k),
             reference.propensity(ds, train, pi_spec)),
            (fit_missingness_sequence(ds, folds, omega_spec, exclude_fold=k),
             reference.missingness(ds, train, omega_spec, rows)),
        ):
            assert np.array_equal(fit.pred, pred, equal_nan=True)
            assert [(m.iterations, m.converged) for m in fit.models] == [
                (m.iterations, m.converged) for m in models
            ]
            assert fit.warnings == warns


class TestPoolWarnings:
    """Oracle and zero learners fit nothing, so only learners that fit warn on small pools."""

    CFG = DgpConfig(kind="dropout", n=16, T=3, u_l=1.0, seed=3)

    @pytest.fixture(scope="class")
    def tiny(self):
        return simulate(self.CFG)

    def test_no_censoring_omega_oracle_does_not_warn(self, tiny):
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.knn(5), m=LearnerSpec.ridge(1e-6)
        )
        est, _ = estimate_no_censoring(tiny, 2, 1, specs, default_grid(), 3)
        assert not [w for w in est.diagnostics["warnings"] if "underdetermined missingness" in w]

    def test_oracle_cross_fit_does_not_warn(self, tiny):
        specs = oracle_specs(self.CFG, 3)
        est, _ = estimate_cross_fit(tiny, 2, 1, specs, default_grid(), 3)
        assert not [w for w in est.diagnostics["warnings"] if "underdetermined" in w]

    def test_logistic_on_the_same_pools_still_warns(self, tiny):
        specs = replace(oracle_specs(self.CFG, 3), pi=LearnerSpec.logistic())
        est, _ = estimate_cross_fit(tiny, 2, 1, specs, default_grid(), 3)
        warned = [w for w in est.diagnostics["warnings"] if "underdetermined" in w]
        assert len(warned) == 6  # every stage of both folds: 8-unit pools
        assert all("underdetermined propensity fit" in w for w in warned)


class TestIterationCap:
    """A propensity or retention fit stopped by the IRLS iteration cap is a tagged warning."""

    CFG = DgpConfig(kind="dropout", n=200, T=3, u_l=1.0, seed=5)
    SPECS = NuisanceSpecs(
        pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.ridge(1e-6)
    )

    def test_capped_fits_warn_by_fold_stage_and_nuisance(self, monkeypatch):
        monkeypatch.setattr(learners, "IRLS_MAX_ITER", 1)
        est, _ = estimate_cross_fit(simulate(self.CFG), 2, 1, self.SPECS, default_grid(), 3)
        warns = est.diagnostics["warnings"]
        for k in (1, 2):
            assert not any(est.diagnostics["folds"][k - 1]["pi_converged"])
            for s in (1, 2, 3):
                assert (
                    f"fold {k}: propensity fit at t={s} stopped at IRLS_MAX_ITER=1 "
                    "without converging"
                ) in warns
        assert any(w.startswith("fold 1: missingness fit at t=") for w in warns)

    def test_warnings_match_the_convergence_flags(self):
        est, _ = estimate_cross_fit(simulate(self.CFG), 2, 1, self.SPECS, default_grid(), 3)
        cap = learners.IRLS_MAX_ITER
        want = [
            f"fold {k}: {what} fit at t={s} stopped at IRLS_MAX_ITER={cap} without converging"
            for k, fold in enumerate(est.diagnostics["folds"], start=1)
            for key, what in (("pi_converged", "propensity"), ("omega_converged", "missingness"))
            for s, converged in enumerate(fold[key], start=1)
            if not converged
        ]
        assert want  # fold 1's retention fit at t=2 runs into the cap at the default
        assert [w for w in est.diagnostics["warnings"] if "IRLS_MAX_ITER" in w] == want


class TestPseudoOutcome:
    def test_base_case_matches_conditional_mean(self, trial5000):
        cfg = DgpConfig(kind="trial", n=5000, T=3, p=0.5, seed=10)
        specs = oracle_specs(cfg, 3)
        pi = fit_propensity_sequence(trial5000, None, specs.pi, exclude_fold=None)
        fit = fit_pseudo_outcome_sequence(
            trial5000, None, pi.pred, specs.m, [2.0], 3, exclude_fold=None
        )
        k_before = trial5000.A[:, :2].sum(axis=1)
        assert np.allclose(fit.m1[:, 2, 0], 10.0 + np.sqrt(k_before + 1.0), atol=1e-12)
        assert np.allclose(fit.m0[:, 2, 0], 10.0 + np.sqrt(k_before), atol=1e-12)

    def test_constant_outcome_propagates(self):
        rng = np.random.default_rng(3)
        n, T = 300, 3
        X = rng.normal(size=(n, T, 2))
        A = (rng.random((n, T)) < 0.5).astype(float)
        Y = np.full((n, T), np.nan)
        Y[:, T - 1] = 4.5
        ds = PanelDataset.from_arrays(X, A, Y, np.ones((n, T + 1), dtype=np.int8))
        pi = fit_propensity_sequence(ds, None, LearnerSpec.logistic(), exclude_fold=None)
        for spec in (LearnerSpec.ridge(0.1), LearnerSpec.knn(5)):
            fit = fit_pseudo_outcome_sequence(ds, None, pi.pred, spec, [1.7], T, exclude_fold=None)
            assert np.allclose(fit.m1, 4.5, atol=1e-9)
            assert np.allclose(fit.m0, 4.5, atol=1e-9)

    def test_small_delta_limit(self, dropout_ds):
        # as delta -> 0 the arm-collapsed target tends to the untreated arm
        pi = fit_propensity_sequence(dropout_ds, None, LearnerSpec.logistic(), exclude_fold=None)
        fit = fit_pseudo_outcome_sequence(
            dropout_ds, None, pi.pred, LearnerSpec.ridge(0.01), [1e-9], 4, exclude_fold=None
        )
        alive = dropout_ds.R[:, 3] == 1
        p = pi.pred[alive, 3]
        m1, m0 = fit.m1[alive, 3, 0], fit.m0[alive, 3, 0]
        target = (1e-9 * p * m1 + (1 - p) * m0) / (1e-9 * p + 1 - p)
        assert np.max(np.abs(target - m0)) < 1e-6

    def test_censored_rows_zero(self, dropout_ds):
        pi = fit_propensity_sequence(dropout_ds, None, LearnerSpec.logistic(), exclude_fold=None)
        fit = fit_pseudo_outcome_sequence(
            dropout_ds, None, pi.pred, LearnerSpec.ridge(0.01), [2.0], 4, exclude_fold=None
        )
        gone = dropout_ds.R[:, :4] == 0
        assert np.all(fit.m1[gone] == 0.0) and np.all(fit.m0[gone] == 0.0)


class TestGroupedContinuationFits:
    DELTAS = (0.5, 1.0, 2.0)

    @pytest.fixture
    def fit_calls(self, monkeypatch):
        """Target shape of every fit_learner call the recursion makes."""
        calls = []
        real = nuisance.fit_learner

        def counting(spec, features, targets, task, clip=None):
            calls.append(np.shape(targets))
            return real(spec, features, targets, task, clip)

        monkeypatch.setattr(nuisance, "fit_learner", counting)
        return calls

    @pytest.fixture
    def pi_pred(self, dropout_ds):
        return fit_propensity_sequence(dropout_ds, None, LearnerSpec.logistic()).pred

    def test_shared_spec_fits_once_per_stage(self, dropout_ds, pi_pred, fit_calls):
        fit_pseudo_outcome_sequence(
            dropout_ds, None, pi_pred, LearnerSpec.ridge(1e-6), self.DELTAS, 4
        )
        assert len(fit_calls) == 4
        assert all(shape[1] == len(self.DELTAS) for shape in fit_calls)

    def test_callable_oracle_reads_each_stage_twice_and_fits_nothing(
        self, dropout_ds, pi_pred, fit_calls
    ):
        grid_spec = oracle_specs(DgpConfig(kind="dropout", n=2000, T=4, u_l=1.0, seed=11), 4).m
        calls = []

        def m(deltas):
            fn = grid_spec(deltas).fn

            def counted(ds, s, units, a):
                out = fn(ds, s, units, a)
                calls.append((s, a, out.shape[1:]))
                return out

            return LearnerSpec.oracle(counted)

        fit = fit_pseudo_outcome_sequence(dropout_ds, None, pi_pred, m, self.DELTAS, 4)
        assert fit_calls == []
        D = (len(self.DELTAS),)
        assert calls == [(s, a, () if s == 4 else D) for s in (4, 3, 2, 1) for a in (1.0, 0.0)]
        assert fit.m1.shape == (dropout_ds.n, 4, len(self.DELTAS))

    def test_callable_gets_the_grid_once(self, dropout_ds, pi_pred):
        seen = []

        def spec(deltas):
            seen.append(deltas)
            return LearnerSpec.ridge(0.3)

        fit_pseudo_outcome_sequence(dropout_ds, None, pi_pred, spec, list(self.DELTAS), 4)
        assert seen == [self.DELTAS]


def test_horizon_checked_before_any_fit(dropout_ds, monkeypatch):
    monkeypatch.setattr(nuisance, "fit_learner", lambda *a, **k: pytest.fail("fit before check"))
    specs = NuisanceSpecs(pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.zero())
    with pytest.raises(ConfigError, match=r"no recorded outcome at horizon t=7$"):
        fit_nuisances(dropout_ds, None, specs, [1.0], 7)


@pytest.mark.parametrize("deltas", [(-0.5, 2.0), (0.0,), (1.0, np.nan), (np.inf,), ()])
def test_delta_checked_before_any_fit(dropout_ds, monkeypatch, deltas):
    monkeypatch.setattr(nuisance, "fit_learner", lambda *a, **k: pytest.fail("fit before check"))
    specs = NuisanceSpecs(pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.zero())
    pi_pred = np.full((dropout_ds.n, 4), 0.5)
    with pytest.raises(ConfigError, match="delta must be finite and positive"):
        fit_nuisances(dropout_ds, None, specs, deltas, 4)
    with pytest.raises(ConfigError, match="delta must be finite and positive"):
        fit_pseudo_outcome_sequence(dropout_ds, None, pi_pred, LearnerSpec.zero(), deltas, 4)


@pytest.mark.parametrize("deltas", [(5.0, 0.1), [1.0, 1.0]])
def test_grid_rule_checked_before_any_fit(dropout_ds, monkeypatch, deltas):
    # the estimators' grid rule: strictly increasing, so no reordered or repeated delta
    monkeypatch.setattr(nuisance, "fit_learner", lambda *a, **k: pytest.fail("fit before check"))
    specs = NuisanceSpecs(pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.zero())
    pi_pred = np.full((dropout_ds.n, 4), 0.5)
    for fit in (lambda: fit_nuisances(dropout_ds, None, specs, deltas, 4),
                lambda: fit_pseudo_outcome_sequence(dropout_ds, None, pi_pred, specs.m, deltas, 4)):
        with pytest.raises(ConfigError, match="^grid values must be strictly increasing$"):
            fit()


@pytest.mark.parametrize("shape", [(50, 1), (10, 3), (50,)])
@pytest.mark.parametrize("learned", [True, False], ids=["learned", "oracle"])
def test_pi_pred_shape_checked_before_any_fit(monkeypatch, shape, learned):
    cfg = DgpConfig(kind="dropout", n=50, T=3, u_l=1.0, seed=11)
    ds = simulate(cfg)
    spec = LearnerSpec.ridge(0.1) if learned else oracle_specs(cfg, 3).m
    monkeypatch.setattr(nuisance, "_fit_stage", lambda *a, **k: pytest.fail("fit before check"))
    want = f"pi_pred must be an (n, >= t_star) = (50, >= 3) array, got shape {shape}"
    with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
        fit_pseudo_outcome_sequence(ds, None, np.full(shape, 0.5), spec, [2.0], 3)


class TestCrossFitHygiene:
    def test_no_leakage(self, dropout_ds):
        folds = split_folds(dropout_ds, 3, seed=2)
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.knn(50), m=LearnerSpec.ridge(0.01)
        )
        for k in (1, 2, 3):
            eta = fit_nuisances(dropout_ds, folds, specs, [1.5], 4, exclude_fold=k)
            held = set(np.flatnonzero(folds.by_index == k).tolist())
            assert held.isdisjoint(set(np.flatnonzero(~eta.rows).tolist()))
            assert eta.summary()["excluded_fold"] == k


class TestHeldOutFit:
    """The excluded fold decides the units a fit evaluates: fold k's, in dataset order."""

    CFG = DgpConfig(kind="dropout", n=240, T=3, u_l=1.0, seed=8)
    SPECS = NuisanceSpecs(
        pi=LearnerSpec.logistic(), omega=LearnerSpec.knn(9), m=LearnerSpec.ridge(1e-3)
    )
    DELTAS = (0.5, 1.0, 3.0)

    @pytest.mark.parametrize("k", [None, 1, 2, 3])
    def test_arrays_hold_the_fold_bitwise(self, k, reference):
        ds = simulate(self.CFG)
        folds = split_folds(ds, 3, seed=5)
        eta = fit_nuisances(ds, folds, self.SPECS, self.DELTAS, 3, exclude_fold=k)
        train = np.ones(ds.n, dtype=bool) if k is None else folds.by_index != k
        held = np.ones(ds.n, dtype=bool) if k is None else folds.by_index == k
        pi = reference.propensity(ds, train, self.SPECS.pi)[0]
        omega = reference.missingness(ds, train, self.SPECS.omega)[0]
        m1, m0 = reference.continuation(ds, train, pi, self.SPECS.m, self.DELTAS, 3)
        assert (eta.rows is None) == (k is None)
        if k is not None:
            assert np.array_equal(eta.rows, held) and held.sum() < ds.n
        assert np.any(ds.R[held, 3] == 0)
        for got, want in ((eta.pi, pi), (eta.omega, omega), (eta.m1, m1), (eta.m0, m0)):
            assert got.shape == (held.sum(),) + want.shape[1:]
            assert np.array_equal(got, want[held], equal_nan=True)
        # diagnostics.json's n_train: the units outside the excluded fold
        assert eta.summary()["n_train"] == int(np.count_nonzero(train))


def panel_of(X, A):
    """A fully retained panel with covariates X (n, T, d), treatments A (n, T) and no outcomes."""
    n, T = A.shape
    return PanelDataset.from_arrays(X, A, np.full((n, T), np.nan), np.ones((n, T + 1), np.int8))


class TestContinuationOracle:
    @pytest.mark.parametrize("s,a,b,u", [(3, 1, 0, 0.7), (2, 0, 1, -1.2), (1, 1, 0, 0.4)])
    def test_matches_forward_monte_carlo(self, s, a, b, u):
        t_star, delta = 3, 2.0
        oracle = _ContinuationOracle(t_star, [delta])
        X = np.zeros((1, s, 2))
        A = np.zeros((1, s))
        X[0, s - 1, 0] = u  # put the whole block sum in one coordinate
        if s >= 2:
            A[0, s - 2] = b
            X[0, s - 2, 0] = -0.3  # u_{s-1}, only used when s == t_star
        got = np.ravel(oracle.predict(panel_of(X, A), s, np.array([0]), float(a)))[0]

        rng = np.random.default_rng(123)
        m = 400_000
        a_prev1 = np.full(m, float(a))
        a_prev2 = np.full(m, float(b))
        u_prev = np.full(m, float(u))
        u_cur = np.full(m, float(u))
        if s == t_star:
            u_prev = np.full(m, -0.3)
        for k in range(s + 1, t_star + 1):
            u_prev, u_cur = u_cur, np.sqrt(2.0) * rng.standard_normal(m)
            pi = expit(_prop_logit(u_cur, a_prev1, a_prev2, k))
            q = incremental_propensity(pi, delta)
            a_prev2, a_prev1 = a_prev1, (rng.random(m) < q).astype(float)
        vals = 10.0 + a_prev1 + a_prev2 + np.abs(u_cur + u_prev)
        se = vals.std() / np.sqrt(m)
        assert got == pytest.approx(vals.mean(), abs=max(4 * se, 1e-3))

    def test_retention_oracle_posterior_shrinks_hazard(self):
        # surviving units carry higher frailty, so the posterior retention
        # at a never-treated path exceeds the prior average of expit(c)
        ret = _RetentionOracle(1.0)
        ds = panel_of(np.empty((1, 3, 0)), np.zeros((1, 3)))  # never treated
        prior = ret.predict(ds, 1, np.array([0]), np.zeros(1))[0]
        posterior = ret.predict(ds, 3, np.array([0]), np.zeros(1))[0]
        assert posterior > prior


def retention_all_rows(oracle, ds, s, units, a):
    """_RetentionOracle.predict as it was before paths were deduplicated: every row."""
    n = units.size
    path = np.column_stack([ds.A[units, : s - 1], a])
    ks = np.cumsum(path, axis=1)
    grid = oracle._c[None, None, :]
    surv = expit(grid + ks[:, :-1, None]) if s >= 2 else np.ones((n, 1, 1))
    weights = oracle._w[None, :] * np.prod(surv, axis=1)
    cur = expit(oracle._c[None, :] + ks[:, -1:, ])
    return np.sum(weights * cur, axis=1) / np.sum(weights, axis=1)


class TestOracleLookups:
    @pytest.mark.parametrize("s", [1, 2, 3, 6, 9, 17])
    def test_retention_by_path_equals_every_row_bitwise(self, s):
        rng = np.random.default_rng(s)
        d, n = 2, 700
        ds = panel_of(rng.normal(size=(n, s, d)), rng.integers(0, 2, size=(n, s)))
        units, a = np.arange(n), ds.A[:, s - 1]
        oracle = _RetentionOracle(1.0)
        got = oracle.predict(ds, s, units, a)
        want = retention_all_rows(oracle, ds, s, units, a)
        assert got.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_trial_table_index_equals_lookup(self):
        cfg = DgpConfig(kind="trial", n=10, T=5, p=0.3)
        delta, t_star = 1.7, 5
        q = incremental_propensity(cfg.p, delta)
        fn = oracle_specs(cfg, t_star).m((delta,)).fn
        table = 10.0 + np.sqrt(np.arange(t_star + 1.0))
        ds = panel_of(np.empty((50, t_star, 0)), np.random.default_rng(0).integers(0, 2, (50, t_star)))
        for s in range(t_star - 1, 0, -1):
            table = q * table[1:] + (1.0 - q) * table[:-1]
            lut = dict(enumerate(table))
            want = np.array([lut[int(v)] for v in ds.A[:, :s].sum(axis=1)])
            assert np.array_equal(fn(ds, s, np.arange(50), ds.A[:, s - 1])[:, 0], want)


class PerDeltaOracle:
    """The one-delta continuation oracle the grid oracle replaced, kept as its reference."""

    def __init__(self, t_star, delta):
        self.t_star = t_star
        self.delta = delta
        x, w = hermgauss(_GH_NODES)
        self._u = math.sqrt(2.0 * 2.0) * x
        self._w = w / math.sqrt(math.pi)
        self._c_abs = 2.0 * math.sqrt(2.0 / math.pi)
        self._qbar = {}
        for s in range(2, t_star + 1):
            for a in (0, 1):
                for b in (0, 1):
                    q = incremental_propensity(expit(_prop_logit(self._u, a, b, s)), delta)
                    self._qbar[(s, a, b)] = float(np.sum(self._w * q))
        self._tables = {}
        self._build_tables()

    def _qb(self, s, a, b):
        return self._qbar[(s, int(a), int(b))]

    def _penultimate(self, u, a, b):
        qb = np.where(
            np.asarray(a) == 1,
            np.where(np.asarray(b) == 1, self._qb(self.t_star, 1, 1), self._qb(self.t_star, 1, 0)),
            np.where(np.asarray(b) == 1, self._qb(self.t_star, 0, 1), self._qb(self.t_star, 0, 0)),
        )
        return 10.0 + np.asarray(a, float) + _e_abs_shifted(u) + qb

    def _build_tables(self):
        t = self.t_star
        if t < 3:
            return
        level = {}
        for a in (0, 1):
            gap = 1.0 + self._qb(t, 1, a) - self._qb(t, 0, a)
            for b in (0, 1):
                level[(a, b)] = 10.0 + self._c_abs + self._qb(t, 0, a) + self._qb(t - 1, a, b) * gap
        self._tables[t - 2] = level
        for s in range(t - 3, 0, -1):
            nxt = self._tables[s + 1]
            level = {}
            for a in (0, 1):
                for b in (0, 1):
                    qb = self._qb(s + 1, a, b)
                    level[(a, b)] = qb * nxt[(1, a)] + (1.0 - qb) * nxt[(0, a)]
            self._tables[s] = level

    def predict(self, ds, s, units, a):
        t = self.t_star
        a = np.broadcast_to(np.asarray(a, dtype=float), units.shape)
        u_cur = ds.X[units, s - 1].sum(axis=1)
        a_prev = ds.A[units, s - 2] if s >= 2 else np.zeros(units.size)
        if s == t:
            u_prev = ds.X[units, s - 2].sum(axis=1) if s >= 2 else 0.0
            return _outcome_mean(a, a_prev, u_cur, u_prev)
        if s == t - 1:
            return self._penultimate(u_cur, a, a_prev)
        table = self._tables[s]
        out = np.empty(units.size)
        for aa in (0, 1):
            for bb in (0, 1):
                mask = (a == aa) & (a_prev == bb)
                out[mask] = table[(aa, bb)]
        return out


def per_delta_trial(p, delta, t_star, ds, s, units, a):
    """The one-delta trial continuation table, looked up at stage s."""
    q = incremental_propensity(p, delta)
    values = {}
    table = 10.0 + np.sqrt(np.arange(t_star + 1.0))
    for r in range(t_star - 1, 0, -1):
        table = q * table[1:] + (1.0 - q) * table[:-1]
        values[r] = table
    k = (ds.A[units, : s - 1].sum(axis=1) if s >= 2 else np.zeros(units.size)) + a
    return 10.0 + np.sqrt(k) if s == t_star else values[s][k.astype(np.intp)]


class TestGridOracleEqualsPerDelta:
    DELTAS = (0.1, 0.35, 1.0, 1.7, 5.0, 0.9)

    @pytest.mark.parametrize("kind", ["dropout", "observational", "trial"])
    @pytest.mark.parametrize("t_star", [1, 2, 3, 5])
    def test_every_column_bitwise(self, kind, t_star):
        cfg = DgpConfig(kind=kind, n=10, T=t_star, p=0.3)
        spec = oracle_specs(cfg, t_star).m(self.DELTAS)
        refs = [PerDeltaOracle(t_star, delta) for delta in self.DELTAS]
        rng = np.random.default_rng(100 * t_star + len(kind))
        n = 64
        d = 0 if kind == "trial" else 2
        ds = panel_of(rng.normal(size=(n, t_star, d)), rng.integers(0, 2, size=(n, t_star)))
        units, pool, target = np.arange(n), np.ones(n, dtype=bool), np.zeros((n, len(self.DELTAS)))
        for s in range(1, t_star + 1):
            queries = ((1.0, np.full_like(target, np.nan)), (0.0, np.full_like(target, np.nan)))
            nuisance._fit_stage(spec, ds, s, pool, target, units, queries, None, "pseudo-outcome", [])
            for (j, delta), (a, got) in itertools.product(enumerate(self.DELTAS), queries):
                if kind == "trial":
                    want = per_delta_trial(cfg.p, delta, t_star, ds, s, units, a)
                else:
                    want = refs[j].predict(ds, s, units, a)
                assert np.array_equal(got[:, j].view(np.uint64), want.view(np.uint64))


class TestOraclesReadThePanel:
    """Oracle and zero specs are models of the panel: no history features, pools recorded."""

    GRID = DeltaGrid(values=(0.5, 1.0, 2.0))

    @pytest.fixture
    def history_calls(self, monkeypatch):
        calls = []
        real = nuisance.history_features

        def counting(ds, t, with_action=False):
            calls.append(t)
            return real(ds, t, with_action=with_action)

        monkeypatch.setattr(nuisance, "history_features", counting)
        return calls

    @pytest.mark.parametrize("kind", ["dropout", "trial", "observational"])
    def test_oracles_never_build_features(self, kind, monkeypatch):
        def no_features(*args, **kwargs):
            raise AssertionError("an oracle fit built history features")

        monkeypatch.setattr(nuisance, "history_features", no_features)
        cfg = DgpConfig(kind=kind, n=300, T=3, seed=4)
        ds = simulate(cfg)
        specs = oracle_specs(cfg, 3)
        estimate_cross_fit(ds, 2, 1, specs, self.GRID, 3)
        estimate_plugin(ds, specs, self.GRID, 3)
        estimate_ipw(ds, specs, self.GRID, 3)
        estimate_no_censoring(ds, 2, 1, specs, self.GRID, 3)
        assert not np.isnan(true_propensities(cfg, ds, 3)[ds.R[:, :3] == 1]).any()

    def test_ipw_builds_features_for_pi_and_omega_only(self, history_calls):
        # the zero continuation recursion reads no history: 2 builds per stage, not 3
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.ridge(1e-6)
        )
        estimate_ipw(simulate(DgpConfig(kind="dropout", n=300, T=4, seed=0)), specs, self.GRID, 4)
        assert sorted(history_calls) == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_oracle_fits_record_their_training_pool(self):
        # a trial's stage-1 history has no columns; the pool still has every training unit
        cfg = DgpConfig(kind="trial", n=400, T=2, seed=6)
        ds, specs = simulate(cfg), oracle_specs(cfg, 2)
        plug, _ = estimate_plugin(ds, specs, self.GRID, 2)
        assert plug.diagnostics["folds"][0]["n_train_per_t"] == [400, 400]
        cross, _ = estimate_cross_fit(ds, 2, 1, specs, self.GRID, 2)
        for fold in cross.diagnostics["folds"]:
            assert fold["n_train_per_t"] == [fold["n_train"]] * 2

    def test_oracles_need_no_training_pool(self):
        # heavy dropout leaves one training unit at t=2 in fold 2's complement:
        # learners cannot fit there, the oracles fit nothing and still estimate
        cfg = DgpConfig(kind="dropout", n=8, T=3, u_l=-5.0, seed=0)
        ds = simulate(cfg)
        est, _ = estimate_cross_fit(ds, 2, 0, oracle_specs(cfg, 3), self.GRID, 3)
        assert np.all(np.isfinite(est.psi_hat))
        assert [f["n_train_per_t"] for f in est.diagnostics["folds"]] == [[4, 3, 3], [4, 1, 1]]
        learned = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.ridge(1e-6)
        )
        with pytest.raises(EstimationError, match="1 training unit\\(s\\) for propensity at t=2"):
            estimate_cross_fit(ds, 2, 0, learned, self.GRID, 3)
