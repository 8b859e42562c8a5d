from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oddshift import (
    ConfigError,
    DeltaGrid,
    DgpConfig,
    EstimationError,
    LearnerSpec,
    NuisanceSpecs,
    PanelDataset,
    complete_case_subset,
    eif_correction_terms,
    eif_from_arrays,
    eif_single_period,
    eif_values_for,
    estimate_complete_case,
    estimate_cross_fit,
    estimate_ipw,
    estimate_no_censoring,
    estimate_plugin,
    default_grid,
    exact_effect_curve,
    fit_missingness_sequence,
    fit_nuisances,
    fit_propensity_sequence,
    oracle_specs,
    simulate,
    split_folds,
    true_effect_curve,
)
from oddshift import nuisance
from oddshift.estimator import ipw_weight_products


def nodropout_eif_reference(a_row, pi_row, m1_row, m0_row, y, delta):
    """Independently coded influence value for fully retained data.

    Same estimand with every retention factor deleted; written with
    explicit slice products rather than a running cumulative weight.
    """
    t = len(a_row)
    ratios = (delta * a_row + 1.0 - a_row) / (delta * pi_row + 1.0 - pi_row)
    total = 0.0
    for s in range(t):
        denom = delta * pi_row[s] + 1.0 - pi_row[s]
        g = (delta * pi_row[s] * m1_row[s] + (1.0 - pi_row[s]) * m0_row[s]) / denom
        b = delta * (a_row[s] - pi_row[s]) * (m1_row[s] - m0_row[s]) / denom**2
        m_obs = m1_row[s] if a_row[s] == 1 else m0_row[s]
        total += np.prod(ratios[:s]) * (g + b - ratios[s] * m_obs)
    return total + np.prod(ratios) * y


def random_single_period(rng):
    pi = rng.uniform(0.05, 0.95)
    omega = rng.uniform(0.2, 1.0)
    delta = float(np.exp(rng.uniform(np.log(0.1), np.log(5.0))))
    a = int(rng.random() < 0.5)
    r = int(rng.random() < 0.8)
    y = float(rng.normal(scale=2.0))
    mu1 = float(rng.normal())
    mu0 = float(rng.normal())
    return a, y, r, pi, omega, mu1, mu0, delta


class TestSinglePeriodForm:
    def test_worked_example(self):
        assert eif_single_period(1, 3.0, 1, 0.5, 1.0, 2.0, 0.0, 1.0) == pytest.approx(3.0)

    def test_equal_arm_means_drop_correction(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, y, r, pi, omega, mu1, mu0, delta = random_single_period(rng)
            base = eif_single_period(a, y, r, pi, omega, mu1, mu1, delta)
            # with equal arm means at delta=1 and full retention this is the
            # plain observational-mean influence value
            if r == 1:
                direct = eif_single_period(a, y, 1, pi, omega, mu1, mu1, 1.0)
                pi_a = pi if a == 1 else 1.0 - pi
                assert direct == pytest.approx((y - mu1) / (pi_a * omega) * pi_a / 1.0 + mu1)
            assert np.isfinite(base)

    def test_unobserved_outcome_zeroes_weighted_parts(self):
        val = eif_single_period(1, 123.0, 0, 0.4, 0.9, 2.0, 1.0, 2.0)
        denom = 2.0 * 0.4 + 0.6
        expected = (2.0 * 0.4 * 2.0 + 0.6 * 1.0) / denom + 2.0 * 1.0 * 0.6 / denom**2
        assert val == pytest.approx(expected, abs=1e-12)

    def test_matches_general_recursion(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(1000):
            a, y, r, pi, omega, mu1, mu0, delta = random_single_period(rng)
            general = eif_from_arrays(
                np.array([[float(a)]]),
                np.array([[1, r]]),
                np.array([y if r else np.nan]),
                np.array([[pi]]),
                np.array([[omega]]),
                np.array([[mu1]]),
                np.array([[mu0]]),
                delta,
            )[0]
            closed = eif_single_period(a, y if r else 0.0, r, pi, omega, mu1, mu0, delta)
            worst = max(worst, abs(general - closed))
        assert worst < 1e-10


class TestGeneralRecursion:
    def test_censored_at_first_stage(self):
        # with R_2 = 0 only the arm-collapsed and perturbation terms survive
        pi, m1v, m0v, delta, a = 0.3, 1.5, -0.5, 2.0, 1.0
        val = eif_from_arrays(
            np.array([[a]]), np.array([[1, 0]]), np.array([np.nan]),
            np.array([[pi]]), np.array([[0.8]]), np.array([[m1v]]), np.array([[m0v]]), delta,
        )[0]
        denom = delta * pi + 1.0 - pi
        g = (delta * pi * m1v + (1 - pi) * m0v) / denom
        b = delta * (a - pi) * (m1v - m0v) / denom**2
        assert val == pytest.approx(g + b, abs=1e-12)

    def test_no_dropout_reduction(self):
        rng = np.random.default_rng(23)
        t = 5
        worst = 0.0
        for _ in range(300):
            a = (rng.random(t) < 0.5).astype(float)
            pi = rng.uniform(0.05, 0.95, t)
            m1 = rng.normal(size=t)
            m0 = rng.normal(size=t)
            y = float(rng.normal())
            delta = float(np.exp(rng.uniform(np.log(0.1), np.log(5.0))))
            general = eif_from_arrays(
                a[None, :], np.ones((1, t + 1), dtype=int), np.array([y]),
                pi[None, :], np.ones((1, t)), m1[None, :], m0[None, :], delta,
            )[0]
            ref = nodropout_eif_reference(a, pi, m1, m0, y, delta)
            worst = max(worst, abs(general - ref))
        assert worst < 1e-12

    def test_zero_m_gives_weight_product_times_outcome(self):
        rng = np.random.default_rng(4)
        t = 3
        a = (rng.random((50, t)) < 0.5).astype(float)
        R = np.ones((50, t + 1), dtype=int)
        R[:10, 2:] = 0
        a[:10, 2:] = np.nan
        pi = rng.uniform(0.2, 0.8, size=(50, t))
        om = rng.uniform(0.5, 1.0, size=(50, t))
        y = rng.normal(size=50)
        y[R[:, t] == 0] = np.nan
        zeros = np.zeros((50, t))
        phi = eif_from_arrays(a, R, y, pi, om, zeros, zeros, 2.0)
        W = ipw_weight_products(a, R, pi, om, 2.0)
        expected = W * np.where(R[:, t] == 1, y, 0.0)
        assert np.allclose(phi, expected, atol=1e-12)
        assert np.all(np.isfinite(phi))


@pytest.fixture(scope="module")
def oracle_run():
    cfg = DgpConfig(kind="observational", n=5000, T=3, seed=31)
    ds = simulate(cfg)
    grid = DeltaGrid(values=(0.5, 1.0, 2.0))
    specs = oracle_specs(cfg, 3)
    est, eif = estimate_cross_fit(ds, K=2, seed=3, specs=specs, grid=grid, t=3)
    return cfg, ds, grid, specs, est, eif


class TestCrossFit:
    def test_observational_mean_at_delta_one(self, oracle_run):
        cfg, ds, grid, specs, est, eif = oracle_run
        y = ds.Y[:, 2]
        j = grid.values.index(1.0)
        se = y.std() / np.sqrt(ds.n)
        assert abs(est.psi_hat[j] - y.mean()) < 3 * se

    def test_deterministic(self, oracle_run):
        cfg, ds, grid, specs, est, _ = oracle_run
        est2, _ = estimate_cross_fit(ds, K=2, seed=3, specs=specs, grid=grid, t=3)
        assert np.array_equal(est.psi_hat, est2.psi_hat)
        assert np.array_equal(est.sigma_hat, est2.sigma_hat)

    def test_fold_mean_reduction(self, oracle_run):
        cfg, ds, grid, specs, est, eif = oracle_run
        folds = split_folds(ds, 2, 3)
        for k in (1, 2):
            rows = folds.by_index == k
            assert np.allclose(eif.values[rows].mean(axis=0), est.per_fold[k - 1])
        assert np.allclose(est.per_fold.mean(axis=0), est.psi_hat, atol=1e-12)

    def test_duplicated_data_symmetric_folds(self):
        cfg = DgpConfig(kind="trial", n=300, T=2, p=0.5, seed=6)
        half = simulate(cfg)
        X = np.concatenate([half.X, half.X])
        A = np.concatenate([half.A, half.A])
        Y = np.concatenate([half.Y, half.Y])
        R = np.concatenate([half.R, half.R])
        ds = PanelDataset.from_arrays(X, A, Y, R)
        specs = oracle_specs(cfg, 2)
        # place one copy of the data in each fold
        from oddshift.panel import FoldAssignment

        by_index = np.array([1] * 300 + [2] * 300)
        folds = FoldAssignment(K=2, by_index=by_index)
        est, _ = estimate_cross_fit(
            ds, K=2, seed=0, specs=specs,
            grid=DeltaGrid(values=(2.0,)), t=2, folds=folds,
        )
        assert est.per_fold[0] == pytest.approx(est.per_fold[1], abs=1e-10)

    def test_per_trajectory_contribution(self, oracle_run):
        cfg, ds, grid, specs, est, eif = oracle_run
        folds = split_folds(ds, 2, seed=3)
        eta = fit_nuisances(ds, folds, specs, [2.0], 3, exclude_fold=1)
        phi = eif_values_for(ds, eta)[:, 0]  # fold 1's units, in dataset order
        i = int(np.flatnonzero(folds.by_index == 1)[0])
        assert unit_values(ds, eta, i, 0)[0] == pytest.approx(phi[0], abs=1e-12)
        j = grid.values.index(2.0)
        assert eif.values[i, j] == pytest.approx(phi[0], abs=1e-12)


def unit_values(ds, eta, i, j):
    """Influence values (D,) of dataset row i alone, read at row j of the set's arrays."""
    t = eta.t_star
    return eif_from_arrays(
        ds.A[i : i + 1, :t], ds.R[i : i + 1, : t + 1], ds.Y[i : i + 1, t - 1],
        eta.pi[j : j + 1], eta.omega[j : j + 1],
        eta.m1[j : j + 1], eta.m0[j : j + 1], np.asarray(eta.deltas),
    )[0]


class TestRowsFittedSet:
    """A set fit without fold k holds fold k's units, in dataset order, marked by ``rows``."""

    @pytest.fixture(scope="class")
    def sets(self, reference):
        ds = simulate(DgpConfig(kind="dropout", n=200, T=3, u_l=1.0, seed=4))
        folds = split_folds(ds, 2, seed=0)
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.ridge(1e-3)
        )
        rows = folds.by_index == 1
        full = reference.full_set(ds, folds, specs, [0.5, 2.0], 3, exclude_fold=1)
        held = fit_nuisances(ds, folds, specs, [0.5, 2.0], 3, exclude_fold=1)
        return ds, rows, full, held

    def test_contribution_reads_the_unit_itself(self, sets):
        ds, rows, full, held = sets
        assert np.any(ds.R[rows, 3] == 0)
        assert np.array_equal(held.rows, rows)
        for j, i in enumerate(np.flatnonzero(rows)):
            assert np.array_equal(unit_values(ds, held, i, j), unit_values(ds, full, i, i))

    def test_values_for_equal_the_full_set_at_those_rows(self, sets):
        ds, rows, full, held = sets
        assert np.array_equal(eif_values_for(ds, held), eif_values_for(ds, full)[rows])


class TestCrossFitHeldOut:
    """Retention fits and influence values are computed for held-out rows only."""

    def test_knn_omega_matches_full_cache_bitwise(self):
        ds = simulate(DgpConfig(kind="dropout", n=600, T=3, u_l=1.0, seed=21))
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.knn(15), m=LearnerSpec.ridge(1e-6)
        )
        grid = DeltaGrid(values=(0.5, 1.0, 2.0))
        _, eif = estimate_cross_fit(ds, K=2, seed=4, specs=specs, grid=grid, t=3)
        folds = split_folds(ds, 2, seed=4)
        assert np.any(ds.R[:, 3] == 0)
        for k in (1, 2):
            rows = folds.by_index == k
            for j, delta in enumerate(grid.values):
                eta = fit_nuisances(ds, folds, specs, [delta], 3, exclude_fold=k)
                assert np.array_equal(eif.values[rows, j], eif_values_for(ds, eta)[:, 0])

    def test_warnings_once_per_fold_and_tagged(self):
        ds = simulate(DgpConfig(kind="dropout", n=16, T=3, u_l=1.0, seed=3))
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.knn(5), m=LearnerSpec.ridge(1e-6)
        )
        grid = default_grid()
        est, _ = estimate_cross_fit(ds, K=2, seed=1, specs=specs, grid=grid, t=3)
        warnings = est.diagnostics["warnings"]
        assert warnings and len(warnings) == len(set(warnings))
        folds = split_folds(ds, 2, seed=1)
        for k in (1, 2):
            tag = f"fold {k}: "
            tagged = [w[len(tag):] for w in warnings if w.startswith(tag)]
            expected = []
            for delta in grid.values:
                eta = fit_nuisances(ds, folds, specs, [delta], 3, exclude_fold=k)
                expected += [w for w in eta.warnings if w not in expected]
            assert tagged == expected
            assert est.diagnostics["folds"][k - 1]["warnings"] == expected
        assert all(w.startswith(("fold 1: ", "fold 2: ")) for w in warnings)


class TestFoldAssignmentFitsThePanel:
    """A fold assignment that does not fit the panel is a ConfigError before any fit."""

    CFG = DgpConfig(kind="dropout", n=200, T=3, u_l=1.0, seed=4)
    SPECS = NuisanceSpecs(
        pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.ridge(1e-6)
    )

    @pytest.fixture
    def ds(self, monkeypatch):
        monkeypatch.setattr(nuisance, "fit_learner", lambda *a, **k: pytest.fail("fit started"))
        return simulate(self.CFG)

    def test_assignment_for_fewer_units(self, ds):
        folds = split_folds(simulate(replace(self.CFG, n=150)), 2, seed=0)
        with pytest.raises(ConfigError, match="covers 150 units, the panel has 200"):
            estimate_cross_fit(ds, 2, 0, self.SPECS, default_grid(), 3, folds=folds)
        for fit in (fit_propensity_sequence, fit_missingness_sequence):
            with pytest.raises(ConfigError, match="covers 150 units"):
                fit(ds, folds, self.SPECS.pi)

    def test_K_disagrees_with_the_assignment(self, ds):
        folds = split_folds(ds, 2, seed=0)
        with pytest.raises(ConfigError, match="K=5 but the fold assignment has 2 folds"):
            estimate_cross_fit(ds, 5, 0, self.SPECS, default_grid(), 3, folds=folds)

    @pytest.mark.parametrize("K,t,message", [
        (2.5, 3, "K must be an integer >= 2, got 2.5"),
        (2, 3.0, "t must be an integer >= 1, got 3.0"),
    ])
    def test_K_and_horizon_must_be_integers(self, ds, K, t, message):
        with pytest.raises(ConfigError) as info:
            estimate_cross_fit(ds, K, 0, self.SPECS, default_grid(), t)
        assert str(info.value) == message

    @pytest.mark.parametrize("k", [0, 3])
    def test_excluded_fold_outside_the_assignment(self, ds, k):
        folds = split_folds(ds, 2, seed=0)
        with pytest.raises(ConfigError, match=f"exclude_fold={k} is not a fold of K=2"):
            fit_nuisances(ds, folds, self.SPECS, [1.0], 3, exclude_fold=k)


class TestBaselines:
    def test_ipw_hand_example(self):
        # two units, one period, pinned propensities: weights 2/1.5 and 1/1.5
        X = np.zeros((2, 1, 1))
        A = np.array([[1.0], [0.0]])
        Y = np.array([[2.0], [4.0]])
        R = np.ones((2, 2), dtype=np.int8)
        ds = PanelDataset.from_arrays(X, A, Y, R)
        specs = NuisanceSpecs(
            pi=LearnerSpec.oracle(lambda ds, s, units, a: np.full(units.size, 0.5)),
            omega=LearnerSpec.oracle(lambda ds, s, units, a: np.ones(units.size)),
            m=LearnerSpec.zero(),
        )
        est = estimate_ipw(ds, specs, DeltaGrid(values=(2.0,)), 1)
        assert est.psi_hat[0] == pytest.approx((2.0 / 1.5 * 2.0 + 1.0 / 1.5 * 4.0) / 2.0)

    def test_ipw_at_delta_one_is_sample_mean(self):
        ds = simulate(DgpConfig(kind="trial", n=400, T=2, p=0.5, seed=8))
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.zero()
        )
        est = estimate_ipw(ds, specs, DeltaGrid(values=(1.0,)), 2)
        assert est.psi_hat[0] == pytest.approx(np.mean(ds.Y[:, 1]), abs=1e-10)

    def test_plugin_zero_m_equals_ipw_bitwise(self):
        ds = simulate(DgpConfig(kind="dropout", n=500, T=3, u_l=1.0, seed=9))
        grid = DeltaGrid(values=(0.5, 1.0, 3.0))
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.zero()
        )
        ipw = estimate_ipw(ds, specs, grid, 3)
        plug, _ = estimate_plugin(ds, specs, grid, 3)
        assert np.array_equal(ipw.psi_hat, plug.psi_hat)

    def test_shared_full_sample_fits_change_nothing(self):
        ds = simulate(DgpConfig(kind="dropout", n=300, T=3, u_l=1.0, seed=13))
        grid = DeltaGrid(values=(0.5, 2.0))
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.knn(10), m=LearnerSpec.ridge(1e-6)
        )
        eta = fit_nuisances(ds, None, specs, grid.values, 3)
        plug, _ = estimate_plugin(ds, specs, grid, 3)
        shared, _ = estimate_plugin(ds, specs, grid, 3, eta=eta)
        assert np.array_equal(plug.psi_hat, shared.psi_hat)
        ipw = estimate_ipw(ds, specs, grid, 3)
        shared = estimate_ipw(ds, specs, grid, 3, eta=eta)
        assert np.array_equal(ipw.psi_hat, shared.psi_hat)

    @pytest.mark.parametrize("case", ["other grid", "other horizon", "one fold", "longer grid"])
    def test_given_eta_must_fit_the_call(self, case):
        # unchecked, these give another grid's curve, unwritten rows or a raw ValueError
        ds = simulate(DgpConfig(kind="dropout", n=400, T=3, u_l=1.0, seed=1))
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.ridge(1e-6)
        )
        grid, folds = (1.0, 2.0), split_folds(ds, 2, seed=1)
        eta = {
            "other grid": lambda: fit_nuisances(ds, None, specs, (0.5, 3.0), 3),
            "other horizon": lambda: replace(fit_nuisances(ds, None, specs, grid, 3), t_star=2),
            "one fold": lambda: fit_nuisances(ds, folds, specs, grid, 3, exclude_fold=1),
            "longer grid": lambda: fit_nuisances(ds, None, specs, grid, 3),
        }[case]()
        if case == "longer grid":
            with pytest.raises(ConfigError, match="eta was fit for deltas"):
                estimate_ipw(ds, specs, (1.0, 2.0, 4.0), 3, eta=eta)
            return
        for estimate in (estimate_plugin, estimate_ipw):
            with pytest.raises(ConfigError, match="eta "):
                estimate(ds, specs, grid, 3, eta=eta)

    @pytest.mark.parametrize("t", [0, 4, 2])
    def test_complete_cases_need_a_recorded_outcome_at_the_horizon(self, t):
        ds = simulate(DgpConfig(kind="dropout", n=200, T=3, u_l=1.0, seed=13))  # outcome at t=3 only
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.ridge(0.01)
        )
        message = rf"^no recorded outcome at horizon t={t}$"
        with pytest.raises(ConfigError, match=message):
            complete_case_subset(ds, t)
        with pytest.raises(ConfigError, match=message):
            estimate_no_censoring(ds, 2, 5, specs, DeltaGrid(values=(1.0,)), t)

    @pytest.mark.parametrize("shared", [False, True])
    def test_ipw_is_weight_products_times_outcome(self, shared):
        ds = simulate(DgpConfig(kind="dropout", n=400, T=3, u_l=1.0, seed=14))
        grid = DeltaGrid(values=(0.2, 1.0, 4.0))
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.knn(15), m=LearnerSpec.ridge(1e-6)
        )
        eta = fit_nuisances(ds, None, specs, grid.values, 3)
        est = estimate_ipw(ds, specs, grid, 3, eta=eta if shared else None)
        W = ipw_weight_products(ds.A[:, :3], ds.R[:, :4], eta.pi, eta.omega, np.array(grid.values))
        values = W * np.where(ds.R[:, 3] == 1, ds.Y[:, 2], 0.0)[:, None]
        psi_hat = values.mean(axis=0)
        assert np.array_equal(est.psi_hat, psi_hat)
        assert np.array_equal(est.sigma_hat, np.sqrt(np.mean((values - psi_hat) ** 2, axis=0)))

    def test_ipw_never_fits_the_continuation_spec(self):
        ds = simulate(DgpConfig(kind="dropout", n=200, T=3, u_l=1.0, seed=15))

        def no_m(ds, s, units, a):
            raise AssertionError("continuation spec used by IPW")

        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.oracle(no_m)
        )
        zero_m = NuisanceSpecs(pi=specs.pi, omega=specs.omega, m=LearnerSpec.zero())
        grid = DeltaGrid(values=(0.5, 2.0))
        est = estimate_ipw(ds, specs, grid, 3)
        assert np.array_equal(est.psi_hat, estimate_ipw(ds, zero_m, grid, 3).psi_hat)

    def test_plugin_equals_cross_fit_with_oracles(self):
        cfg = DgpConfig(kind="trial", n=500, T=2, p=0.5, seed=12)
        ds = simulate(cfg)
        specs = oracle_specs(cfg, 2)
        grid = DeltaGrid(values=(0.5, 2.0))
        plug, _ = estimate_plugin(ds, specs, grid, 2)
        cross, _ = estimate_cross_fit(ds, K=2, seed=1, specs=specs, grid=grid, t=2)
        assert np.allclose(plug.psi_hat, cross.psi_hat, atol=1e-10)

    def test_no_censoring_uses_complete_cases(self):
        ds = simulate(DgpConfig(kind="dropout", n=800, T=3, u_l=1.0, seed=13))
        sub = complete_case_subset(ds, 3)
        assert sub.n == int(np.sum(ds.R[:, 3] == 1))
        assert np.all(sub.R == 1)
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.ridge(0.01)
        )
        est, _ = estimate_no_censoring(ds, 2, 5, specs, DeltaGrid(values=(1.0,)), 3)
        assert est.kind == "no_censoring"
        assert est.n == sub.n

    @pytest.mark.parametrize("omega", [LearnerSpec.logistic(), LearnerSpec.zero()])
    def test_no_censoring_is_cross_fit_on_complete_cases_bitwise(self, omega):
        ds = simulate(DgpConfig(kind="dropout", n=600, T=3, u_l=1.0, seed=17))
        grid = DeltaGrid(values=(0.5, 1.0, 2.0))
        specs = NuisanceSpecs(pi=LearnerSpec.logistic(), omega=omega, m=LearnerSpec.ridge(1e-6))
        est, eif = estimate_no_censoring(ds, 2, 5, specs, grid, 3)
        # every complete case is retained: a one-class pool, so logistic omega predicts 1.0 unfit
        logistic = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.ridge(1e-6)
        )
        ref, ref_eif = estimate_cross_fit(complete_case_subset(ds, 3), 2, 5, logistic, grid, 3)
        assert np.array_equal(est.psi_hat, ref.psi_hat)
        assert np.array_equal(est.sigma_hat, ref.sigma_hat)
        assert np.array_equal(eif.values, ref_eif.values)

    def test_plugin_is_one_unsplit_fold(self):
        ds = simulate(DgpConfig(kind="dropout", n=300, T=3, u_l=1.0, seed=13))
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.knn(10), m=LearnerSpec.ridge(1e-6)
        )
        plug, eif = estimate_plugin(ds, specs, DeltaGrid(values=(0.5, 2.0)), 3)
        assert np.array_equal(plug.per_fold, plug.psi_hat[None])
        assert np.array_equal(plug.psi_hat, eif.values.mean(axis=0))


class TestCompleteCase:
    def _dataset(self, treat_paths, ys, retained=None):
        n = len(treat_paths)
        t = len(treat_paths[0])
        X = np.zeros((n, t, 1))
        A = np.asarray(treat_paths, dtype=float)
        Y = np.full((n, t), np.nan)
        R = np.ones((n, t + 1), dtype=np.int8)
        if retained is None:
            retained = [1] * n
        for i in range(n):
            Y[i, t - 1] = ys[i] if retained[i] else np.nan
            R[i, t] = retained[i]
        return PanelDataset.from_arrays(X, A, Y, R)

    def test_subgroup_contrast(self):
        ds = self._dataset([[1, 1], [1, 1], [0, 0], [1, 0]], [2.0, 4.0, 1.0, 9.0])
        assert estimate_complete_case(ds, 2) == pytest.approx(2.0)

    def test_empty_subgroup_errors(self):
        ds = self._dataset([[1, 0], [0, 1]], [1.0, 2.0])
        with pytest.raises(EstimationError, match="undefined"):
            estimate_complete_case(ds, 2)

    def test_all_equal_outcomes(self):
        ds = self._dataset([[1, 1], [0, 0]], [3.0, 3.0])
        assert estimate_complete_case(ds, 2) == 0.0

    def test_horizon_rule_is_the_nuisance_one(self):
        ds = self._dataset([[1, 1], [0, 0]], [3.0, 3.0])  # an outcome at t=2 only
        with pytest.raises(ConfigError, match=r"^no recorded outcome at horizon t=1$"):
            estimate_complete_case(ds, 1)


class TestUnbiasednessSmall:
    def test_oracle_recovers_truth(self, oracle_run):
        cfg, ds, grid, specs, est, _ = oracle_run
        truth, se = true_effect_curve(cfg, grid, 3, draws=100_000, seed=77)
        combined = np.sqrt(se**2 + est.sigma_hat**2 / ds.n)
        assert np.all(np.abs(est.psi_hat - truth) < 3 * combined)


@pytest.mark.parametrize("oracle_pi", [False, True])
@pytest.mark.parametrize("oracle_omega", [False, True])
@pytest.mark.parametrize("oracle_m", [False, True])
def test_each_nuisance_swaps_for_its_oracle(oracle_pi, oracle_omega, oracle_m):
    # learned and oracle specs mix freely: every cell of the factorial is unbiased
    cfg = DgpConfig(kind="dropout", n=2000, T=3, seed=21)
    ds = simulate(cfg)
    grid = DeltaGrid(values=(0.5, 1.0, 2.0))
    oracle = oracle_specs(cfg, 3)
    specs = NuisanceSpecs(
        pi=oracle.pi if oracle_pi else LearnerSpec.logistic(),
        omega=oracle.omega if oracle_omega else LearnerSpec.logistic(),
        m=oracle.m if oracle_m else LearnerSpec.ridge(1e-6),
    )
    est, _ = estimate_cross_fit(ds, 2, 1, specs, grid, 3)
    truth = exact_effect_curve(cfg, grid, 3)
    assert np.all(np.abs(est.psi_hat - truth) < 4 * est.sigma_hat / np.sqrt(ds.n))


# --------------------------------------------------------------------------
# the shared stage kernel against the three per-delta loops it replaced
# --------------------------------------------------------------------------


def _gate(cond, values, fill):
    return np.where(cond, values, fill)


def reference_eif(A, R, y_term, pi, omega, m1, m0, delta):
    """Influence values for one delta: the per-delta loop the kernel replaced."""
    A = np.atleast_2d(A)
    n, t = A.shape
    phi = np.zeros(n)
    C = np.ones(n)
    for s in range(t):
        alive = R[:, s] == 1
        a = _gate(alive, A[:, s], 0.0)
        p = _gate(alive, pi[:, s], 0.5)
        w = _gate(alive, omega[:, s], 1.0)
        r_next = R[:, s + 1].astype(float)
        denom = delta * p + 1.0 - p
        ratio = (delta * a + 1.0 - a) / denom
        m1s = _gate(alive, m1[:, s], 0.0)
        m0s = _gate(alive, m0[:, s], 0.0)
        m_obs = np.where(a == 1.0, m1s, m0s)
        g = (delta * p * m1s + (1.0 - p) * m0s) / denom
        b = delta * (a - p) * (m1s - m0s) / denom**2
        summand = g + b - ratio * (r_next / w) * m_obs
        phi += C * np.where(alive, summand, 0.0)
        C = C * np.where(alive, ratio * r_next / w, 0.0)
    return phi + C * _gate(R[:, t] == 1, y_term, 0.0)


def reference_correction_terms(A, R, pi, omega, m1, m0, delta):
    """Per-stage correction terms for one delta: the loop the kernel replaced."""
    A = np.atleast_2d(A)
    n, t = A.shape
    out = np.full((n, t), np.nan)
    for s in range(t):
        alive = R[:, s] == 1
        a = _gate(alive, A[:, s], 0.0)
        p = _gate(alive, pi[:, s], 0.5)
        w = _gate(alive, omega[:, s], 1.0)
        r_next = R[:, s + 1].astype(float)
        denom = delta * p + 1.0 - p
        ratio = (delta * a + 1.0 - a) / denom
        m1s = _gate(alive, m1[:, s], 0.0)
        m0s = _gate(alive, m0[:, s], 0.0)
        m_obs = np.where(a == 1.0, m1s, m0s)
        g = (delta * p * m1s + (1.0 - p) * m0s) / denom
        b = delta * (a - p) * (m1s - m0s) / denom**2
        out[alive, s] = (g + b - ratio * (r_next / w) * m_obs)[alive]
    return out


def reference_weight_products(A, R, pi, omega, delta):
    """Cumulative weights for one delta: the loop the kernel replaced."""
    n, t = np.atleast_2d(A).shape
    W = np.ones(n)
    for s in range(t):
        alive = R[:, s] == 1
        a = _gate(alive, A[:, s], 0.0)
        p = _gate(alive, pi[:, s], 0.5)
        w = _gate(alive, omega[:, s], 1.0)
        ratio = (delta * a + 1.0 - a) / (delta * p + 1.0 - p)
        W = W * np.where(alive, ratio * R[:, s + 1] / w, 0.0)
    return W


KERNEL_SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
deltas_st = st.lists(st.floats(0.05, 20.0), min_size=1, max_size=6)


def random_panel(seed, n, t, dropout=True):
    """Monotone-dropout arrays with NaN after each unit leaves, as the estimator sees them."""
    rng = np.random.default_rng(seed)
    last = rng.integers(1, t + 2, size=n) if dropout else np.full(n, t + 1)
    R = (np.arange(t + 1)[None, :] < last[:, None]).astype(np.int8)
    here = R[:, :t] == 1
    A = np.where(here, (rng.random((n, t)) < 0.5).astype(float), np.nan)
    pi = np.where(here, rng.uniform(0.01, 0.99, (n, t)), np.nan)
    omega = np.where(here, rng.uniform(0.05, 1.0, (n, t)), np.nan)
    y = np.where(R[:, t] == 1, rng.normal(size=n), np.nan)
    return rng, A, R, y, pi, omega


class TestStageKernel:
    @KERNEL_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), t=st.integers(1, 6),
           deltas=deltas_st)
    def test_grid_columns_equal_per_delta_loops_bitwise(self, seed, n, t, deltas):
        rng, A, R, y, pi, omega = random_panel(seed, n, t)
        here = (R[:, :t] == 1)[..., None]
        m1 = np.where(here, rng.normal(size=(n, t, len(deltas))), 0.0)
        m0 = np.where(here, rng.normal(size=(n, t, len(deltas))), 0.0)
        grid = np.array(deltas)
        phi = eif_from_arrays(A, R, y, pi, omega, m1, m0, grid)
        terms = eif_correction_terms(A, R, pi, omega, m1, m0, grid)
        W = ipw_weight_products(A, R, pi, omega, grid)
        assert phi.shape == W.shape == (n, len(deltas)) and terms.shape == m1.shape
        for j, delta in enumerate(deltas):
            args = (A, R, pi, omega, m1[..., j], m0[..., j], delta)
            want = reference_eif(A, R, y, pi, omega, m1[..., j], m0[..., j], delta)
            assert np.array_equal(phi[:, j], want)
            assert np.array_equal(eif_from_arrays(A, R, y, *args[2:]), want)
            want = reference_correction_terms(*args)
            assert np.array_equal(terms[..., j], want, equal_nan=True)
            assert np.array_equal(eif_correction_terms(*args), want, equal_nan=True)
            want = reference_weight_products(A, R, pi, omega, delta)
            assert np.array_equal(W[:, j], want)
            assert np.array_equal(ipw_weight_products(A, R, pi, omega, delta), want)

    @pytest.mark.parametrize("delta", [-0.5, -1.0, 0.0, np.nan, np.inf, np.array([0.5, np.nan]),
                                       np.array([])])
    def test_delta_not_finite_and_positive_rejected_at_every_entry_point(self, delta):
        rng, A, R, y, pi, omega = random_panel(6, 40, 3)
        m = rng.normal(size=(40, 3) + np.shape(delta))
        calls = (
            lambda: ipw_weight_products(A, R, pi, omega, delta),
            lambda: eif_from_arrays(A, R, y, pi, omega, m, m, delta),
            lambda: eif_correction_terms(A, R, pi, omega, m, m, delta),
            lambda: eif_single_period(1, 3.0, 1, 0.5, 1.0, 2.0, 0.0, delta),
        )
        for call in calls:
            with pytest.raises(ConfigError, match="delta must be finite and positive"):
                call()

    @KERNEL_SETTINGS
    @given(data=st.data(), n=st.integers(1, 20), t=st.integers(1, 6))
    def test_delta_one_without_dropout_returns_the_outcome(self, data, n, t):
        def values(lo, hi, shape):
            return data.draw(hnp.arrays(float, shape, elements=st.floats(lo, hi)))

        pi, m1, m0 = values(0.01, 0.99, (n, t)), values(-10, 10, (n, t)), values(-10, 10, (n, t))
        A = values(0, 1, (n, t)).round()
        y = values(-10, 10, n)
        R = np.ones((n, t + 1), dtype=np.int8)
        phi = eif_from_arrays(A, R, y, pi, np.ones((n, t)), m1, m0, 1.0)
        assert np.max(np.abs(phi - y)) <= 1e-12

    @KERNEL_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), t=st.integers(1, 6),
           deltas=deltas_st)
    def test_per_period_weight_ratio_within_delta_bounds(self, seed, n, t, deltas):
        _, A, R, _, pi, _ = random_panel(seed, n, t)
        omega = np.ones((n, t))
        grid = np.array(deltas)
        lo, hi = np.minimum(grid, 1 / grid), np.maximum(grid, 1 / grid)
        C_prev = np.ones((n, grid.size))
        for s in range(1, t + 1):
            C = ipw_weight_products(A[:, :s], R[:, : s + 1], pi[:, :s], omega[:, :s], grid)
            kept = R[:, s] == 1
            ratio = C[kept] / C_prev[kept]
            assert np.all(ratio >= lo * (1 - 1e-12)) and np.all(ratio <= hi * (1 + 1e-12))
            C_prev = C
