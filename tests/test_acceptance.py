"""Acceptance suite: every reference criterion at its stated tolerance.

Each test prints one PASS/FAIL line, and every check must pass.  Two
checks once failed on every run.  Criterion 7's two-sided containment
failed because ``variance_ratio_bounds`` returned a lower bound that holds
only when every counterfactual second moment sits at b_u^2; it now
returns the bound proved under |Y| <= b_u alone.  Criterion 9's dropout
check asserted a window of 38-52% that the documented generator cannot
produce; it now compares the realized share with the exact share of that
generator, computed below by a separately coded recursion.
"""

import math
import time
import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.special import expit
from scipy.stats import norm

import oddshift as od
from oddshift.estimator import eif_correction_terms
from oddshift.learners import LearnerSpec
from oddshift.nuisance import NuisanceSpecs, fit_nuisances

Z975 = float(norm.ppf(0.975))


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# --------------------------------------------------------------------------
# criterion 1: closed-form identities of the odds shift
# --------------------------------------------------------------------------


def test_criterion_01_closed_form_identities():
    start = time.time()
    rng = np.random.default_rng(1001)
    pi = rng.uniform(0.0, 1.0, 10_000)
    delta = np.exp(rng.uniform(np.log(0.1), np.log(5.0), 10_000))
    ident = np.max(np.abs(od.incremental_propensity(pi, np.ones_like(pi)) - pi))
    inner = (pi > 0) & (pi < 1)
    q = od.incremental_propensity(pi[inner], delta[inner])
    # odds identity odds(q) = delta * odds(pi), checked on the probability
    # scale where it is well conditioned: q must equal do/(1 + do) with
    # o the odds of pi (forming odds of a float q near one loses digits)
    o = pi[inner] / (1.0 - pi[inner])
    q_from_odds = delta[inner] * o / (1.0 + delta[inner] * o)
    odds = np.max(np.abs(q - q_from_odds))
    elapsed = time.time() - start
    ok = ident < 1e-12 and odds < 1e-12 and elapsed < 1.0
    assert _report(1, ok, f"identity {ident:.2e}, odds {odds:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 2: single-period closed form equals the general recursion
# --------------------------------------------------------------------------


def test_criterion_02_single_period_equivalence():
    start = time.time()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        pi = rng.uniform(0.02, 0.98)
        omega = rng.uniform(0.1, 1.0)
        delta = float(np.exp(rng.uniform(np.log(0.1), np.log(5.0))))
        a = int(rng.random() < 0.5)
        r = int(rng.random() < 0.75)
        y = float(rng.normal(scale=3.0))
        mu1, mu0 = float(rng.normal()), float(rng.normal())
        general = od.eif_from_arrays(
            np.array([[float(a)]]), np.array([[1, r]]),
            np.array([y if r else np.nan]),
            np.array([[pi]]), np.array([[omega]]),
            np.array([[mu1]]), np.array([[mu0]]), delta,
        )[0]
        closed = od.eif_single_period(a, y if r else 0.0, r, pi, omega, mu1, mu0, delta)
        worst = max(worst, abs(general - closed))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 1.0
    assert _report(2, ok, f"max diff {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 3: full-retention reduction against an independent implementation
# --------------------------------------------------------------------------


def _no_dropout_reference(a_row, pi_row, m1_row, m0_row, y, delta):
    """Influence value with all retention factors deleted, coded separately."""
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


def test_criterion_03_no_dropout_reduction():
    start = time.time()
    rng = np.random.default_rng(1003)
    t = 5
    worst = 0.0
    for _ in range(1000):
        a = (rng.random(t) < 0.5).astype(float)
        pi = rng.uniform(0.02, 0.98, t)
        m1 = rng.normal(size=t, scale=2.0)
        m0 = rng.normal(size=t, scale=2.0)
        y = float(rng.normal(scale=3.0))
        delta = float(np.exp(rng.uniform(np.log(0.1), np.log(5.0))))
        general = od.eif_from_arrays(
            a[None, :], np.ones((1, t + 1), dtype=int), np.array([y]),
            pi[None, :], np.ones((1, t)), m1[None, :], m0[None, :], delta,
        )[0]
        worst = max(worst, abs(general - _no_dropout_reference(a, pi, m1, m0, y, delta)))
    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 5.0
    assert _report(3, ok, f"max diff {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criteria 4 and 5: unbiasedness at the truth, mean-zero corrections
# --------------------------------------------------------------------------

ORACLE_SETTINGS = [
    ("dropout", 1),
    ("dropout", 3),
    ("dropout", 5),
    ("trial", 3),
    ("observational", 3),
]


@pytest.fixture(scope="module")
def oracle_truth_runs():
    runs = []
    grid = od.default_grid()
    for idx, (kind, t) in enumerate(ORACLE_SETTINGS):
        cfg = od.DgpConfig(kind=kind, n=20_000, T=t, u_l=1.0, p=0.5, seed=4100 + idx)
        ds = od.simulate(cfg)
        specs = od.oracle_specs(cfg, t)
        est, eif = od.estimate_cross_fit(ds, K=2, seed=4200 + idx, specs=specs, grid=grid, t=t)
        truth, se = od.true_effect_curve(cfg, grid, t, draws=200_000, seed=4300 + idx)
        runs.append((cfg, ds, specs, est, truth, se))
    return grid, runs


def test_criterion_04_unbiasedness_at_truth(oracle_truth_runs):
    grid, runs = oracle_truth_runs
    worst = 0.0
    label = ""
    for cfg, ds, specs, est, truth, se in runs:
        combined = np.sqrt(se**2 + est.sigma_hat**2 / ds.n)
        z = np.max(np.abs(est.psi_hat - truth) / combined)
        if z > worst:
            worst, label = z, f"{cfg.kind} t={est.t}"
    ok = worst < 3.0
    assert _report(4, ok, f"max |z| {worst:.2f} at {label}, grid of {len(grid)}")


def test_criterion_05_mean_zero_corrections(oracle_truth_runs):
    grid, runs = oracle_truth_runs
    worst = 0.0
    for cfg, ds, specs, est, truth, se in runs:
        t = est.t
        for delta in (grid.values[0], 1.0, grid.values[-1]):
            eta = fit_nuisances(ds, None, specs, [delta], t, exclude_fold=None)
            terms = eif_correction_terms(
                ds.A[:, :t], ds.R[:, : t + 1], eta.pi, eta.omega,
                eta.m1[..., 0], eta.m0[..., 0], delta,
            )
            for s in range(t):
                col = terms[:, s]
                col = col[~np.isnan(col)]
                sd = col.std(ddof=1)
                if sd <= 1e-10:
                    # at delta = 1 with full retention the correction is
                    # pointwise zero for any nuisances (g + b = m(H, A)
                    # algebraically); only rounding noise remains
                    z = 0.0 if abs(col.mean()) <= 1e-10 else np.inf
                else:
                    z = abs(col.mean()) / (sd / np.sqrt(col.size))
                worst = max(worst, z)
    ok = worst < 3.0
    assert _report(5, ok, f"max |z| {worst:.2f} over settings x stages x deltas")


# --------------------------------------------------------------------------
# criterion 6: exact variance decomposition by full enumeration
# --------------------------------------------------------------------------


def _binary_atoms(a_bar):
    T = len(a_bar)
    weights = np.arange(1, T + 1, dtype=float)
    pr = 0.15 + 0.7 * float(np.dot(weights, a_bar)) / float(weights.sum())
    return np.array([0.0, 1.0]), np.array([1.0 - pr, pr])


def test_criterion_06_decomposition_exactness():
    start = time.time()
    worst = 0.0
    for T in (1, 2, 3, 4):
        for delta in (0.5, 1.0, 2.0, 5.0):
            for p in (0.3, 0.5, 0.7):
                worst = max(worst, od.decomposition_check(p, delta, T, _binary_atoms))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 1.0
    assert _report(6, ok, f"max discrepancy {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 7: analytic bound checks
# --------------------------------------------------------------------------


def test_criterion_07_two_sided_containment():
    """Two-sided containment of the exact variance ratio Var(shifted)/Var(fixed).

    The upper bound is C_T zeta B^T.  The lower bound C_T (B^T - p^T)
    holds only when every counterfactual second moment sits at the
    outcome bound b_u^2.  For the trial generator those moments are
    (10 + sqrt(k))^2 + 0.7737 while b_u = 12 + sqrt(T), so that formula
    overshot the exact ratio at 21 of these 24 points (delta=2, T=4:
    bound 0.0444, ratio 0.0359).  Under |Y| <= b_u alone the proved lower
    bound is max(0, (m2_min B^T - b_u^2 p^T) / E[(Y^arm)^2]), with m2_min
    the smallest counterfactual second moment; it reduces to the old
    formula when every second moment equals b_u^2.
    """
    start = time.time()
    failures = []
    for delta in (2.0, 5.0):
        for T in range(1, 13):
            spec = od.trial_moments(T, 0.5, delta)
            lower, upper = od.variance_ratio_bounds(spec)
            ratio = od.exact_variance(spec, "inc") / od.exact_variance(spec, "at")
            if not lower <= ratio <= upper:
                failures.append((delta, T))
    elapsed = time.time() - start
    ok = not failures and elapsed < 1.0
    assert _report(7, ok, f"violations at (delta,T)={failures[:4]}..., {elapsed:.2f}s")


def test_criterion_07_monte_carlo_lower_bound():
    """Simulated Var(shifted)/Var(fixed) versus the lower bound on that same ratio.

    Horizons where the fixed-regime weights vanish in every replicate
    (no fully treated unit is ever drawn) have a degenerate sample
    variance and are excluded, mirroring what a log-scale ratio plot can
    display.
    """
    cfg = od.DgpConfig(kind="trial", n=250, T=1, p=0.5, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        recs = od.relative_efficiency_mc(cfg, 5.0, range(1, 21), reps=100, seed=13)
    usable = [r for r in recs if r["ratio"] is not None]
    above = [r for r in usable if r["ratio"] >= r["lower_bound"]]
    frac = len(above) / len(usable)
    ok = frac >= 0.95 and len(usable) >= 10
    assert _report(
        7, ok, f"MC lower bound: {len(above)}/{len(usable)} usable points above"
    )


# --------------------------------------------------------------------------
# criterion 8: horizon-scan reference values
# --------------------------------------------------------------------------


def test_criterion_08_horizon_scan_values():
    start = time.time()
    scan_a = od.crossover_horizon_bound(2.5, 0.5, 0.05)
    scan_b = od.crossover_horizon_bound(5.0, 0.5, 0.05)
    # the strictly-beyond convention reports one less than the first
    # negative horizon of the scan expression
    ok = (scan_a, scan_b) == (7, 10) and (scan_a - 1, scan_b - 1) == (6, 9)
    elapsed = time.time() - start
    assert _report(
        8, ok, f"scan {scan_a},{scan_b}; strictly-beyond convention {scan_a - 1},{scan_b - 1}; {elapsed * 1e3:.2f}ms"
    )


# --------------------------------------------------------------------------
# criterion 9: benchmark ordering and dropout level
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_run():
    # K = 5 folds: a larger training share tightens the split estimators;
    # orderings verified stable across seeds 900-902 at this setting
    cfg = od.DgpConfig(kind="dropout", n=1000, T=10, u_l=1.0, seed=900)
    grid = od.DeltaGrid.log_spaced(0.1, 5.0, 9)
    specs = NuisanceSpecs(
        pi=LearnerSpec.logistic(),
        omega=LearnerSpec.knn(100),
        m=LearnerSpec.ridge(1e-6),
    )
    return od.run_benchmark(
        cfg, S=50, grid=grid, specs=specs, seed=900, K=5, truth_draws=200_000
    )


def test_criterion_09_benchmark_ordering(benchmark_run):
    res = benchmark_run
    ok = (
        res.rmse["cross_fit"] < res.rmse["ipw"]
        and res.rmse["cross_fit"] < res.rmse["no_censoring"]
    )
    assert _report(
        9,
        ok,
        "rmse cross_fit=%.6f ipw=%.6f no_censoring=%.6f plugin=%.6f"
        % (res.rmse["cross_fit"], res.rmse["ipw"], res.rmse["no_censoring"], res.rmse["plugin"]),
    )


def _exact_dropout_share(T, u_l):
    """P(R_T = 0) of the dropout generator, coded separately from it.

    Treatment at period t is Bernoulli(expit(U_t + 2(A_{t-1} - 1/2) +
    2(A_{t-2} - 1/2))), with lags before the study start dropped and
    U_t = 1'X_t ~ N(0, 2); retention at t is expit(C_0 + #treated
    through t) with C_0 ~ U[u_l, 5].  Carry, for each frailty node c, the
    survival-weighted mass of the state (A_{t-1}, A_{t-2}, #treated);
    integrate U_t by Gauss-Hermite and C_0 by Gauss-Legendre.
    """
    x, w = hermgauss(60)
    u, w_u = 2.0 * x, w / math.sqrt(math.pi)
    x, w = leggauss(64)
    c, w_c = u_l + 0.5 * (x + 1.0) * (5.0 - u_l), w / 2.0
    mass = np.zeros((2, 2, T + 1, c.size))  # [a_prev1, a_prev2, k, node]
    mass[0, 0, 0] = 1.0
    for t in range(1, T + 1):
        nxt = np.zeros_like(mass)
        for a1 in (0, 1):
            for a2 in (0, 1):
                shift = (2.0 * (a1 - 0.5) if t >= 2 else 0.0) + (
                    2.0 * (a2 - 0.5) if t >= 3 else 0.0
                )
                q = float(np.sum(w_u * expit(u + shift)))
                for k in range(t):
                    nxt[1, a1, k + 1] += q * mass[a1, a2, k] * expit(c + k + 1)
                    nxt[0, a1, k] += (1.0 - q) * mass[a1, a2, k] * expit(c + k)
        mass = nxt
    return 1.0 - float(np.sum(w_c * mass.sum(axis=(0, 1, 2))))


def test_criterion_09_dropout_fraction_window(benchmark_run):
    """Realized dropout share within 4 binomial SEs of the generator's exact share.

    This once asserted a window of [0.38, 0.52] at u_l = 1, T = 10.  The
    generator as documented (retention expit(C_0 + #treated so far),
    C_0 ~ U[u_l, 5]) fixes the share at 0.1788, and nothing in the repo
    is a source for the window.  The check still pins the dropout level:
    counting treatments one period late gives 0.228, u_l = 0.5 gives
    0.222 and u_l = 1.5 gives 0.140, all outside the tolerance.
    """
    res = benchmark_run
    exact = _exact_dropout_share(res.T, res.u_l)
    tol = 4.0 * math.sqrt(exact * (1.0 - exact) / (res.S * res.n))
    ok = abs(res.dropout_fraction - exact) <= tol
    assert _report(
        9, ok, f"realized dropout {res.dropout_fraction:.4f} vs exact {exact:.4f} +- {tol:.4f}"
    )


# --------------------------------------------------------------------------
# criterion 10: inference properties
# --------------------------------------------------------------------------


def _pair_from(values, grid):
    psi = values.mean(axis=0)
    sigma = np.sqrt(np.mean((values - psi) ** 2, axis=0))
    est = od.EffectEstimate(
        psi_hat=psi, sigma_hat=sigma, n=values.shape[0], t=1, kind="acc",
        grid=grid, per_fold=psi[None, :],
    )
    eif = od.EifMatrix(
        values=values, t=1, grid=grid,
        fold_by_row=np.zeros(values.shape[0], dtype=np.int64),
    )
    return eif, est


def test_criterion_10_inference_properties():
    start = time.time()
    rng = np.random.default_rng(1010)

    # 10a: c_alpha >= z in every run (varied shapes, seeds, levels)
    floor_ok = True
    for trial in range(6):
        D = int(rng.integers(1, 8))
        n = int(rng.integers(200, 800))
        values = rng.normal(size=(n, D)) * rng.uniform(0.5, 2.0, size=D)
        eif, est = _pair_from(values, od.DeltaGrid(values=tuple(np.linspace(1, 2, D))))
        band = od.uniform_band(eif, est, alpha=float(rng.uniform(0.02, 0.2)), B=300, seed=trial)
        floor_ok &= band.c_alpha >= norm.ppf(1.0 - band.alpha / 2.0)

    # 10b: single-point grid recovers the normal quantile at B = 10000
    values = rng.normal(2.0, 1.5, size=(4000, 1))
    eif, est = _pair_from(values, od.DeltaGrid(values=(1.0,)))
    band = od.uniform_band(eif, est, alpha=0.05, B=10_000, seed=77)
    quantile_gap = abs(band.c_alpha - Z975)

    # 10c: nesting in the level given shared draws
    values = rng.normal(size=(2000, 5)) + rng.normal(size=(2000, 1))
    eif, est = _pair_from(values, od.DeltaGrid(values=tuple(np.linspace(1, 2, 5))))
    wide = od.uniform_band(eif, est, alpha=0.05, B=1000, seed=3)
    narrow = od.uniform_band(eif, est, alpha=0.10, B=1000, seed=3)
    nested = bool(
        np.all(wide.uniform_lo <= narrow.uniform_lo)
        and np.all(wide.uniform_hi >= narrow.uniform_hi)
        and np.all(narrow.uniform_lo <= narrow.pointwise_lo + 1e-12)
    )

    # 10d: outputs identical across worker counts
    cfg = od.DgpConfig(kind="dropout", n=120, T=2, u_l=1.0, seed=1)
    grid = od.DeltaGrid(values=(0.5, 2.0))
    specs = NuisanceSpecs(
        pi=LearnerSpec.logistic(), omega=LearnerSpec.knn(30), m=LearnerSpec.ridge(0.01)
    )
    serial = od.run_benchmark(cfg, S=4, grid=grid, specs=specs, seed=6, truth_draws=4000, threads=1)
    pooled = od.run_benchmark(cfg, S=4, grid=grid, specs=specs, seed=6, truth_draws=4000, threads=2)
    threads_ok = serial.rmse == pooled.rmse and all(
        np.array_equal(serial.estimates[k], pooled.estimates[k]) for k in serial.estimates
    )

    elapsed = time.time() - start
    ok = floor_ok and quantile_gap < 0.05 and nested and threads_ok and elapsed < 60.0
    assert _report(
        10,
        ok,
        f"floor {floor_ok}, |c-z| {quantile_gap:.3f}, nested {nested}, "
        f"thread-invariant {threads_ok}, {elapsed:.1f}s",
    )
