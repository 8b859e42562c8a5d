import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from scipy.special import expit, logit
from scipy.stats import norm

from oddshift import (
    ConfigError,
    DeltaGrid,
    DgpConfig,
    exact_effect_curve,
    normalized_rmse,
    oracle_specs,
    relative_efficiency_mc,
    run_benchmark,
    simulate,
    true_effect_curve,
    true_propensities,
    write_long_csv,
)
from oddshift import simulation
from oddshift.estimator import ipw_weight_products
from oddshift.learners import LearnerSpec
from oddshift.nuisance import NuisanceSpecs
from oddshift.simulation import _ContinuationOracle, _prop_logit


def array_true_propensities(cfg, ds, t):
    """The structural propensities computed on the panel arrays directly."""
    out = np.full((ds.n, t), np.nan)
    for s in range(1, t + 1):
        alive = ds.R[:, s - 1] == 1
        if cfg.kind == "trial":
            out[alive, s - 1] = cfg.p
            continue
        u = ds.X[:, s - 1, :].sum(axis=1)
        a1 = ds.A[:, s - 2] if s >= 2 else np.zeros(ds.n)
        a2 = ds.A[:, s - 3] if s >= 3 else np.zeros(ds.n)
        lin = _prop_logit(
            np.where(alive, u, 0.0),
            np.where(alive, np.nan_to_num(a1), 0.0),
            np.where(alive, np.nan_to_num(a2), 0.0),
            s,
        )
        out[alive, s - 1] = expit(lin)[alive]
    return out


@pytest.mark.parametrize("seed", [-1, True, 2.0])
def test_seed_must_be_a_non_negative_integer(seed):
    cfg = DgpConfig(kind="trial", n=20, T=2, seed=0)
    grid = DeltaGrid(values=(1.0, 2.0))
    specs = NuisanceSpecs(pi=LearnerSpec.zero(), omega=LearnerSpec.zero(), m=LearnerSpec.zero())
    for call in (
        lambda: DgpConfig(kind="trial", n=20, T=2, seed=seed),
        lambda: true_effect_curve(cfg, grid, 2, draws=10, seed=seed),
        lambda: run_benchmark(cfg, S=1, grid=grid, specs=specs, seed=seed),
        lambda: relative_efficiency_mc(cfg, 2.0, [2], reps=2, seed=seed),
    ):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            call()


_TRIAL = DgpConfig(kind="trial", n=20, T=2, seed=0)
_ZERO_SPECS = NuisanceSpecs(pi=LearnerSpec.zero(), omega=LearnerSpec.zero(), m=LearnerSpec.zero())
# (call, message): counts, horizons, u_l and grids that the generators, truths and
# protocols take from their callers
UNUSABLE_INPUTS = {
    "n=2.5": (lambda: DgpConfig(kind="trial", n=2.5, T=3), "n must be an integer >= 1, got 2.5"),
    "T=2.0": (lambda: DgpConfig(kind="trial", n=5, T=2.0), "T must be an integer >= 1, got 2.0"),
    "n=True": (lambda: DgpConfig(kind="trial", n=True, T=3), "n must be an integer >= 1, got True"),
    "u_l=nan": (lambda: DgpConfig(kind="dropout", n=5, T=2, u_l=math.nan),
                "u_l must be finite and at most 5, got nan"),
    "u_l=-inf": (lambda: DgpConfig(kind="dropout", n=5, T=2, u_l=-math.inf),
                 "u_l must be finite and at most 5, got -inf"),
    "S=0": (lambda: run_benchmark(_TRIAL, S=0, grid=[1.0], specs=_ZERO_SPECS, seed=0),
            "S must be an integer >= 1, got 0"),
    "reps=1": (lambda: relative_efficiency_mc(_TRIAL, 2.0, [2], reps=1, seed=0),
               "reps must be an integer >= 2, got 1"),
    "reps=0": (lambda: relative_efficiency_mc(_TRIAL, 2.0, [2], reps=0, seed=0),
               "reps must be an integer >= 2, got 0"),
    "horizon 2.0": (lambda: relative_efficiency_mc(_TRIAL, 2.0, [1, 2.0], reps=2, seed=0),
                    "each horizon must be an integer >= 1, got 2.0"),
    "exact t=True": (lambda: exact_effect_curve(_TRIAL, [1.0], True),
                     "t must be an integer >= 1, got True"),
    "Monte Carlo t=2.0": (lambda: true_effect_curve(_TRIAL, [1.0], 2.0, draws=10),
                          "t must be an integer >= 1, got 2.0"),
    "exact []": (lambda: exact_effect_curve(_TRIAL, [], 2), "grid must be non-empty"),
    "exact [5, 0.1]": (lambda: exact_effect_curve(_TRIAL, [5.0, 0.1], 2),
                       "grid values must be strictly increasing"),
    "exact [1, 1]": (lambda: exact_effect_curve(_TRIAL, [1.0, 1.0], 2),
                     "grid values must be strictly increasing"),
    "Monte Carlo []": (lambda: true_effect_curve(_TRIAL, [], 2, draws=10),
                       "delta must be finite and positive"),
}


@pytest.mark.parametrize("case", UNUSABLE_INPUTS)
def test_unusable_input_raises_config_error(case):
    call, message = UNUSABLE_INPUTS[case]
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message


class TestGenerators:
    @pytest.mark.parametrize("kind", ["dropout", "trial", "observational"])
    def test_monotone_retention(self, kind):
        ds = simulate(DgpConfig(kind=kind, n=400, T=4, u_l=1.0, seed=2))
        assert np.all(ds.R[:, 0] == 1) and np.all(np.diff(ds.R, axis=1) <= 0)

    def test_trial_treated_fraction(self):
        ds = simulate(DgpConfig(kind="trial", n=5000, T=3, p=0.5, seed=3))
        for t in range(3):
            assert ds.A[:, t].mean() == pytest.approx(0.5, abs=0.02)

    def test_truncated_outcome_support_and_mean(self):
        ds = simulate(DgpConfig(kind="trial", n=20000, T=1, p=0.5, seed=4))
        y = ds.Y[:, 0]
        mean = 10.0 + np.sqrt(ds.A[:, 0])
        assert np.max(np.abs(y - mean)) <= 2.0
        resid = y - mean
        assert abs(resid.mean()) < 3 * resid.std() / np.sqrt(len(resid))

    def test_seed_reproducibility(self, tmp_path):
        cfg = DgpConfig(kind="dropout", n=200, T=3, u_l=1.0, seed=5)
        write_long_csv(simulate(cfg), tmp_path / "a.csv")
        write_long_csv(simulate(cfg), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seeds_differ(self):
        a = simulate(DgpConfig(kind="dropout", n=200, T=3, u_l=1.0, seed=6))
        b = simulate(DgpConfig(kind="dropout", n=200, T=3, u_l=1.0, seed=7))
        assert not np.array_equal(a.X, b.X, equal_nan=True)

    def test_outcome_only_for_retained(self):
        ds = simulate(DgpConfig(kind="dropout", n=500, T=4, u_l=1.0, seed=8))
        recorded = ~np.isnan(ds.Y[:, 3])
        assert np.array_equal(recorded, ds.R[:, 4] == 1)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DgpConfig(kind="other", n=10, T=2)
        with pytest.raises(ConfigError):
            DgpConfig(kind="trial", n=10, T=2, p=1.5)
        with pytest.raises(ConfigError):
            DgpConfig(kind="dropout", n=10, T=2, u_l=6.0)


class TestTruePropensities:
    @pytest.mark.parametrize("kind", ["dropout", "trial", "observational"])
    def test_equals_array_version_bitwise(self, kind):
        cfg = DgpConfig(kind=kind, n=500, T=5, u_l=1.0, p=0.3, seed=4)
        ds = simulate(cfg)
        for t in (1, 2, 5):
            pi = true_propensities(cfg, ds, t)
            assert np.array_equal(pi, array_true_propensities(cfg, ds, t), equal_nan=True)
        if kind == "dropout":
            assert np.isnan(pi).any()


def test_e_abs_shifted_bitwise_scipy_stats_norm():
    v = np.concatenate(
        [[0.0, -0.0, 40.0, -40.0, 1e-300, -1e-300], np.linspace(-40.0, 40.0, 4001),
         np.random.default_rng(0).normal(0.0, 10.0, 4000)]
    )
    for sigma2 in (2.0, 0.7):
        sd = math.sqrt(sigma2)
        reference = sd * math.sqrt(2.0 / math.pi) * np.exp(-(v**2) / (2.0 * sigma2)) + v * (
            2.0 * norm.cdf(v / sd) - 1.0
        )
        got = simulation._e_abs_shifted(v, sigma2)
        assert np.array_equal(got, reference)
        assert np.array_equal(np.signbit(got), np.signbit(reference))
        assert simulation._e_abs_shifted(-0.0, sigma2) == reference[1]


class TestExactTruth:
    GRID = DeltaGrid.log_spaced(0.1, 5.0, 5)

    @pytest.mark.parametrize("kind", ["dropout", "observational", "trial"])
    def test_agrees_with_monte_carlo(self, kind):
        # the exact curve carries no error, so the pooled SE is the Monte Carlo one
        cfg = DgpConfig(kind=kind, n=10, T=10, u_l=1.0, p=0.3)
        for t in (1, 2, 3, 10):
            exact = exact_effect_curve(cfg, self.GRID, t)
            psi, se = true_effect_curve(cfg, self.GRID, t, draws=200_000, seed=t)
            assert exact.shape == (len(self.GRID),)
            assert np.all(np.abs(exact - psi) < 4.0 * se), (t, (exact - psi) / se)

    @pytest.mark.parametrize("t", [1, 2, 5, 12])
    def test_trial_limits(self, t):
        cfg = DgpConfig(kind="trial", n=10, T=12, p=0.3)
        never, always = exact_effect_curve(cfg, [1e-12, 1e12], t)
        assert never == pytest.approx(10.0, abs=1e-9)
        assert always == pytest.approx(10.0 + math.sqrt(t), abs=1e-9)

    @pytest.mark.parametrize("t", [1, 2, 5])
    def test_covariate_limits(self, t):
        # E|1'X_t + 1'X_{t-1}| is E|N(0,2)| at t=1 and E|N(0,4)| after
        c_abs = 2.0 / math.sqrt(math.pi) if t == 1 else 2.0 * math.sqrt(2.0 / math.pi)
        never, always = exact_effect_curve(DgpConfig(kind="dropout", n=10, T=5), [1e-12, 1e12], t)
        assert never == pytest.approx(10.0 + c_abs, abs=1e-8)
        assert always == pytest.approx(10.0 + min(t, 2) + c_abs, abs=1e-8)

    @pytest.mark.parametrize("t", [3, 4, 10])
    def test_forward_recursion_equals_backward_tables(self, t):
        # collapsing the continuation oracle's stage-1 table over A_1 gives psi_t
        deltas = tuple(self.GRID.values)
        oracle = _ContinuationOracle(t, deltas)
        q1 = oracle._qbar[1, 0, 0]
        backward = q1 * oracle._tables[1][1, 0] + (1.0 - q1) * oracle._tables[1][0, 0]
        forward = exact_effect_curve(DgpConfig(kind="observational", n=10, T=t), deltas, t)
        assert np.allclose(forward, backward, rtol=0.0, atol=1e-12)

    def test_horizon_checked(self):
        cfg = DgpConfig(kind="trial", n=10, T=3)
        for t in (0, 4):
            with pytest.raises(ConfigError):
                exact_effect_curve(cfg, [1.0], t)

    def test_benchmark_runs_no_monte_carlo(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_benchmark drew a Monte Carlo truth")

        monkeypatch.setattr(simulation, "true_effect_curve", fail)
        cfg = DgpConfig(kind="dropout", n=120, T=2, u_l=1.0, seed=1)
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.knn(30), m=LearnerSpec.ridge(0.01)
        )
        res = run_benchmark(cfg, S=1, grid=self.GRID, specs=specs, seed=4, truth_draws=10)
        assert np.array_equal(res.truths, exact_effect_curve(cfg, self.GRID, 2))
        assert np.array_equal(res.truth_se, np.zeros(len(self.GRID)))


def per_delta_truth(cfg, delta, t, draws, seed):
    """The Monte Carlo truth for one delta, written with whole-length arrays only."""
    rng = np.random.default_rng(seed)
    lag1, lag2 = np.zeros(draws), np.zeros(draws)
    count = np.zeros(draws)
    u_prev = u_cur = np.zeros(draws)
    for s in range(1, t + 1):
        if cfg.kind != "trial":
            u_prev, u_cur = u_cur, math.sqrt(2.0) * rng.standard_normal(draws)
        unif = rng.random(draws)
        logistic = np.log(unif) - np.log1p(-unif)
        lin = logit(cfg.p) if cfg.kind == "trial" else _prop_logit(u_cur, lag1, lag2, s)
        lag1, lag2 = (logistic < np.log(delta) + lin).astype(float), lag1
        count += lag1
    if cfg.kind == "trial":
        vals = 10.0 + np.sqrt(count)
    else:
        vals = 10.0 + lag1 + lag2 + np.abs(u_cur + u_prev)
    return vals.mean(), vals.std(ddof=1) / math.sqrt(draws)


class TestTruth:
    @pytest.mark.parametrize("kind", ["trial", "dropout"])
    @pytest.mark.parametrize("t", [0, -1, 4])
    def test_horizon_outside_the_periods_rejected_as_by_the_exact_truth(self, kind, t):
        cfg = DgpConfig(kind=kind, n=10, T=3, p=0.5, seed=0)
        for truth in (true_effect_curve, exact_effect_curve):
            with pytest.raises(ConfigError) as info:
                truth(cfg, [1.0, 2.0], t)
            assert str(info.value) == f"horizon t={t} must lie in 1..3"

    def test_large_delta_forces_treatment(self):
        cfg = DgpConfig(kind="trial", n=10, T=4, p=0.5, seed=0)
        psi, se = true_effect_curve(cfg, [1e6], 4, draws=100_000, seed=1)
        assert abs(psi[0] - 12.0) < 3 * se[0] + 1e-3

    def test_delta_one_matches_observational_mean(self):
        cfg = DgpConfig(kind="observational", n=40000, T=3, seed=9)
        ds = simulate(cfg)
        psi, se = true_effect_curve(cfg, [1.0], 3, draws=200_000, seed=2)
        y = ds.Y[:, 2]
        combined = np.sqrt(se[0] ** 2 + y.var() / ds.n)
        assert abs(psi[0] - y.mean()) < 3 * combined

    def test_monotone_in_delta_for_trial(self):
        cfg = DgpConfig(kind="trial", n=10, T=3, p=0.5, seed=0)
        grid = DeltaGrid.log_spaced(0.1, 5.0, 9)
        psi, _ = true_effect_curve(cfg, grid, 3, draws=150_000, seed=3)
        assert np.all(np.diff(psi) > 0)

    @pytest.mark.parametrize("draws", [1, 0, -5, 2.5, 100.0, True, "100"])
    def test_draws_below_two_or_not_an_integer_rejected_before_any_draw(self, monkeypatch, draws):
        def no_rng(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        cfg = DgpConfig(kind="dropout", n=10, T=3)
        with pytest.raises(ConfigError) as info:
            true_effect_curve(cfg, [1.0], 3, draws=draws)
        assert str(info.value) == f"draws must be an integer >= 2, got {draws!r}"

    @pytest.mark.parametrize("kind", ["dropout", "observational", "trial"])
    def test_value_does_not_depend_on_the_rest_of_the_grid(self, kind):
        cfg = DgpConfig(kind=kind, n=10, T=4, p=0.3)
        grid = [0.1, 0.5, 1.0, 2.0, 5.0]
        psi, se = true_effect_curve(cfg, grid, 4, draws=5000, seed=6)
        for j, delta in enumerate(grid):
            alone = true_effect_curve(cfg, [delta], 4, draws=5000, seed=6)
            assert (alone[0][0], alone[1][0]) == (psi[j], se[j])
        for order in ([4, 3, 2, 1, 0], [3, 0, 3, 3]):  # reversed, with duplicates
            got = true_effect_curve(cfg, [grid[j] for j in order], 4, draws=5000, seed=6)
            assert np.array_equal(got[0], psi[order]) and np.array_equal(got[1], se[order])

    @pytest.mark.parametrize("kind", ["dropout", "observational", "trial"])
    def test_value_does_not_depend_on_the_draw_block(self, monkeypatch, kind):
        cfg = DgpConfig(kind=kind, n=10, T=4, p=0.3)
        grid = [0.1, 0.5, 1.0, 2.0, 5.0, 0.5]
        want = true_effect_curve(cfg, grid, 4, draws=1000, seed=5)
        for block in (3, 7):  # 1000 draws is a multiple of neither
            monkeypatch.setattr(simulation, "_TRUTH_BLOCK", block)
            got = true_effect_curve(cfg, grid, 4, draws=1000, seed=5)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("kind", ["dropout", "observational", "trial"])
    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_blocked_decisions_equal_the_per_delta_loop_bitwise(self, kind, t):
        cfg = DgpConfig(kind=kind, n=10, T=4, p=0.3)
        grid = [0.1, 0.5, 1.0, 2.0, 5.0]
        psi, se = true_effect_curve(cfg, grid, t, draws=5001, seed=9)
        for j, delta in enumerate(grid):
            want = per_delta_truth(cfg, delta, t, draws=5001, seed=9)
            assert (psi[j], se[j]) == want

    def test_trial_peak_memory_below_the_covariate_kinds(self):
        """The trial keeps one (D, draws) decision buffer, the covariate kinds two.

        ``true_effect_curve`` loads no module on its first call, so only its
        own allocations are traced.
        """
        grid = np.geomspace(0.1, 10.0, 25)
        peaks = {}
        for kind in ("trial", "observational"):
            tracemalloc.start()
            try:
                true_effect_curve(DgpConfig(kind=kind, n=10, T=3), grid, 3, draws=200_000, seed=1)
                peaks[kind] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["trial"] < peaks["observational"]

    def test_trial_curve_non_decreasing_on_a_dense_grid(self):
        cfg = DgpConfig(kind="trial", n=10, T=3, p=0.5)
        grid = DeltaGrid.log_spaced(0.8, 1.25, 50)
        psi, _ = true_effect_curve(cfg, grid, 3, draws=20_000, seed=3)
        assert np.all(np.diff(psi) >= 0)

    @pytest.mark.parametrize("kind", ["dropout", "observational", "trial"])
    @pytest.mark.parametrize("size", [1, 7, 25])
    def test_one_generator_and_one_draw_per_period_whatever_the_grid_size(
        self, monkeypatch, kind, size
    ):
        made, calls = [], []

        class Counting:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    calls.append((name, args, kwargs))
                    return getattr(self._rng, name)(*args, **kwargs)

                return draw

        def counting_rng(seed, real=np.random.default_rng):
            made.append(seed)
            return Counting(real(seed))

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        cfg = DgpConfig(kind=kind, n=10, T=5, p=0.3)
        true_effect_curve(cfg, np.geomspace(0.1, 5.0, size), 5, draws=1000, seed=8)
        assert made == [8]
        per_period = [("random", (1000,), {})]
        if kind != "trial":
            per_period.insert(0, ("standard_normal", (1000,), {}))
        assert calls == per_period * 5


class TestNormalizedRmse:
    def test_zero_error(self):
        assert normalized_rmse(np.full((3, 2), 1.5), np.array([1.5, 1.5]), 1.5) == 0.0

    def test_single_cell(self):
        assert normalized_rmse(np.array([[1.1]]), np.array([1.0]), 1.0) == pytest.approx(0.01)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        est = rng.normal(10.0, 1.0, size=(4, 3))
        truth = rng.normal(10.0, 1.0, size=3)
        base = normalized_rmse(est, truth, truth.mean())
        scaled = normalized_rmse(3.0 * est, 3.0 * truth, 3.0 * truth.mean())
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ConfigError):
            normalized_rmse(np.array([[1.0]]), np.array([1.0]), 0.0)


class TestBenchmark:
    def test_small_run_completes_and_is_deterministic(self):
        cfg = DgpConfig(kind="dropout", n=120, T=2, u_l=1.0, seed=1)
        grid = DeltaGrid(values=(0.5, 2.0))
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.knn(30), m=LearnerSpec.ridge(0.01)
        )
        a = run_benchmark(cfg, S=2, grid=grid, specs=specs, seed=4, truth_draws=5000)
        b = run_benchmark(cfg, S=2, grid=grid, specs=specs, seed=4, truth_draws=5000)
        assert a.rmse == b.rmse
        assert set(a.rmse) == {"cross_fit", "plugin", "ipw", "no_censoring"}
        assert all(np.isfinite(v) for v in a.rmse.values())
        assert 0.0 <= a.dropout_fraction <= 1.0

    def test_summary_is_json_ready(self):
        cfg = DgpConfig(kind="trial", n=100, T=2, p=0.5, seed=2)
        grid = DeltaGrid(values=(1.0, 2.0))
        specs = NuisanceSpecs(
            pi=LearnerSpec.logistic(), omega=LearnerSpec.logistic(), m=LearnerSpec.ridge(0.01)
        )
        res = run_benchmark(cfg, S=1, grid=grid, specs=specs, seed=3, truth_draws=2000)
        import json

        assert json.loads(json.dumps(res.summary()))["S"] == 1

    def test_unpicklable_specs_rejected_before_the_pool(self):
        # a lambda oracle is a local function, which a process pool cannot ship
        cfg = DgpConfig(kind="trial", n=100, T=2, p=0.5, seed=2)
        grid = DeltaGrid(values=(1.0, 2.0))
        specs = replace(oracle_specs(cfg, 2), omega=LearnerSpec.oracle(lambda ds, s, units, a: np.ones(units.size)))
        with pytest.raises(ConfigError, match="picklable"):
            run_benchmark(cfg, S=2, grid=grid, specs=specs, seed=3, threads=2)

    @pytest.mark.parametrize("threads", [0, -3, True, 2.5])
    def test_threads_must_be_a_positive_integer(self, threads, monkeypatch):
        cfg = DgpConfig(kind="trial", n=100, T=2, p=0.5, seed=2)
        monkeypatch.setattr(simulation, "exact_effect_curve", lambda *a: pytest.fail("work began"))
        with pytest.raises(ConfigError, match=r"threads must be an integer >= 1"):
            run_benchmark(cfg, S=2, grid=(1.0, 2.0), specs=oracle_specs(cfg, 2), seed=3,
                          threads=threads)

    @pytest.mark.parametrize("kind", ["dropout", "trial"])
    def test_oracle_specs_run_in_the_pool(self, kind):
        cfg = DgpConfig(kind=kind, n=150, T=3, seed=5)
        grid = DeltaGrid(values=(0.5, 2.0))
        runs = [
            run_benchmark(cfg, S=2, grid=grid, specs=oracle_specs(cfg, 3), seed=8, threads=w)
            for w in (1, 2)
        ]
        assert runs[0].rmse == runs[1].rmse
        for k, serial in runs[0].estimates.items():
            assert np.array_equal(serial, runs[1].estimates[k]), k


class TestRelativeEfficiency:
    def test_delta_one_weights_are_unity(self):
        cfg = DgpConfig(kind="trial", n=300, T=2, p=0.5, seed=3)
        recs = relative_efficiency_mc(cfg, 1.0, [2], reps=40, seed=5)
        ds_vars = []
        for r in range(40):
            from oddshift.simulation import _derived_seed
            from dataclasses import replace

            ds = simulate(replace(cfg, T=2, seed=_derived_seed(5, 2, r)))
            ds_vars.append(ds.Y[:, 1].mean())
        assert recs[0]["var_incremental"] == pytest.approx(np.var(ds_vars, ddof=1), rel=1e-9)

    def test_bounds_attached_for_trial(self):
        cfg = DgpConfig(kind="trial", n=200, T=2, p=0.5, seed=6)
        recs = relative_efficiency_mc(cfg, 5.0, [1, 2, 3], reps=30, seed=7)
        assert all("lower_bound" in r for r in recs)
        assert all(r["lower_bound"] < r["upper_bound"] for r in recs)

    def test_degenerate_points_excluded(self):
        cfg = DgpConfig(kind="trial", n=40, T=2, p=0.5, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            recs = relative_efficiency_mc(cfg, 5.0, [18], reps=20, seed=9)
        assert recs[0]["ratio"] is None

    @pytest.mark.parametrize("kind", ["trial", "observational"])
    def test_shifted_weights_are_the_ipw_kernel_bitwise(self, kind):
        # the per-period product the Monte Carlo used before it called the shared kernel
        for t, delta in itertools.product((1, 2, 5, 12, 20), (0.2, 2.0, 5.0)):
            cfg = DgpConfig(kind=kind, n=200, T=t, p=0.5, seed=t)
            ds = simulate(cfg)
            pi = true_propensities(cfg, ds, t)
            A = ds.A[:, :t]
            product = np.prod((delta * A + 1.0 - A) / (delta * pi + 1.0 - pi), axis=1)
            kernel = ipw_weight_products(A, ds.R[:, : t + 1], pi, np.ones_like(pi), delta)
            assert np.array_equal(product, kernel), (t, delta)

    def test_rejects_dropout_generator(self):
        with pytest.raises(ConfigError):
            relative_efficiency_mc(
                DgpConfig(kind="dropout", n=10, T=2, u_l=1.0, seed=0), 2.0, [1], 5, 0
            )
