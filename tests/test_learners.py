import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oddshift import ConfigError, LearnerSpec, fit_learner
from oddshift import learners
from oddshift.learners import OMEGA_FLOOR, PI_CLIP, _knn_mean, _standardize

KNN_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def tie_heavy_knn(draw, max_query):
    """Integer features in {0,1,2}, so many training points tie; any k in [1, n_train]."""
    n = draw(st.integers(1, 40))
    nq = draw(st.integers(1, max_query))
    p = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, p)).astype(float)
    Xq = rng.integers(0, 3, size=(nq, p)).astype(float)
    y = rng.normal(size=n)
    return X, Xq, y, k


def argsort_knn(d2, ys, k):
    return ys[np.argsort(d2, axis=1, kind="stable")[:, :k]].mean(1)


class TestLogistic:
    def test_balanced_no_signal(self):
        X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        y = np.array([1.0, 0.0, 0.0, 1.0])
        model = fit_learner(LearnerSpec.logistic(), X, y, "probability")
        assert np.max(np.abs(model.predict(X) - 0.5)) < 1e-6

    def test_degenerate_single_class(self):
        X = np.linspace(0, 1, 8)[:, None]
        model = fit_learner(LearnerSpec.logistic(), X, np.ones(8), "probability")
        assert np.all(model.predict(X) == 1.0 - PI_CLIP)
        model0 = fit_learner(LearnerSpec.logistic(), X, np.zeros(8), "probability")
        assert np.all(model0.predict(X) == PI_CLIP)

    def test_recovers_logit_slope(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4000, 2))
        p = 1.0 / (1.0 + np.exp(-(0.5 + X @ np.array([1.0, -2.0]))))
        y = (rng.random(4000) < p).astype(float)
        model = fit_learner(LearnerSpec.logistic(), X, y, "probability")
        assert model.converged
        assert np.allclose(model.coef_, [1.0, -2.0], atol=0.2)
        assert abs(model.intercept_ - 0.5) < 0.2

    def test_rejects_non_binary(self):
        with pytest.raises(ConfigError):
            fit_learner(LearnerSpec.logistic(), np.ones((3, 1)), np.array([0.0, 0.5, 1.0]), "probability")
        with pytest.raises(ConfigError):
            fit_learner(LearnerSpec.logistic(), np.ones((3, 1)), np.ones(3), "regression")

    def test_clip_range(self):
        X = np.array([[-50.0], [50.0]] * 6)
        y = np.array([0.0, 1.0] * 6)
        model = fit_learner(LearnerSpec.logistic(), X, y, "probability")
        preds = model.predict(np.array([[-500.0], [500.0]]))
        assert preds[0] >= PI_CLIP and preds[1] <= 1.0 - PI_CLIP


class TestKnn:
    def test_k1_self_target(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        model = fit_learner(LearnerSpec.knn(1), X, y, "regression")
        assert np.allclose(model.predict(X), y)

    def test_tie_break_lowest_index(self):
        X = np.zeros((3, 2))  # all points tie at distance zero
        y = np.array([5.0, 7.0, 9.0])
        model = fit_learner(LearnerSpec.knn(2), X, y, "regression")
        assert model.predict(np.zeros((1, 2)))[0] == pytest.approx(6.0)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        model = fit_learner(LearnerSpec.knn(7), X, y, "regression")
        preds = model.predict(rng.normal(size=(200, 4)))
        assert np.max(np.abs(preds)) <= np.max(np.abs(y)) + 1e-12

    def test_constant_targets(self):
        X = np.random.default_rng(4).normal(size=(15, 2))
        model = fit_learner(LearnerSpec.knn(4), X, np.full(15, 3.25), "regression")
        assert np.all(model.predict(X) == 3.25)

    @KNN_SETTINGS
    @given(tie_heavy_knn(max_query=60))
    def test_selection_matches_stable_argsort(self, case):
        # exact integer squared distances: ties are exact, not rounding luck
        X, Xq, y, k = case
        d2 = ((Xq[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(_knn_mean(d2, y, k), argsort_knn(d2, y, k))

    @KNN_SETTINGS
    @given(tie_heavy_knn(max_query=learners._KNN_BLOCK))
    def test_prediction_matches_stable_argsort(self, case):
        # one query block, so the model's distances are the reference's bit for bit
        X, Xq, y, k = case
        Xs, mu, sd = _standardize(X)
        Q = (Xq - mu) / sd
        d2 = np.sum(Q**2, axis=1)[:, None] - 2.0 * Q @ Xs.T + np.sum(Xs**2, axis=1)[None, :]
        model = fit_learner(LearnerSpec.knn(k), X, y, "regression")
        assert np.array_equal(model.predict(Xq), argsort_knn(d2, y, k))

    def test_blocks_cover_every_query_row(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        Xq = rng.normal(size=(23, 3))
        model = fit_learner(LearnerSpec.knn(6), X, y, "regression")
        whole = model.predict(Xq)
        monkeypatch.setattr(learners, "_KNN_BLOCK", 4)
        assert np.array_equal(model.predict(Xq), whole)


class TestRidge:
    def test_exact_linear_fit(self):
        x = np.linspace(-2, 2, 30)[:, None]
        y = 2.0 * x[:, 0]
        model = fit_learner(LearnerSpec.ridge(0.0), x, y, "regression")
        assert model.coef_[0] == pytest.approx(2.0, abs=1e-8)
        assert model.intercept_ == pytest.approx(0.0, abs=1e-8)

    def test_singular_system_resolved_by_jitter(self):
        X = np.column_stack([np.ones(10), np.ones(10)])  # perfectly collinear
        y = np.arange(10.0)
        model = fit_learner(LearnerSpec.ridge(0.0), X, y, "regression")
        assert np.all(np.isfinite(model.predict(X)))

    def test_constant_targets(self):
        X = np.random.default_rng(5).normal(size=(12, 3))
        model = fit_learner(LearnerSpec.ridge(0.5), X, np.full(12, -1.5), "regression")
        assert np.allclose(model.predict(X), -1.5)

    def test_probability_clipping(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit_learner(LearnerSpec.ridge(0.0), X, y, "probability", clip=(OMEGA_FLOOR, 1.0))
        preds = model.predict(np.array([[-100.0], [100.0]]))
        assert preds[0] == OMEGA_FLOOR and preds[1] == 1.0


class TestOracleAndZero:
    def test_oracle_passthrough(self):
        model = fit_learner(
            LearnerSpec.oracle(lambda F: F[:, 0] ** 2),
            np.empty((0, 1)),
            np.empty(0),
            "regression",
        )
        assert np.allclose(model.predict(np.array([[3.0], [4.0]])), [9.0, 16.0])

    def test_zero_predictor(self):
        model = fit_learner(LearnerSpec.zero(), np.ones((4, 2)), np.ones(4), "regression")
        assert np.all(model.predict(np.ones((7, 2))) == 0.0)

    def test_spec_parsing(self):
        assert LearnerSpec.from_config("knn:15").k == 15
        assert LearnerSpec.from_config("ridge:0.25").lam == 0.25
        assert LearnerSpec.from_config("logistic").kind == "logistic_irls"
        with pytest.raises(ConfigError):
            LearnerSpec.from_config("forest")
        with pytest.raises(ConfigError):
            LearnerSpec.knn(0)
        with pytest.raises(ConfigError):
            LearnerSpec.ridge(-1.0)
