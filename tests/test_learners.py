import pickle
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oddshift import (
    ConfigError,
    DgpConfig,
    FittedModel,
    LearnerSpec,
    fit_learner,
    fit_missingness_sequence,
    simulate,
    split_folds,
)
from oddshift import learners
from oddshift.learners import OMEGA_FLOOR, PI_CLIP, _knn_neighbours, _standardize

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


@st.composite
def multi_target(draw):
    """Tie-heavy integer features (possibly none) and a (rows, D) target with repeated columns."""
    n = draw(st.integers(1, 40))
    nq = draw(st.integers(1, 30))
    p = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, p)).astype(float)
    Xq = rng.integers(0, 3, size=(nq, p)).astype(float)
    Y = rng.normal(size=(n, draw(st.integers(1, 4))))
    repeats = draw(st.lists(st.integers(0, Y.shape[1] - 1), max_size=3))
    Y = np.column_stack([Y] + [Y[:, j] for j in repeats])
    return X, Xq, Y[:, rng.permutation(Y.shape[1])], draw(st.integers(1, n))


@st.composite
def knn_blocks(draw):
    """Query counts around multiples of the kNN block, k possibly above n_train, D in {1, 3}."""
    n = draw(st.integers(1, 60))
    block = learners._KNN_BLOCK
    nq = draw(
        st.one_of(
            st.integers(0, 40),
            st.builds(lambda m, off: m * block + off, st.integers(1, 3), st.sampled_from([-1, 0, 1])),
        )
    )
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # tie-heavy integer features
        X = rng.integers(0, 3, size=(n, p)).astype(float)
        Xq = rng.integers(0, 3, size=(nq, p)).astype(float)
    else:
        X = rng.normal(size=(n, p))
        Xq = rng.normal(size=(nq, p))
    Y = rng.normal(size=(n, draw(st.sampled_from([1, 3]))))
    return X, Xq, Y, draw(st.integers(1, n + 5))


@st.composite
def binary_knn_blocks(draw):
    """Tie-heavy features, a {0,1} target (1-D or (rows, D)), maybe spoilt by one 0.5 or by -0.0."""
    n = draw(st.integers(1, 60))
    block = learners._KNN_BLOCK
    nq = draw(
        st.one_of(
            st.integers(0, 40),
            st.builds(lambda m, off: m * block + off, st.integers(1, 3), st.sampled_from([-1, 0, 1])),
        )
    )
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 3, size=(n, p)).astype(float)
    Xq = rng.integers(0, 3, size=(nq, p)).astype(float)
    shape = draw(st.sampled_from([(n,), (n, 1), (n, 3)]))
    Y = (rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.8, 1.0]))).astype(float)
    spoil = draw(st.sampled_from(["none", "half", "negative zero"]))
    if spoil == "half":
        Y.flat[rng.integers(Y.size)] = 0.5
    elif spoil == "negative zero":
        Y[Y == 0] = -0.0  # every 0 of the target: all-(-0.0) neighbourhoods are common
        Y.flat[rng.integers(Y.size)] = -0.0
    return X, Xq, Y, draw(st.integers(1, n + 5))


def blockwise_argsort_knn(X, Y, k, Xq):
    """``argsort_knn`` per query block, on the distances the model computes; Y is (n, D)."""
    Xs, mu, sd = _standardize(X)
    Q = (Xq - mu) / sd
    out = [np.empty((0, Y.shape[1]))]
    for lo in range(0, Q.shape[0], learners._KNN_BLOCK):
        q = Q[lo : lo + learners._KNN_BLOCK]
        d2 = np.sum(q**2, axis=1)[:, None] - 2.0 * q @ Xs.T + np.sum(Xs**2, axis=1)[None, :]
        out.append(np.column_stack([argsort_knn(d2, np.ascontiguousarray(y), k) for y in Y.T]))
    return np.vstack(out)


def unbuffered_knn_predict(X, Y, k, Xq):
    """Reference kNN predict that the buffered one must match bit for bit.

    Per query block: a fresh distance array, np.partition's copy, and the
    columns from a 2-D nonzero.  Y is (n, D); returns (q, D).
    """
    k = min(k, X.shape[0])
    Xs, mu, sd = _standardize(X)
    sq = np.sum(Xs**2, axis=1)
    Q = (Xq - mu) / sd
    out = np.empty((Q.shape[0], Y.shape[1]))
    for lo in range(0, Q.shape[0], learners._KNN_BLOCK):
        q = Q[lo : lo + learners._KNN_BLOCK]
        d2 = np.sum(q**2, axis=1)[:, None] - 2.0 * q @ Xs.T + sq[None, :]
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        chosen = d2 <= kth
        extra = np.count_nonzero(chosen, axis=1) - k
        over = np.flatnonzero(extra)
        if over.size:
            tie = d2[over] == kth[over]
            keep = np.count_nonzero(tie, axis=1) - extra[over]
            rank = np.cumsum(tie, axis=1, dtype=np.int32)
            chosen[over] &= ~tie | (rank <= keep[:, None])
        cols = np.nonzero(chosen)[1].reshape(-1, k)
        order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
        nbrs = np.take_along_axis(cols, order, axis=1)
        for j in range(Y.shape[1]):
            out[lo : lo + learners._KNN_BLOCK, j] = np.ascontiguousarray(Y[:, j])[nbrs].mean(axis=1)
    return out


def refuse_ordered_search(*args):
    """Stands in for ``learners._knn_neighbours`` where a {0,1} target must not need it."""
    raise AssertionError("ordered neighbour search")


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def ridge_one_column(X, y, lam, Xq):
    """The one-target ridge as it was before (rows, D) targets, kept as the reference."""
    Xs, mu, sd = _standardize(X)
    ybar = float(np.mean(y))
    G = Xs.T @ Xs
    G[np.diag_indices_from(G)] += lam + learners.RIDGE_JITTER
    beta = np.linalg.solve(G, Xs.T @ (y - ybar)) if X.shape[1] else np.empty(0)
    return ybar + ((Xq - mu) / sd) @ beta


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
        # the fitted logit at the origin and at each unit vector
        p = model.predict(np.vstack([np.zeros(2), np.eye(2)]))
        z = np.log(p / (1.0 - p))
        assert np.allclose(z[1:] - z[0], [1.0, -2.0], atol=0.2)
        assert abs(z[0] - 0.5) < 0.2

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
        nbrs = _knn_neighbours(d2, k, np.empty_like(d2), np.empty(d2.shape, bool))
        assert np.array_equal(nbrs, np.argsort(d2, axis=1, kind="stable")[:, :k])

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

    @KNN_SETTINGS
    @given(knn_blocks())
    def test_buffered_blocks_match_unbuffered_bitwise(self, case):
        X, Xq, Y, k = case
        model = fit_learner(LearnerSpec.knn(k), X, Y, "regression")
        assert np.array_equal(bits(model.predict(Xq)), bits(unbuffered_knn_predict(X, Y, k, Xq)))

    @KNN_SETTINGS
    @given(binary_knn_blocks())
    def test_binary_target_matches_ordered_mean_bitwise(self, case):
        # a clean {0,1} target is counted, a spoilt one averaged in order: both
        # must be the ordered mean's bits, for one target column and for D
        X, Xq, Y, k = case
        Y2 = Y.reshape(Y.shape[0], -1)
        pred = fit_learner(LearnerSpec.knn(k), X, Y, "regression").predict(Xq).reshape(-1, Y2.shape[1])
        assert np.array_equal(bits(pred), bits(unbuffered_knn_predict(X, Y2, k, Xq)))
        assert np.array_equal(bits(pred), bits(blockwise_argsort_knn(X, Y2, k, Xq)))

    def test_only_non_binary_targets_order_their_neighbours(self, monkeypatch):
        rng = np.random.default_rng(7)
        X = rng.integers(0, 3, size=(300, 3)).astype(float)
        Xq = rng.integers(0, 3, size=(270, 3)).astype(float)
        y = (rng.random(300) < 0.7).astype(float)
        targets = (y, np.column_stack([y, 1 - y]))
        counted = [fit_learner(LearnerSpec.knn(40), X, t, "probability").predict(Xq) for t in targets]
        monkeypatch.setattr(learners, "_knn_neighbours", refuse_ordered_search)
        for t, before in zip(targets, counted):
            after = fit_learner(LearnerSpec.knn(40), X, t, "probability").predict(Xq)
            assert np.array_equal(bits(after), bits(before))
        for spoilt in (np.where(y == 0, -0.0, y), np.where(np.arange(300) == 5, 0.5, y)):
            with pytest.raises(AssertionError, match="ordered neighbour search"):
                fit_learner(LearnerSpec.knn(40), X, spoilt, "regression").predict(Xq)

    def test_knn_retention_fit_never_orders_neighbours(self, monkeypatch):
        ds = simulate(DgpConfig(kind="dropout", n=600, T=3, u_l=1.0, seed=4))
        folds = split_folds(ds, 2, seed=1)
        spec = LearnerSpec.knn(30)
        before = fit_missingness_sequence(ds, folds, spec, exclude_fold=1).pred
        monkeypatch.setattr(learners, "_knn_neighbours", refuse_ordered_search)
        after = fit_missingness_sequence(ds, folds, spec, exclude_fold=1).pred
        assert np.array_equal(after, before, equal_nan=True)
        held = after[~np.isnan(after)]
        assert held.size and held.min() >= OMEGA_FLOOR and held.max() <= 1.0

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
        at0, at1 = model.predict(np.array([[0.0], [1.0]]))
        assert at1 - at0 == pytest.approx(2.0, abs=1e-8)
        assert at0 == pytest.approx(0.0, abs=1e-8)

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
    def test_oracle_is_not_fit(self):
        # an oracle reads the panel: fit_learner has no model to build for it
        spec = LearnerSpec.oracle(lambda ds, s, units, a: np.ones(units.size))
        with pytest.raises(ConfigError, match="oracle spec is not fit"):
            fit_learner(spec, np.ones((4, 1)), np.ones(4), "regression")

    def test_zero_predictor(self):
        # zero is an oracle handle: it reads only the unit count, and nothing fits it
        zero = LearnerSpec.zero()
        assert zero.kind == "oracle"
        units = np.arange(7)
        one = FittedModel("oracle", lambda q: zero.fn(None, 1, q, None), clip=(OMEGA_FLOOR, 1.0))
        assert np.all(one.predict(units) == OMEGA_FLOOR)
        grid = FittedModel("oracle", lambda q: zero.fn(None, 1, q, 1.0), columns=3)
        assert np.array_equal(grid.predict(units), np.zeros((7, 3)))
        with pytest.raises(ConfigError, match="oracle spec is not fit"):
            fit_learner(zero, np.ones((4, 2)), np.ones(4), "regression")

    def test_zero_spec_is_one_value(self):
        zero = LearnerSpec.from_config("zero")
        assert zero == LearnerSpec.zero()
        assert pickle.loads(pickle.dumps(zero)) == zero

    @pytest.mark.parametrize(
        "text,spec",
        [
            ("knn", LearnerSpec.knn(5)),
            ("knn:15", LearnerSpec.knn(15)),
            ("ridge", LearnerSpec.ridge(0.0)),
            ("ridge:0.25", LearnerSpec.ridge(0.25)),
            ("logistic", LearnerSpec.logistic()),
            ("logistic_irls", LearnerSpec.logistic()),
            ("zero", LearnerSpec.zero()),
        ],
    )
    def test_spec_strings_that_parse(self, text, spec):
        assert LearnerSpec.from_config(text) == spec

    @pytest.mark.parametrize("text", ["logistic:7", "logistic_irls:1", "zero:3"])
    def test_argument_to_a_learner_that_takes_none(self, text):
        name = text.partition(":")[0]
        with pytest.raises(ConfigError, match=f"learner '{name}' takes no argument"):
            LearnerSpec.from_config(text)

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
        for text in ("knn:", "ridge:"):  # an empty argument is not the default
            with pytest.raises(ConfigError, match="empty learner argument"):
                LearnerSpec.from_config(text)

    @pytest.mark.parametrize("k", [2.5, 3.0, np.float64(3.0), True, False, "3", None, 0, -2])
    def test_knn_needs_an_integer_k(self, k):
        with pytest.raises(ConfigError, match=re.escape(f"knn needs an integer k >= 1, got {k!r}")):
            LearnerSpec.knn(k)

    def test_knn_takes_a_numpy_integer(self):
        assert LearnerSpec.knn(np.int64(3)).k == 3

    @pytest.mark.parametrize(
        "text, message",
        [
            ("knn:0", "knn needs an integer k >= 1, got 0"),
            ("ridge:-1", "ridge needs a finite lam >= 0, got -1.0"),
            ("knn:2.5", "invalid literal for int"),
        ],
    )
    def test_bad_argument_keeps_the_spec_message(self, text, message):
        with pytest.raises(ConfigError, match=rf"^bad learner argument in '{text}': {message}"):
            LearnerSpec.from_config(text)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf"), -1e-300])
    def test_ridge_needs_a_finite_non_negative_lam(self, lam):
        with pytest.raises(ConfigError, match="ridge needs a finite lam >= 0"):
            LearnerSpec.ridge(lam)
        with pytest.raises(ConfigError, match="bad learner argument"):
            LearnerSpec.from_config(f"ridge:{lam!r}")


class TestTargetColumns:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(multi_target())
    def test_each_column_is_its_one_column_fit_bitwise(self, case):
        X, Xq, Y, k = case
        specs = (
            LearnerSpec.ridge(0.0),
            LearnerSpec.ridge(0.7),
            LearnerSpec.knn(k),
        )
        for spec in specs:
            together = fit_learner(spec, X, Y, "regression").predict(Xq)
            assert together.shape == (Xq.shape[0], Y.shape[1])
            for j in range(Y.shape[1]):
                alone = fit_learner(spec, X, Y[:, j], "regression").predict(Xq)
                assert np.array_equal(bits(together[:, j]), bits(alone)), (spec.kind, j)

    @settings(max_examples=60, deadline=None)
    @given(multi_target(), st.sampled_from([0.0, 0.3]))
    def test_one_dimensional_ridge_unchanged(self, case, lam):
        X, Xq, Y, _ = case
        model = fit_learner(LearnerSpec.ridge(lam), X, Y[:, 0], "regression")
        assert np.array_equal(bits(model.predict(Xq)), bits(ridge_one_column(X, Y[:, 0], lam, Xq)))

    def test_output_shapes(self):
        rng = np.random.default_rng(6)
        X, Xq = rng.normal(size=(20, 3)), rng.normal(size=(7, 3))
        y = rng.normal(size=20)
        y01 = (y > 0).astype(float)
        for spec in (LearnerSpec.ridge(0.1), LearnerSpec.knn(3)):
            one = fit_learner(spec, X, y, "regression")
            assert one.columns is None and one.predict(Xq).shape == (7,)
            assert fit_learner(spec, X, y[:, None], "regression").predict(Xq).shape == (7, 1)
            many = fit_learner(spec, X, np.column_stack([y, -y]), "regression")
            assert many.columns == 2 and many.predict(Xq).shape == (7, 2)
        assert fit_learner(LearnerSpec.logistic(), X, y01, "probability").predict(Xq).shape == (7,)
        # the ridge fit at the origin and at each unit vector, one target and two
        points = np.vstack([np.zeros(3), np.eye(3)])
        ridge = fit_learner(LearnerSpec.ridge(0.1), X, y, "regression").predict(points)
        ridge2 = fit_learner(LearnerSpec.ridge(0.1), X, np.column_stack([y, y]), "regression")
        assert ridge.shape == (4,)
        assert np.array_equal(ridge2.predict(points)[:, 1], ridge)

    def test_clip_applies_to_every_column(self):
        X = np.arange(8.0)[:, None]
        Y = np.column_stack([np.repeat([0.0, 1.0], 4), np.repeat([1.0, 0.0], 4)])
        model = fit_learner(LearnerSpec.ridge(0.0), X, Y, "probability", clip=(OMEGA_FLOOR, 1.0))
        preds = model.predict(np.array([[-100.0], [100.0]]))
        assert np.array_equal(preds, [[OMEGA_FLOOR, 1.0], [1.0, OMEGA_FLOOR]])

    def test_bad_target_shapes_rejected(self):
        X = np.ones((4, 1))
        with pytest.raises(ConfigError):
            fit_learner(LearnerSpec.ridge(0.0), X, np.ones((4, 0)), "regression")
        with pytest.raises(ConfigError):
            fit_learner(LearnerSpec.logistic(), X, np.ones((4, 2)), "probability")
        with pytest.raises(ConfigError):
            fit_learner(LearnerSpec.ridge(0.0), X, np.ones((3, 2)), "regression")
