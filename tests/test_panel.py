import json
import re

import numpy as np
import pytest

from oddshift import (
    PanelDataError,
    ConfigError,
    DgpConfig,
    PanelDataset,
    Trajectory,
    history_at,
    load_long_csv,
    simulate,
    split_folds,
    validate_monotonicity,
    write_long_csv,
)
from oddshift.panel import retention_violations, history_features


def make_traj(sid, retention, x, a, y):
    return Trajectory(
        subject_id=sid,
        covariates=tuple(x),
        treatments=tuple(a),
        outcomes=tuple(y),
        retention=tuple(retention),
    )


def full_csv(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoader:
    def test_fully_observed(self, tmp_path):
        text = (
            "id,time,x1,x2,a,y,r\n"
            "s1,1,0.1,0.2,1,,1\n"
            "s1,2,0.3,0.4,0,5.0,1\n"
            "s2,1,1.0,1.1,0,,1\n"
            "s2,2,1.2,1.3,1,6.5,1\n"
            "s3,1,2.0,2.1,1,,1\n"
            "s3,2,2.2,2.3,1,7.0,1\n"
        )
        ds = load_long_csv(full_csv(tmp_path, text))
        assert (ds.n, ds.T, ds.d) == (3, 2, 2)
        assert ds.outcome_times == (2,)
        assert np.all(ds.R == 1)

    def test_absent_row_is_dropout(self, tmp_path):
        text = (
            "id,time,x1,a,y,r\n"
            "s1,1,0.5,1,,1\n"
            "s1,2,0.6,0,3.0,1\n"
            "s2,1,0.7,0,,1\n"
        )
        ds = load_long_csv(full_csv(tmp_path, text))
        tr = ds.trajectories[1]
        assert tr.retention == (1, 0, 0)
        assert tr.outcomes == (None, None)
        assert tr.covariates[1] is None

    def test_nonmonotone_rejected(self, tmp_path):
        text = (
            "id,time,x1,a,y,r\n"
            "s1,1,0.5,1,,1\n"
            "s1,2,,,,0\n"
            "s1,3,0.6,0,1.0,1\n"
        )
        with pytest.raises(PanelDataError, match="non-monotone"):
            load_long_csv(full_csv(tmp_path, text))

    def test_duplicate_id_time(self, tmp_path):
        text = "id,time,x1,a,y,r\ns1,1,0.5,1,,1\ns1,1,0.5,1,,1\n"
        with pytest.raises(PanelDataError, match="duplicate"):
            load_long_csv(full_csv(tmp_path, text))

    def test_non_binary_treatment(self, tmp_path):
        text = "id,time,x1,a,y,r\ns1,1,0.5,2,,1\n"
        with pytest.raises(PanelDataError, match="non-binary"):
            load_long_csv(full_csv(tmp_path, text))

    def test_malformed_row_reports_line(self, tmp_path):
        text = "id,time,x1,a,y,r\ns1,1,0.5,1,,1\ns2,1,0.5,1,,1,9\n"
        with pytest.raises(PanelDataError, match="line 3"):
            load_long_csv(full_csv(tmp_path, text))

    def test_missing_r_column(self, tmp_path):
        text = "id,time,x1,a,y\ns1,1,0.5,1,\n"
        with pytest.raises(PanelDataError):
            load_long_csv(full_csv(tmp_path, text))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("s2,1,0.5,1,abc,1", "line 3: bad outcome value 'abc'"),
            ("s2,1,0.5,1,inf,1", "line 3: non-finite outcome value 'inf'"),
            ("s2,1,0.5,1,nan,1", "line 3: non-finite outcome value 'nan'"),
            ("s2,1,-inf,1,1.0,1", "line 3: non-finite covariate value '-inf'"),
            ("s2,1,NaN,1,1.0,1", "line 3: non-finite covariate value 'NaN'"),
            ("s2,1,x,1,1.0,1", "line 3: bad covariate value 'x'"),
        ],
    )
    def test_bad_number_reports_line(self, tmp_path, row, message):
        text = "id,time,x1,a,y,r\ns1,1,0.5,1,1.0,1\n" + row + "\n"
        with pytest.raises(PanelDataError, match=re.escape(message)):
            load_long_csv(full_csv(tmp_path, text))

    def test_empty_outcome_is_missing(self, tmp_path):
        text = "id,time,x1,a,y,r\ns1,1,0.5,1,,1\ns1,2,0.5,0,2.0,1\n"
        ds = load_long_csv(full_csv(tmp_path, text))
        assert np.isnan(ds.Y[0, 0]) and ds.Y[0, 1] == 2.0

    def test_round_trip(self, tmp_path):
        text = (
            "id,time,x1,a,y,r\n"
            "u1,1,0.25,1,,1\n"
            "u1,2,0.5,0,3.25,1\n"
            "u2,1,-1.5,0,,1\n"
        )
        ds = load_long_csv(full_csv(tmp_path, text))
        out = tmp_path / "copy.csv"
        write_long_csv(ds, out)
        ds2 = load_long_csv(out, n_periods=ds.T)
        assert ds2.trajectories == ds.trajectories
        meta = json.loads((tmp_path / "copy.csv.meta.json").read_text())
        assert meta["n"] == 2 and meta["n_periods"] == 2 and meta["d"] == 1
        assert len(meta["sha256"]) == 64

    def test_sidecar_supplies_horizon(self, tmp_path):
        ds = PanelDataset(
            [
                make_traj("a", (1, 1, 0), [(0.0,), (0.5,)], [1, 0], [None, None]),
                make_traj("b", (1, 0, 0), [(1.0,), None], [0, None], [None, None]),
            ]
        )
        out = tmp_path / "p.csv"
        write_long_csv(ds, out)
        # everyone left before recording an outcome at t=2; sidecar keeps T=2
        assert load_long_csv(out).T == 2

    def test_stale_sidecar_rejected(self, tmp_path):
        out = tmp_path / "p.csv"
        write_long_csv(simulate(DgpConfig(kind="dropout", n=50, T=3, u_l=1.0, seed=1)), out)
        # a longer panel written over the file, its old sidecar left in place
        write_long_csv(
            simulate(DgpConfig(kind="dropout", n=50, T=6, u_l=1.0, seed=2)), out, sidecar=False
        )
        with pytest.raises(PanelDataError, match=re.escape("p.csv.meta.json: stale sidecar")):
            load_long_csv(out)
        assert load_long_csv(out, n_periods=6).T == 6


class TestValidation:
    def test_all_retained_empty_report(self):
        ds = PanelDataset(
            [make_traj("a", (1, 1, 1), [(0.0,), (1.0,)], [1, 0], [None, 2.0])]
        )
        assert validate_monotonicity(ds) == []

    def test_legal_dropout_empty_report(self):
        assert retention_violations((1, 1, 0, 0)) == []

    def test_violation_reported_at_reentry(self):
        assert retention_violations((1, 0, 1, 0)) == [3]
        tr = make_traj("bad", (1, 0, 1, 0), [(0.0,), None, (1.0,)], [1, None, 0], [None] * 3)
        ds = PanelDataset([tr], validate=False)
        assert validate_monotonicity(ds) == [("bad", 3)]


class TestFolds:
    @pytest.fixture
    def ds10(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 2, 1))
        A = rng.integers(0, 2, size=(10, 2)).astype(float)
        Y = np.full((10, 2), np.nan)
        Y[:, 1] = rng.normal(size=10)
        R = np.ones((10, 3), dtype=np.int8)
        return PanelDataset.from_arrays(X, A, Y, R)

    def test_balanced_split(self, ds10):
        folds = split_folds(ds10, 2, seed=1)
        sizes = [int(np.sum(folds.by_index == k)) for k in (1, 2)]
        assert sorted(sizes) == [5, 5]

    def test_near_balanced_split(self, ds10):
        sub = PanelDataset(ds10.trajectories[:5])
        folds = split_folds(sub, 2, seed=1)
        sizes = sorted(int(np.sum(folds.by_index == k)) for k in (1, 2))
        assert sizes == [2, 3]

    def test_deterministic(self, ds10):
        a = split_folds(ds10, 3, seed=7)
        b = split_folds(ds10, 3, seed=7)
        assert np.array_equal(a.by_index, b.by_index)

    def test_partition(self, ds10):
        folds = split_folds(ds10, 3, seed=5)
        assert folds.by_index.shape == (ds10.n,)
        assert np.all((folds.by_index >= 1) & (folds.by_index <= 3))

    def test_bad_K(self, ds10):
        with pytest.raises(ConfigError):
            split_folds(ds10, 1, seed=0)
        with pytest.raises(ConfigError):
            split_folds(ds10, 11, seed=0)

    def test_content_independent(self, ds10):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(10, 2, 1))
        A = (rng.random((10, 2)) < 0.5).astype(float)
        Y = np.full((10, 2), np.nan)
        Y[:, 1] = rng.normal(size=10)
        other = PanelDataset.from_arrays(X, A, Y, np.ones((10, 3), dtype=np.int8))
        assert np.array_equal(
            split_folds(ds10, 2, seed=9).by_index, split_folds(other, 2, seed=9).by_index
        )


class TestHistory:
    @pytest.fixture
    def traj(self):
        return make_traj(
            "h",
            (1, 1, 0, 0),
            [(1.0, 2.0), (3.0, 4.0), None, None],
            [1, 0, None, None],
            [10.0, None, None, None],
        )

    def test_t1_covariates_only(self, traj):
        assert np.array_equal(history_at(traj, 1), [1.0, 2.0])

    def test_t2_order(self, traj):
        assert np.array_equal(history_at(traj, 2), [1.0, 2.0, 3.0, 4.0, 1.0, 10.0])

    def test_censored_query_errors(self, traj):
        with pytest.raises(PanelDataError):
            history_at(traj, 3)
        with pytest.raises(ConfigError):
            history_at(traj, 9)

    def test_depends_only_on_past(self):
        base = make_traj("x", (1, 1, 1), [(0.5,), (1.5,)], [0, 1], [None, 4.0])
        changed = make_traj("x", (1, 1, 1), [(0.5,), (9.9,)], [0, 0], [None, -4.0])
        assert np.array_equal(history_at(base, 1), history_at(changed, 1))

    def test_matrix_matches_per_trajectory(self):
        ds = PanelDataset(
            [
                make_traj("a", (1, 1, 1), [(0.0, 1.0), (2.0, 3.0)], [1, 0], [5.0, 6.0]),
                make_traj("b", (1, 0, 0), [(4.0, 5.0), None], [0, None], [None, None]),
            ]
        )
        F, alive = history_features(ds, 2)
        assert alive.tolist() == [True, False]
        assert np.array_equal(F[0], history_at(ds.trajectories[0], 2))
