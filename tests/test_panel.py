import ast
import csv
import hashlib
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oddshift import (
    PanelDataError,
    ConfigError,
    DgpConfig,
    FoldAssignment,
    PanelDataset,
    history_features,
    load_long_csv,
    simulate,
    split_folds,
    write_long_csv,
)

nan = np.nan


def assert_same_panel(ds, other):
    for name in ("X", "A", "Y", "R"):
        a, b = getattr(ds, name), getattr(other, name)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
    assert ds.ids == other.ids and ds.outcome_times == other.outcome_times


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
        expected = PanelDataset.from_arrays(
            X=[[0.5, 0.6], [0.7, nan]],
            A=[[1, 0], [0, nan]],
            Y=[[nan, 3.0], [nan, nan]],
            R=[[1, 1, 1], [1, 0, 0]],
            ids=["s1", "s2"],
        )
        assert_same_panel(ds, expected)

    def test_nonmonotone_rejected(self, tmp_path):
        text = (
            "id,time,x1,a,y,r\n"
            "s1,1,0.5,1,,1\n"
            "s1,2,,,,0\n"
            "s1,3,0.6,0,1.0,1\n"
        )
        with pytest.raises(PanelDataError, match="non-monotone"):
            load_long_csv(full_csv(tmp_path, text))

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "id,time,x1,a,y,r\ns1,1,0.5,1,,1\ns1,2,,,,0\ns1,3,0.6,0,1.0,1\n",
                "subject 's1': non-monotone retention at t=3",
            ),
            (
                # s2 has an outcome at t=1 but no row at t=2, so it left before it
                "id,time,x1,a,y,r\ns1,1,0.5,1,2.0,1\ns1,2,0.6,0,3.0,1\ns2,1,0.7,0,1.0,1\n",
                "subject 's2': outcome recorded at t=1 but subject had left",
            ),
        ],
    )
    def test_retention_messages(self, tmp_path, text, message):
        with pytest.raises(PanelDataError) as info:
            load_long_csv(full_csv(tmp_path, text))
        assert str(info.value) == message

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
        ds = PanelDataset.from_arrays(
            X=[[0.25, 0.5], [-1.5, nan]],
            A=[[1, 0], [0, nan]],
            Y=[[nan, 3.25], [nan, nan]],
            R=[[1, 1, 1], [1, 0, 0]],
            ids=["u1", "u2"],
        )
        out = tmp_path / "copy.csv"
        write_long_csv(ds, out)
        assert_same_panel(load_long_csv(out, n_periods=ds.T), ds)
        meta = json.loads((tmp_path / "copy.csv.meta.json").read_text())
        assert meta["n"] == 2 and meta["n_periods"] == 2 and meta["d"] == 1
        assert len(meta["sha256"]) == 64

    def test_sidecar_supplies_horizon(self, tmp_path):
        ds = PanelDataset.from_arrays(
            X=[[0.0, 0.5], [1.0, nan]],
            A=[[1, 0], [0, nan]],
            Y=np.full((2, 2), nan),
            R=[[1, 1, 0], [1, 0, 0]],
            ids=["a", "b"],
        )
        out = tmp_path / "p.csv"
        write_long_csv(ds, out)
        # everyone left before recording an outcome at t=2; sidecar keeps T=2
        assert load_long_csv(out).T == 2

    def test_stale_sidecar_rejected(self, tmp_path):
        out = tmp_path / "p.csv"
        write_long_csv(simulate(DgpConfig(kind="dropout", n=50, T=3, u_l=1.0, seed=1)), out)
        # a longer panel written over the file, its old sidecar left in place
        sidecar = (tmp_path / "p.csv.meta.json").read_bytes()
        write_long_csv(simulate(DgpConfig(kind="dropout", n=50, T=6, u_l=1.0, seed=2)), out)
        (tmp_path / "p.csv.meta.json").write_bytes(sidecar)
        with pytest.raises(PanelDataError, match=re.escape("p.csv.meta.json: stale sidecar")):
            load_long_csv(out)
        assert load_long_csv(out, n_periods=6).T == 6

    def test_file_with_a_sidecar_is_read_once_and_hashed_as_parsed(self, tmp_path, monkeypatch):
        out = tmp_path / "p.csv"
        ds = simulate(DgpConfig(kind="dropout", n=20, T=3, u_l=1.0, seed=1))
        write_long_csv(ds, out)
        reads = Counter()
        read_bytes = Path.read_bytes

        def read_then_remove(path):
            reads[path] += 1
            raw = read_bytes(path)
            if path == out:
                path.unlink()  # gone before any second read could see it
            return raw

        monkeypatch.setattr(Path, "read_bytes", read_then_remove)
        assert_same_panel(load_long_csv(out), ds)
        assert reads[out] == 1

    @pytest.mark.parametrize("n_periods", [0, -1, 2.5, "2", True])
    def test_bad_horizon_argument(self, tmp_path, n_periods):
        path = full_csv(tmp_path, "id,time,x1,a,y,r\ns1,1,0.5,1,1.0,1\n")
        message = f"n_periods must be an integer >= 1, got {n_periods!r}"
        with pytest.raises(PanelDataError, match=re.escape(message)):
            load_long_csv(path, n_periods=n_periods)

    @pytest.mark.parametrize("n_periods", [0, -2, "x", None])
    def test_bad_sidecar_horizon(self, tmp_path, n_periods):
        out = tmp_path / "p.csv"
        write_long_csv(simulate(DgpConfig(kind="dropout", n=20, T=3, u_l=1.0, seed=1)), out)
        meta_path = tmp_path / "p.csv.meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if n_periods is None:
            del meta["n_periods"]
        else:
            meta["n_periods"] = n_periods
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        message = f"{meta_path}: n_periods must be an integer >= 1, got {n_periods!r}"
        with pytest.raises(PanelDataError, match=re.escape(message)):
            load_long_csv(out)
        assert load_long_csv(out, n_periods=3).T == 3


def reference_write_long_csv(ds, path):
    """The long-CSV writer as it was written with ``csv.writer``, one row at a time."""

    def fmt(x):
        return format(float(x), ".17g")

    def treatment(a):
        return int(a) if a in (0, 1) else a

    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["id", "time"] + [f"x{j + 1}" for j in range(ds.d)] + ["a", "y", "r"]
        )
        rows, cols = np.nonzero(np.cumprod(ds.R[:, : ds.T] == 1, axis=1))
        X, A, Y = (arr[rows, cols].tolist() for arr in (ds.X, ds.A, ds.Y))
        for i, t, x, a, y in zip(rows.tolist(), cols.tolist(), X, A, Y):
            writer.writerow(
                [ds.ids[i], t + 1]
                + [fmt(v) for v in x]
                + [treatment(a), "" if y != y else fmt(y), 1]
            )
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    meta = {
        "n": ds.n,
        "n_periods": ds.T,
        "d": ds.d,
        "outcome_times": list(ds.outcome_times),
        "sha256": digest,
    }
    with open(path.with_suffix(path.suffix + ".meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="module")
def writer_panels():
    dropout = simulate(DgpConfig(kind="dropout", n=300, T=6, u_l=1.0, seed=4))
    tricky = ["a,b", 'say "hi"', "", "two\nlines", " padded ", "plain"]
    n, T = len(tricky), 4
    rng = np.random.default_rng(8)
    R = np.ones((n, T + 1), dtype=int)
    R[1, 3:] = 0
    R[4, 1:] = 0
    # outcomes at t=2 and T for every subject still there to give one
    Y = np.full((n, T), nan)
    Y[:, [1, T - 1]] = rng.normal(size=(n, 2))
    Y[R[:, 1:] != 1] = nan
    X = rng.normal(size=(n, T, 2)) * 10.0 ** rng.integers(-250, 250, size=(n, T, 2))
    X[0, 0] = [-0.0, 5e-324]
    X[2, 1] = [np.finfo(float).max, -np.finfo(float).max]
    A = rng.integers(0, 2, size=(n, T)).astype(float)
    A[0, 0] = -0.0
    ids = PanelDataset.from_arrays(X=X, A=A, Y=Y, R=R, ids=tricky)
    R1 = np.zeros((5, 4), dtype=int)
    R1[:, 0] = 1
    everyone_leaves = PanelDataset.from_arrays(
        X=rng.normal(size=(5, 3)), A=np.ones((5, 3)), Y=np.full((5, 3), nan), R=R1
    )
    return {
        "dropout": dropout,
        "observational": simulate(DgpConfig(kind="observational", n=200, T=4, seed=5)),
        "trial": simulate(DgpConfig(kind="trial", n=150, T=3, p=0.5, seed=6)),
        "quoted_ids_and_nan_outcomes": ids,
        "everyone_leaves_at_t1": everyone_leaves,
    }


@pytest.mark.parametrize(
    "name",
    [
        "dropout",
        "observational",
        "trial",
        "quoted_ids_and_nan_outcomes",
        "everyone_leaves_at_t1",
    ],
)
def test_writer_bytes_match_csv_writer_reference(tmp_path, writer_panels, name):
    ds = writer_panels[name]
    if name == "trial":
        assert ds.d == 0
    if name == "everyone_leaves_at_t1":
        assert ds.n == 5 and np.all(ds.R[:, 1:] == 0)
    write_long_csv(ds, tmp_path / "new.csv")
    reference_write_long_csv(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    new_meta = json.loads((tmp_path / "new.csv.meta.json").read_text(encoding="utf-8"))
    ref_meta = json.loads((tmp_path / "ref.csv.meta.json").read_text(encoding="utf-8"))
    assert new_meta["sha256"] == ref_meta["sha256"]
    assert new_meta == ref_meta


def one_subject(R):
    """A one-covariate panel of one subject with retention R and no outcomes."""
    T = len(R) - 1
    return PanelDataset.from_arrays(
        np.zeros((1, T)), np.zeros((1, T)), np.full((1, T), nan), [R], ids=["a"]
    )


class TestValidation:
    def test_all_retained_empty_report(self):
        ds = PanelDataset.from_arrays(
            X=[[0.0, 1.0]], A=[[1, 0]], Y=[[nan, 2.0]], R=[[1, 1, 1]], ids=["a"]
        )
        assert np.all(ds.R == 1)

    def test_legal_dropout_empty_report(self):
        assert one_subject((1, 1, 0, 0)).R.tolist() == [[1, 1, 0, 0]]

    def test_violation_reported_at_reentry(self):
        with pytest.raises(PanelDataError) as info:
            one_subject((1, 0, 1, 0))
        assert str(info.value) == "subject 'a': non-monotone retention at t=3"
        with pytest.raises(PanelDataError) as info:
            one_subject((0, 1, 1))
        assert str(info.value) == (
            "subject 'a': non-monotone retention at t=1; "
            "subject 'a': non-monotone retention at t=2"
        )

    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
    @pytest.mark.parametrize("array, cell, message", [
        ("X", (1, 0, 1), "subject 's2': non-finite covariate at t=1"),
        ("Y", (0, 1), "subject 's1': non-finite outcome at t=2"),
    ], ids=["covariate", "outcome"])
    def test_non_finite_value_rejected_as_the_loader_does(self, array, cell, value, message):
        arrays = {
            "X": np.array([[[0.5, 1.0], [1.5, 2.0]], [[2.5, 3.0], [3.5, 4.0]]]),
            "A": np.array([[1.0, 0.0], [0.0, 1.0]]),
            "Y": np.array([[nan, 4.0], [nan, 5.0]]),
            "R": np.ones((2, 3), dtype=np.int8),
        }
        arrays[array][cell] = value
        with pytest.raises(PanelDataError) as info:
            PanelDataset.from_arrays(**arrays)
        assert str(info.value) == message


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
        sub = PanelDataset.from_arrays(ds10.X[:5], ds10.A[:5], ds10.Y[:5], ds10.R[:5])
        folds = split_folds(sub, 2, seed=1)
        sizes = sorted(int(np.sum(folds.by_index == k)) for k in (1, 2))
        assert sizes == [2, 3]

    @pytest.mark.parametrize("seed", [-1, True])
    def test_seed_must_be_a_non_negative_integer(self, ds10, seed):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            split_folds(ds10, 2, seed=seed)

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

    @pytest.mark.parametrize("K", [2.5, 2.0, True])
    def test_K_must_be_an_integer(self, ds10, K):
        with pytest.raises(ConfigError) as info:
            split_folds(ds10, K, seed=0)
        assert str(info.value) == f"K must be an integer >= 2, got {K!r}"

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

    @pytest.mark.parametrize(
        "K,labels",
        [
            (3, [1, 2] * 100),  # fold 3 empty: its fold mean would be NaN
            (2, [1, 2, 3] * 66 + [1, 2]),  # fold 3's rows would never be written
            (1, [1] * 200),
            (2, [0, 1, 2] * 66 + [1, 2]),
        ],
    )
    def test_labels_must_be_one_to_K(self, K, labels):
        with pytest.raises(ConfigError, match=f"needs K >= 2 and the labels 1..{K}"):
            FoldAssignment(K=K, by_index=np.array(labels))


class TestHistory:
    @pytest.fixture
    def ds(self):
        # h stays through t=2 with Y_1 recorded; g leaves after t=1
        return PanelDataset.from_arrays(
            X=[[[1.0, 2.0], [3.0, 4.0], [nan, nan]], [[5.0, 6.0], [nan, nan], [nan, nan]]],
            A=[[1, 0, nan], [0, nan, nan]],
            Y=[[10.0, nan, nan], [nan, nan, nan]],
            R=[[1, 1, 0, 0], [1, 0, 0, 0]],
            ids=["h", "g"],
        )

    def test_t1_covariates_only(self, ds):
        F, alive = history_features(ds, 1)
        assert np.array_equal(F, [[1.0, 2.0], [5.0, 6.0]])
        assert alive.tolist() == [True, True]

    def test_t2_order(self, ds):
        F, _ = history_features(ds, 2)
        assert np.array_equal(F[0], [1.0, 2.0, 3.0, 4.0, 1.0, 10.0])
        F, _ = history_features(ds, 2, with_action=True)
        assert np.array_equal(F[0], [1.0, 2.0, 3.0, 4.0, 1.0, 10.0, 0.0])

    def test_censored_query_errors(self, ds):
        assert history_features(ds, 2)[1].tolist() == [True, False]
        assert history_features(ds, 3)[1].tolist() == [False, False]
        for t in (0, 4):
            with pytest.raises(ConfigError):
                history_features(ds, t)

    def test_depends_only_on_past(self):
        def panel(x2, a2, y2):
            return PanelDataset.from_arrays(
                X=[[0.5, x2]], A=[[0, a2]], Y=[[nan, y2]], R=[[1, 1, 1]]
            )

        base, changed = panel(1.5, 1, 4.0), panel(9.9, 0, -4.0)
        assert np.array_equal(history_features(base, 1)[0], history_features(changed, 1)[0])
        assert np.array_equal(history_features(base, 2)[0][0], [0.5, 1.5, 0.0])
        assert np.array_equal(history_features(changed, 2)[0][0], [0.5, 9.9, 0.0])

    def test_matrix_matches_per_trajectory(self):
        ds = PanelDataset.from_arrays(
            X=[[[0.0, 1.0], [2.0, 3.0]], [[4.0, 5.0], [nan, nan]]],
            A=[[1, 0], [0, nan]],
            Y=[[5.0, 6.0], [nan, nan]],
            R=[[1, 1, 1], [1, 0, 0]],
            ids=["a", "b"],
        )
        F, alive = history_features(ds, 2)
        assert alive.tolist() == [True, False]
        assert np.array_equal(F[0], [0.0, 1.0, 2.0, 3.0, 1.0, 5.0])
        assert np.isnan(F[1, 2:4]).all()


def test_only_nuisance_reads_the_history_layout():
    # panel defines history_features and __init__ re-exports it; every other
    # module, the oracles included, reads the panel arrays instead.  Within
    # nuisance one stage fit builds the features and fits the learner.
    calls, importers = Counter(), set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "oddshift").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("history_features", "fit_learner"):
                    calls[path.stem, name] += 1
            elif isinstance(node, ast.ImportFrom):
                if "history_features" in [alias.name for alias in node.names]:
                    importers.add(path.stem)
    assert calls == {("nuisance", "history_features"): 1, ("nuisance", "fit_learner"): 1}
    assert importers == {"__init__", "nuisance"}
