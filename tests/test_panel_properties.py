"""Property tests of the array-backed panel: vectorised validation and CSV round trips.

``reference_invariants`` is a per-cell loop over each subject's cells held
as tuples; the vectorised check every panel constructor runs
(``panel._invariant_problems``) must report the same messages in the same
order.
"""

import hashlib
import math
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oddshift import PanelDataError, PanelDataset, load_long_csv, write_long_csv
from oddshift.panel import _invariant_problems

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class Cells(NamedTuple):
    """One subject's cells over t = 1..T; None marks an absent value."""

    subject_id: str
    covariates: tuple
    treatments: tuple
    outcomes: tuple
    retention: tuple  # over t = 1..T+1


def reference_violations(retention):
    bad = []
    if len(retention) == 0 or retention[0] != 1:
        bad.append(1)
    for i in range(1, len(retention)):
        if retention[i] == 1 and retention[i - 1] == 0:
            bad.append(i + 1)
    return bad


def reference_invariants(subjects):
    """Per-cell invariant loop over ``Cells``."""
    T = len(subjects[0].covariates)
    outcome_times = {
        t + 1 for tr in subjects for t in range(T) if tr.outcomes[t] is not None
    }
    problems = []
    for tr in subjects:
        bad = reference_violations(tr.retention)
        for t in bad:
            problems.append(f"subject {tr.subject_id!r}: non-monotone retention at t={t}")
        if bad:
            continue
        for t in range(T):
            alive = tr.retention[t] == 1
            has_x = tr.covariates[t] is not None
            has_a = tr.treatments[t] is not None
            if alive != has_x or alive != has_a:
                problems.append(
                    f"subject {tr.subject_id!r}: covariate/treatment presence "
                    f"disagrees with R at t={t + 1}"
                )
            if has_x and any(math.isinf(v) for v in tr.covariates[t]):
                problems.append(f"subject {tr.subject_id!r}: non-finite covariate at t={t + 1}")
            if has_a and tr.treatments[t] not in (0, 1):
                problems.append(
                    f"subject {tr.subject_id!r}: non-binary treatment at t={t + 1}"
                )
            has_y = tr.outcomes[t] is not None
            y_ok = tr.retention[t + 1] == 1
            if has_y and not y_ok:
                problems.append(
                    f"subject {tr.subject_id!r}: outcome recorded at t={t + 1} "
                    "but subject had left"
                )
            if has_y and math.isinf(tr.outcomes[t]):
                problems.append(f"subject {tr.subject_id!r}: non-finite outcome at t={t + 1}")
            if (t + 1) in outcome_times and y_ok and not has_y:
                problems.append(
                    f"subject {tr.subject_id!r}: missing outcome at recorded "
                    f"time t={t + 1}"
                )
    return problems


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def valid_panels(draw):
    """Arrays of a panel that satisfies every invariant, with distinct string ids."""
    n = draw(st.integers(1, 5))
    T = draw(st.integers(1, 4))
    d = draw(st.integers(0, 2))
    recorded = draw(st.lists(st.booleans(), min_size=T, max_size=T))
    X = np.array(draw(st.lists(finite, min_size=n * T * d, max_size=n * T * d)))
    X = X.reshape(n, T, d)
    A = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n * T, max_size=n * T)))
    A = A.reshape(n, T)
    Y = np.array(draw(st.lists(finite, min_size=n * T, max_size=n * T))).reshape(n, T)
    R = np.zeros((n, T + 1), dtype=np.int8)
    for i in range(n):
        R[i, : draw(st.integers(1, T + 1))] = 1
    Y[~(np.array(recorded) & (R[:, 1:] == 1))] = np.nan
    # the loader infers R_{T+1} from the terminal outcome, so a subject
    # retained through T stays for it exactly when T is a recorded time
    R[:, T] &= R[:, T - 1] & int(recorded[T - 1])
    ids = draw(
        st.lists(st.text(alphabet='ab1 ,"', min_size=1, max_size=3), min_size=n,
                 max_size=n, unique=True)
    )
    return X, A, Y, R, ids


@st.composite
def damaged_cells(draw):
    """Arrays of a valid panel with violations of every kind injected.

    Covariates are either complete or absent (all-NaN), with d >= 1:
    zero-width arrays cannot mark a covariate as missing.
    """
    X, A, Y, R, ids = draw(valid_panels())
    n, T = A.shape
    d = max(X.shape[2], 1)
    X = np.array(draw(st.lists(finite, min_size=n * T * d, max_size=n * T * d)))
    X = X.reshape(n, T, d)
    X[R[:, :T] != 1] = np.nan
    R = R.copy()
    kinds = st.sampled_from(
        ["retention", "x", "x_inf", "a_missing", "a_value", "y_add", "y_inf", "y_drop",
         "recorded_after_leaving"]
    )
    infinite = st.sampled_from([np.inf, -np.inf])
    for kind in draw(st.lists(kinds, max_size=6)):
        i = draw(st.integers(0, n - 1))
        t = draw(st.integers(0, T - 1))
        left = np.argwhere(R[:, :T] != 1)
        if kind == "recorded_after_leaving" and len(left):
            i, t = left[draw(st.integers(0, len(left) - 1))]
            X[i, t] = draw(finite)
            A[i, t] = draw(st.sampled_from([0.0, 1.0, np.nan]))
        elif kind == "retention":
            s = draw(st.integers(0, T))
            R[i, s] = 1 - R[i, s]
        elif kind == "x":
            X[i, t] = np.nan if not np.isnan(X[i, t, 0]) else draw(finite)
        elif kind == "x_inf":
            if not np.isnan(X[i, t, 0]):  # covariates stay complete or absent
                X[i, t, draw(st.integers(0, d - 1))] = draw(infinite)
        elif kind == "a_missing":
            A[i, t] = np.nan if not np.isnan(A[i, t]) else 1.0
        elif kind == "a_value":
            A[i, t] = draw(st.sampled_from([0.5, 2.0, -1.0]))
        elif kind == "y_add":
            Y[i, t] = draw(finite)
        elif kind == "y_inf":
            Y[i, t] = draw(infinite)
        else:
            Y[i, t] = np.nan
    if np.isnan(X[0, 0, 0]):
        X[0, 0] = draw(finite)
    return X, A, Y, R, ids


def as_cells(X, A, Y, R, ids):
    """``Cells`` of the arrays, NaN read as absent and X, A dropped where R_t != 1."""
    out = []
    for i, sid in enumerate(ids):
        cov, trt, res = [], [], []
        for t in range(A.shape[1]):
            gone = R[i, t] != 1
            cov.append(None if gone or np.isnan(X[i, t]).all() else tuple(X[i, t].tolist()))
            trt.append(None if gone or np.isnan(A[i, t]) else A[i, t].item())
            res.append(None if np.isnan(Y[i, t]) else Y[i, t].item())
        out.append(Cells(sid, tuple(cov), tuple(trt), tuple(res), tuple(R[i].tolist())))
    return out


class TestVectorisedInvariants:
    @SETTINGS
    @given(damaged_cells())
    def test_both_constructors_match_cell_loop(self, panel):
        X, A, Y, R, ids = panel
        expected = reference_invariants(as_cells(X, A, Y, R, ids))
        # the arrays as from_arrays stores them, X and A blanked where R_t != 1
        gone = R[:, : A.shape[1]] != 1
        blank_X, blank_A = X.copy(), A.copy()
        blank_X[gone] = np.nan
        blank_A[gone] = np.nan
        assert _invariant_problems(blank_X, blank_A, Y, R, ids) == expected
        if expected:
            with pytest.raises(PanelDataError) as err:
                PanelDataset.from_arrays(X, A, Y, R, ids=ids)
            assert str(err.value) == "; ".join(expected[:8])
        else:
            assert PanelDataset.from_arrays(X, A, Y, R, ids=ids).ids == tuple(ids)

    @SETTINGS
    @given(valid_panels())
    def test_valid_panels_pass_and_views_round_trip(self, panel):
        ds = PanelDataset.from_arrays(*panel)
        assert _invariant_problems(ds.X, ds.A, ds.Y, ds.R, ds.ids) == []


class TestCsvRoundTrip:
    @SETTINGS
    @given(valid_panels())
    def test_write_load_write(self, panel):
        ds = PanelDataset.from_arrays(*panel)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            write_long_csv(ds, first)
            back = load_long_csv(first)
            write_long_csv(back, second)
            digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (first, second)]
        for name in ("X", "A", "Y", "R"):
            assert np.array_equal(getattr(back, name), getattr(ds, name), equal_nan=True)
        assert back.ids == ds.ids
        assert back.outcome_times == ds.outcome_times
        assert digests[0] == digests[1]


class TestTypedArrayErrors:
    def arrays(self):
        X = np.array([[[0.5], [1.5]], [[2.5], [3.5]]])
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        Y = np.array([[np.nan, 4.0], [np.nan, 5.0]])
        R = np.ones((2, 3), dtype=np.int8)
        return X, A, Y, R

    def test_fractional_treatment_rejected(self):
        X, A, Y, R = self.arrays()
        A[1, 0] = 0.5
        with pytest.raises(PanelDataError, match="non-binary treatment at t=1"):
            PanelDataset.from_arrays(X, A, Y, R)

    def test_missing_treatment_at_retained_cell_rejected(self):
        X, A, Y, R = self.arrays()
        A[0, 1] = np.nan
        with pytest.raises(PanelDataError, match="presence disagrees with R at t=2"):
            PanelDataset.from_arrays(X, A, Y, R)

    def test_missing_covariate_at_retained_cell_rejected(self):
        X, A, Y, R = self.arrays()
        X = np.concatenate([X, X], axis=2)
        X[1, 1, 0] = np.nan
        with pytest.raises(PanelDataError, match="'s2': covariate/treatment presence"):
            PanelDataset.from_arrays(X, A, Y, R)

    def test_arrays_are_the_only_state(self):
        ds = PanelDataset.from_arrays(*self.arrays(), ids=["u", "v"])
        assert set(vars(ds)) == {"X", "A", "Y", "R", "ids", "n", "T", "d", "outcome_times"}
