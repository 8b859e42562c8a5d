"""Longitudinal panel container with monotone dropout.

Data model
----------
Each subject contributes a chain over times t = 1..T of covariates X_t
(fixed dimension d), a binary treatment A_t, an optional outcome Y_t, and
retention indicators R_1..R_{T+1}.  Retention is monotone: once a subject
leaves, they never return.  (X_t, A_t) exist exactly when R_t = 1 and Y_t
exists exactly when R_{t+1} = 1 (subjects can leave after treatment is
recorded but before the outcome is measured).

A dataset need not record outcomes at every time; ``outcome_times`` lists
the times at which outcomes are present for every retained subject.

The dense arrays ``X, A, Y, R`` of a ``PanelDataset`` are the panel and
its only copy of the data.

CSV layout (long format, one row per observed subject-time):
``id,time,x1,...,xd,a,y,r`` with time 1-based, a and r in {0,1}, x and
y finite numbers, and y left empty where the outcome is unobserved or
unrecorded.  Rows absent
after a subject's last r=1 row are read as dropout (R = 0 afterwards).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, PanelDataError, check_count, check_seed

__all__ = [
    "PanelDataset",
    "FoldAssignment",
    "split_folds",
    "history_features",
    "load_long_csv",
    "write_long_csv",
]


# Invariant messages in their within-cell reporting order; index 0 is the
# monotonicity line, the only kind reported for a non-monotone subject.
_PROBLEMS = (
    "non-monotone retention at t={}",
    "covariate/treatment presence disagrees with R at t={}",
    "non-finite covariate at t={}",
    "non-binary treatment at t={}",
    "outcome recorded at t={} but subject had left",
    "non-finite outcome at t={}",
    "missing outcome at recorded time t={}",
)


def _invariant_problems(X, A, Y, R, ids) -> list[str]:
    """Human-readable descriptions of every invariant violation of the arrays.

    Messages run subject by subject, then by time, then in the order of
    ``_PROBLEMS``; a non-monotone subject reports only its monotonicity
    lines.  A value is present when it is not NaN, and a present
    covariate or outcome must be finite; covariates and the treatment
    must be complete where R_t = 1.  Neither can be present where
    R_t != 1: ``from_arrays`` blanks those cells and ``load_long_csv``
    rejects them, so only retained cells are checked.
    """
    n, T = A.shape
    alive = R[:, :T] == 1
    stays = R[:, 1:] == 1
    has_a = ~np.isnan(A)
    has_y = ~np.isnan(Y)
    # t = 1 if R_1 != 1, and R_t = 1 after R_{t-1} = 0
    mono = np.zeros(R.shape, dtype=bool)
    mono[:, 0] = R[:, 0] != 1
    mono[:, 1:] = (R[:, 1:] == 1) & (R[:, :-1] == 0)
    cells = np.zeros((n, T + 1, len(_PROBLEMS)), dtype=bool)
    cells[:, :, 0] = mono
    cells[:, :-1, 1] = alive & (np.isnan(X).any(axis=2) | ~has_a)
    cells[:, :-1, 2] = np.isinf(X).any(axis=2)
    cells[:, :-1, 3] = has_a & (A != 0) & (A != 1)
    cells[:, :-1, 4] = has_y & ~stays
    cells[:, :-1, 5] = np.isinf(Y)
    cells[:, :-1, 6] = has_y.any(axis=0) & stays & ~has_y
    cells[mono.any(axis=1), :, 1:] = False
    # nonzero walks the mask in (subject, time, kind) order
    return [
        f"subject {ids[i]!r}: " + _PROBLEMS[k].format(t + 1)
        for i, t, k in zip(*(idx.tolist() for idx in np.nonzero(cells)))
    ]


class PanelDataset:
    """Immutable panel held as dense arrays.

    Arrays are indexed [unit, time-1]; entries unavailable because of
    dropout hold NaN (never a usable sentinel).  ``R`` has one extra
    column so that R[:, t] is the retention indicator R_{t+1} gating Y_t.
    The arrays are the only copy of the data.  Build a panel with
    ``from_arrays`` or ``load_long_csv``; both validate it.
    """

    def _store(self, X, A, Y, R, ids) -> None:
        """Adopt the arrays (without copying) as the panel, freeze them, validate."""
        self.n, self.T = A.shape
        if self.n == 0:
            raise PanelDataError("dataset needs at least one trajectory")
        self.d = X.shape[2]
        self.X = X
        self.A = A
        self.Y = Y
        self.R = R
        for arr in (X, A, Y, R):
            arr.setflags(write=False)
        self.ids = tuple(ids)
        # times (1-based) at which any unit has a recorded outcome
        self.outcome_times = tuple(
            int(t) + 1 for t in np.flatnonzero(~np.isnan(Y).all(axis=0))
        )
        problems = _invariant_problems(X, A, Y, R, self.ids)
        if problems:
            raise PanelDataError("; ".join(problems[:8]))

    @classmethod
    def from_arrays(
        cls,
        X: np.ndarray,
        A: np.ndarray,
        Y: np.ndarray,
        R: np.ndarray,
        ids: Sequence[str] | None = None,
    ) -> "PanelDataset":
        """Build a dataset from dense arrays (NaN marks unavailable cells).

        The inputs are copied, and X and A are blanked to NaN wherever
        R_t != 1.  ``ids`` defaults to s1..sn.
        """
        X = np.array(X, dtype=float)
        if X.ndim == 2:
            X = X[:, :, None]
        A = np.array(A, dtype=float)
        Y = np.array(Y, dtype=float)
        R = np.array(R, dtype=np.int8)
        n, T = A.shape
        if X.shape[:2] != (n, T) or Y.shape != (n, T) or R.shape != (n, T + 1):
            raise PanelDataError(
                f"shapes X{X.shape}, A{A.shape}, Y{Y.shape}, R{R.shape} do not "
                f"describe {n} subjects over T={T} periods (R needs T+1 columns)"
            )
        ids = [f"s{i + 1}" for i in range(n)] if ids is None else [str(s) for s in ids]
        if len(ids) != n:
            raise PanelDataError(f"{len(ids)} ids given for {n} subjects")
        gone = R[:, :T] != 1
        X[gone] = np.nan
        A[gone] = np.nan
        ds = cls.__new__(cls)
        ds._store(X, A, Y, R, ids)
        return ds


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of subjects into K >= 2 folds, each label 1..K used."""

    K: int
    by_index: np.ndarray = field(repr=False)  # (n,) fold label per dataset row

    def __post_init__(self):
        labels = np.unique(self.by_index)
        if self.K < 2 or not np.array_equal(labels, np.arange(1, self.K + 1)):
            raise ConfigError(
                f"a {self.K}-fold assignment needs K >= 2 and the labels 1..{self.K}, "
                f"each used; got labels {labels[:10].tolist()}"
            )


def split_folds(ds: PanelDataset, K: int, seed: int) -> FoldAssignment:
    """Randomly partition subjects into K folds of near-equal size.

    Deterministic given the seed and independent of trajectory contents;
    fold sizes differ by at most one.
    """
    n = ds.n
    if check_count(K, "K", 2) > n:
        raise ConfigError(f"fold count K={K} must satisfy 2 <= K <= n={n}")
    rng = np.random.default_rng(check_seed(seed))
    order = rng.permutation(n)
    by_index = np.empty(n, dtype=np.int64)
    by_index[order] = np.arange(n) % K + 1
    return FoldAssignment(K=K, by_index=by_index)


def history_features(
    ds: PanelDataset, t: int, with_action: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Flattened history H_t for every unit, plus the alive-at-t mask.

    Columns run: covariate blocks X_1..X_t (d each), past treatments
    A_1..A_{t-1}, past outcomes Y_s at recorded times s <= t-1, and, with
    ``with_action``, the observed A_t last.  Rows for units with R_t = 0
    contain NaN and must not be used.
    """
    if not 1 <= t <= ds.T:
        raise ConfigError(f"time t={t} outside 1..{ds.T}")
    outcome_cols = [s - 1 for s in ds.outcome_times if s <= t - 1]
    parts = [ds.X[:, :t, :].reshape(ds.n, t * ds.d)]
    if t > 1:
        parts.append(ds.A[:, : t - 1])
    if outcome_cols:
        parts.append(ds.Y[:, outcome_cols])
    if with_action:
        parts.append(ds.A[:, t - 1 : t])
    return np.concatenate(parts, axis=1), ds.R[:, t - 1] == 1


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def _parse_binary(raw: str, what: str, line_no: int) -> int:
    if raw not in ("0", "1"):
        raise PanelDataError(f"line {line_no}: non-binary {what} value {raw!r}")
    return int(raw)


def _parse_finite(raw: str, what: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise PanelDataError(f"line {line_no}: bad {what} value {raw!r}") from None
    if not math.isfinite(value):
        raise PanelDataError(f"line {line_no}: non-finite {what} value {raw!r}")
    return value


def _read(path: Path) -> str:
    """The file's UTF-8 text, newlines untranslated.

    An operating-system error, or a byte that is not UTF-8, is raised as
    ``PanelDataError``.
    """
    try:
        return path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise PanelDataError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise PanelDataError(f"{path}: not UTF-8 text: {exc}") from None


def load_long_csv(path, n_periods: int | None = None) -> PanelDataset:
    """Read a long-format panel CSV (see module docstring for the schema).

    ``n_periods`` overrides the horizon T; otherwise the metadata sidecar
    ``<path>.meta.json`` is consulted, falling back to the largest time
    present in the file; T must be an integer >= 1.  A sidecar whose ``n``,
    ``d`` or ``sha256`` does not match the file is rejected, and so is a
    file or sidecar the operating system refuses to open, that is not UTF-8
    text, or a sidecar that is not a JSON object.
    """
    path = Path(path)
    if not path.exists():
        raise PanelDataError(f"no such file: {path}")
    with io.StringIO(_read(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelDataError(f"{path}: empty file") from None
        if len(header) < 4 or header[0] != "id" or header[1] != "time":
            raise PanelDataError(f"{path}: header must start with id,time")
        if header[-1] != "r" or header[-2] != "y" or header[-3] != "a":
            raise PanelDataError(f"{path}: header must end with a,y,r")
        x_names = header[2:-3]
        d = len(x_names)
        for j, name in enumerate(x_names):
            if name != f"x{j + 1}":
                raise PanelDataError(f"{path}: covariate column {j + 3} must be x{j + 1}")

        subjects: dict[str, int] = {}  # id -> array row, in file order
        seen: set[tuple[int, int]] = set()
        cells, xs = [], []  # per data row: (array row, time, r, a, y); covariates
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise PanelDataError(f"line {line_no}: expected {len(header)} fields")
            try:
                t = int(row[1])
            except ValueError:
                raise PanelDataError(f"line {line_no}: bad time {row[1]!r}") from None
            if t < 1:
                raise PanelDataError(f"line {line_no}: time must be >= 1")
            r = _parse_binary(row[-1], "r", line_no)
            if r == 1:
                x = [_parse_finite(v, "covariate", line_no) for v in row[2 : 2 + d]]
                a = _parse_binary(row[-3], "a", line_no)
                y = _parse_finite(row[-2], "outcome", line_no) if row[-2] != "" else np.nan
            elif any(v != "" for v in row[2:-1]):
                raise PanelDataError(f"line {line_no}: r=0 row must leave x, a, y empty")
            else:
                x, a, y = [np.nan] * d, np.nan, np.nan
            i = subjects.setdefault(row[0], len(subjects))
            if (i, t) in seen:
                raise PanelDataError(f"line {line_no}: duplicate (id, time) ({row[0]!r}, {t})")
            seen.add((i, t))
            cells.append((i, t, r, a, y))
            xs.extend(x)

    if not subjects:
        raise PanelDataError(f"{path}: no data rows")
    i, t, r, a, y = map(np.array, zip(*cells))
    T, source = n_periods, "n_periods"
    if T is None:
        meta_path = path.with_suffix(path.suffix + ".meta.json")
        if meta_path.exists():
            try:
                meta = json.loads(_read(meta_path))
            except json.JSONDecodeError as exc:
                raise PanelDataError(f"{meta_path}: not valid JSON: {exc}") from None
            if not isinstance(meta, dict):
                raise PanelDataError(f"{meta_path}: sidecar must be a JSON object")
            # a sidecar left over from another file would set a wrong horizon
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            for key, value in (("n", len(subjects)), ("d", d), ("sha256", digest)):
                if meta.get(key) != value:
                    raise PanelDataError(
                        f"{meta_path}: stale sidecar: {key} is {meta.get(key)!r}, "
                        f"the file gives {value!r}"
                    )
            T, source = meta.get("n_periods"), f"{meta_path}: n_periods"
        else:
            T = int(t.max())
    if isinstance(T, bool) or not isinstance(T, numbers.Integral) or T < 1:
        raise PanelDataError(f"{source} must be an integer >= 1, got {T!r}")

    # rows beyond T are ignored; absent rows are R = 0 cells
    n = len(subjects)
    keep = t <= T
    i, t = i[keep], t[keep] - 1
    R = np.zeros((n, T + 1), dtype=np.int8)
    R[i, t] = r[keep]
    X = np.full((n, T, d), np.nan)
    X[i, t] = np.reshape(xs, (len(cells), d))[keep]
    A = np.full((n, T), np.nan)
    A[i, t] = a[keep]
    Y = np.full((n, T), np.nan)
    Y[i, t] = y[keep]
    # R_{T+1}: the terminal outcome is observed iff the subject stayed
    # for its measurement.
    R[:, T] = (R[:, T - 1] == 1) & ~np.isnan(Y[:, T - 1])
    ds = PanelDataset.__new__(PanelDataset)
    ds._store(X, A, Y, R, list(subjects))
    return ds


def _quoted_ids(ids: Sequence[str]) -> list[str]:
    """Each id as ``csv.writer`` writes it in a row of several fields."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    out = []
    for s in ids:
        buf.seek(0)
        buf.truncate()
        writer.writerow((s, ""))
        out.append(buf.getvalue()[: -len(",\r\n")])
    return out


def write_long_csv(ds: PanelDataset, path) -> None:
    """Write the canonical long CSV (observed rows only) plus a metadata sidecar.

    Values are written with 17 significant digits, the treatment as 0/1,
    a missing outcome as an empty field, lines end in CRLF, and ids are
    quoted as ``csv.writer`` quotes them.
    """
    path = Path(path)
    # each subject's rows up to its first R_t != 1, subject by subject
    rows, cols = np.nonzero(np.cumprod(ds.R[:, : ds.T] == 1, axis=1))
    ids = _quoted_ids(ds.ids)
    y = ["%.17g" % v if v == v else "" for v in ds.Y[rows, cols].tolist()]
    header = ["id", "time"] + [f"x{j + 1}" for j in range(ds.d)] + ["a", "y", "r"]
    # %d writes the validated 0/1 treatment (and -0.0) as 0 or 1
    line = "%s,%d," + "%.17g," * ds.d + "%d,%s,1\r\n"
    fields = zip(
        [ids[i] for i in rows.tolist()],
        (cols + 1).tolist(),
        *ds.X[rows, cols].T.tolist(),
        ds.A[rows, cols].tolist(),
        y,
    )
    data = (",".join(header) + "\r\n" + "".join([line % f for f in fields])).encode("utf-8")
    path.write_bytes(data)
    meta = {
        "n": ds.n,
        "n_periods": ds.T,
        "d": ds.d,
        "outcome_times": list(ds.outcome_times),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    with open(path.with_suffix(path.suffix + ".meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
