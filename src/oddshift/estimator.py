"""Influence-value computation and the four effect estimators.

The estimand is the mean outcome at a horizon t if every unit's odds of
treatment were multiplied by delta at times 1..t, with monotone dropout
handled by inverse retention weighting.  The per-unit uncentered
influence value phi is built from running products

    ratio_s = (delta*A_s + 1 - A_s) / (delta*pi_s + 1 - pi_s),
    C_0 = 1,   C_s = C_{s-1} * ratio_s * R_{s+1} / omega_s,

arm-collapsed continuation values

    g_s = [delta*pi_s*m_s(H_s,1) + (1-pi_s)*m_s(H_s,0)] / (delta*pi_s + 1 - pi_s),

and the propensity-perturbation term

    b_s = delta*(A_s - pi_s)*[m_s(H_s,1) - m_s(H_s,0)] / (delta*pi_s + 1 - pi_s)^2,

as

    phi = sum_s C_{s-1} * [g_s + b_s - ratio_s*(R_{s+1}/omega_s)*m_s(H_s,A_s)] * R_s
          + C_t * Y_t.

Averaging phi gives the effect; every term for a censored stage carries a
retention indicator, so censored units contribute finite values without
ever touching their unavailable data.  One gated stage loop computes phi,
the per-stage correction terms and the weight products C_t, for one delta
or a whole grid at once (one column per delta).

Estimators: ``estimate_cross_fit`` (one nuisance pass per fold, fit on
the other K-1 folds over the whole grid, values computed on the held-out
fold), ``estimate_plugin`` (the same pass with no splitting: trained and
evaluated on all units), ``estimate_no_censoring`` (the cross-fit pass
on the complete cases with an omega = 1 spec), ``estimate_ipw`` (the
plug-in pass with every continuation value zero), and
``estimate_complete_case`` (subgroup mean contrast among fully retained,
fully compliant units).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, EstimationError, check_open_unit
from .intervention import DeltaGrid, _check_delta
from .learners import LearnerSpec
from .nuisance import NuisanceSet, NuisanceSpecs, fit_nuisances
from .panel import FoldAssignment, PanelDataset, check_horizon, split_folds

__all__ = [
    "EifMatrix",
    "EffectEstimate",
    "eif_from_arrays",
    "eif_values_for",
    "eif_correction_terms",
    "eif_single_period",
    "estimate_cross_fit",
    "estimate_plugin",
    "estimate_ipw",
    "estimate_no_censoring",
    "estimate_complete_case",
    "complete_case_subset",
]


def _gate(cond: np.ndarray, values: np.ndarray, fill: float) -> np.ndarray:
    """Replace unavailable entries before arithmetic; NaN * 0 is still NaN."""
    return np.where(cond, values, fill)


# Units per block of the stage kernel, whose seven work buffers are
# (block, D).  At n=10 000, t=5, D=25, blocks of 512 and 1024 ran fastest
# of 256..8192 (30-34 ms, against 39-45 ms in (n, D) buffers); 1024 keeps
# a fold of 1000 units in one block.
_STAGE_BLOCK = 1024


def _check_ranges(alive: np.ndarray, pi: np.ndarray, omega: np.ndarray) -> None:
    """Raise for the first stage whose retained units hold pi outside (0,1) or omega <= 0.

    Within a stage the propensity is checked before the retention
    propensity; a NaN passes both checks, as it fails neither comparison.
    """
    bad_pi = np.any(alive & ((pi <= 0.0) | (pi >= 1.0)), axis=0)
    bad_omega = np.any(alive & (omega <= 0.0), axis=0)
    bad = np.flatnonzero(bad_pi | bad_omega)
    if bad.size:
        s = int(bad[0])
        what = "propensity outside (0,1)" if bad_pi[s] else "retention propensity not positive"
        raise EstimationError(f"{what} at t={s + 1}")


def _stage_kernel(A, R, y_term, pi, omega, m1, m0, delta, terms=None):
    """The gated per-stage loop: returns (phi, C_t), filling ``terms`` if given.

    ``delta`` is a scalar, with m1/m0 (n, t) and results (n,), or a (D,)
    grid, with m1/m0 (n, t, D) and results (n, D).  Each grid column is
    computed with the scalar expressions in the same order, so it equals
    the scalar result bitwise.  ``terms`` (shaped like m1) receives each
    stage's correction term on units retained at that stage.

    Both range checks run over every unit, stage by stage, before any
    arithmetic.  Units are then walked in blocks of ``_STAGE_BLOCK``, each
    through every stage, in seven (block, D) buffers allocated once per
    call; each in-place step is one operation of

        denom   = delta*p + 1 - p
        ratio   = (delta*a + 1 - a) / denom
        g       = (delta*p*m1 + (1 - p)*m0) / denom
        b       = delta*(a - p)*(m1 - m0) / denom**2
        summand = g + b - ratio*(r_next/w)*m_obs
        C      *= ratio*r_next/w

    in that grouping, with m1, m0 and both products zeroed off the
    retained units.  A unit's values read only its own row, so they do not
    depend on the block size.  Only the kernel's own buffers are written:
    m1 and m0 may be read-only broadcasts.
    """
    _check_delta(delta)
    scalar = np.ndim(delta) == 0
    deltas = np.atleast_1d(np.asarray(delta, dtype=float))
    if scalar:
        m1, m0 = m1[..., None], m0[..., None]
        terms = None if terms is None else terms[..., None]
    A = np.atleast_2d(A)
    n, t = A.shape
    _check_ranges(R[:, :t] == 1, pi[:, :t], omega[:, :t])
    y = _gate(R[:, t] == 1, y_term, 0.0)
    phi = np.zeros((n, deltas.size))
    C = np.ones((n, deltas.size))
    work = np.empty((7, min(n, _STAGE_BLOCK), deltas.size))
    for lo in range(0, n, _STAGE_BLOCK):
        rows = slice(lo, lo + _STAGE_BLOCK)
        phi_b, C_b = phi[rows], C[rows]
        denom, ratio, m1s, m0s, m_obs, g, tmp = work[:, : C_b.shape[0]]
        for s in range(t):
            alive = R[rows, s] == 1
            gone = np.flatnonzero(~alive)
            a = _gate(alive, A[rows, s], 0.0)[:, None]
            p = _gate(alive, pi[rows, s], 0.5)[:, None]
            w = _gate(alive, omega[rows, s], 1.0)[:, None]
            r_next = R[rows, s + 1, None].astype(float)
            np.multiply(deltas, p, out=g)
            np.add(g, 1.0, out=denom)
            denom -= p
            np.multiply(deltas, a, out=ratio)
            ratio += 1.0
            ratio -= a
            ratio /= denom
            for buf, m in ((m1s, m1), (m0s, m0)):
                np.copyto(buf, m[rows, s])
                buf[gone] = 0.0
            np.copyto(m_obs, m0s)
            np.copyto(m_obs, m1s, where=a == 1.0)
            g *= m1s
            np.multiply(1.0 - p, m0s, out=tmp)
            g += tmp
            g /= denom  # g
            np.multiply(deltas, a - p, out=tmp)
            m1s -= m0s
            tmp *= m1s
            np.square(denom, out=m0s)
            tmp /= m0s  # b
            g += tmp
            np.multiply(ratio, r_next / w, out=tmp)
            tmp *= m_obs
            g -= tmp  # the summand
            if terms is not None:
                terms[rows, s][alive] = g[alive]
            g[gone] = 0.0
            g *= C_b
            phi_b += g
            ratio *= r_next
            ratio /= w
            ratio[gone] = 0.0
            C_b *= ratio
        np.multiply(C_b, y[rows, None], out=tmp)
        phi_b += tmp
    return (phi[:, 0], C[:, 0]) if scalar else (phi, C)


def eif_from_arrays(
    A: np.ndarray,
    R: np.ndarray,
    y_term: np.ndarray,
    pi: np.ndarray,
    omega: np.ndarray,
    m1: np.ndarray,
    m0: np.ndarray,
    delta,
) -> np.ndarray:
    """Uncentered influence values, vectorized over units and optionally deltas.

    Shapes: A, pi, omega are (n, t); m1, m0 are (n, t), or (n, t, D) when
    ``delta`` is a (D,) grid, and the result is (n,) or (n, D) to match;
    R is (n, t+1) with R[:, 0] the time-1 retention (always one); y_term
    is the horizon outcome, used only where R[:, t] = 1.
    """
    phi = _stage_kernel(A, R, y_term, pi, omega, m1, m0, delta)[0]
    if not np.all(np.isfinite(phi)):
        raise EstimationError("non-finite influence value")
    return phi


def eif_values_for(ds: PanelDataset, eta: NuisanceSet) -> np.ndarray:
    """Influence values (units, D) under fitted nuisances, for the units ``eta`` holds."""
    t = eta.t_star
    sel = slice(None) if eta.rows is None else eta.rows
    return eif_from_arrays(
        ds.A[sel, :t], ds.R[sel, : t + 1], ds.Y[sel, t - 1],
        eta.pi, eta.omega, eta.m1, eta.m0, np.asarray(eta.deltas),
    )


def eif_correction_terms(
    A: np.ndarray,
    R: np.ndarray,
    pi: np.ndarray,
    omega: np.ndarray,
    m1: np.ndarray,
    m0: np.ndarray,
    delta,
) -> np.ndarray:
    """Per-stage correction terms g_s + b_s - ratio_s (R_{s+1}/omega_s) m_s(H_s, A_s).

    Returns an array shaped like m1 ((n, t), or (n, t, D) for a grid) with
    NaN where the unit has already left.  Under true nuisances each column
    is conditionally mean-zero among retained units.
    """
    out = np.full(np.shape(m1), np.nan)
    _stage_kernel(A, R, 0.0, pi, omega, m1, m0, delta, terms=out)
    return out


def eif_single_period(a, y, r, pi, omega, mu1, mu0, delta) -> float:
    """Closed-form influence value for a single-period study (T = 1).

    A weighted average of the two per-arm influence values
    phi_a = 1(A=a) 1(R=1) / (pi_a * omega) * (y - mu_a) + mu_a
    with weights delta*pi and 1-pi, plus the propensity-perturbation term
    delta*(mu1 - mu0)*(a - pi) / (delta*pi + 1 - pi)^2.  Serves as an
    independent check of the general recursion at t = 1.
    """
    if r not in (0, 1) or a not in (0, 1):
        raise ConfigError("a and r must be binary")
    check_open_unit(pi, "pi")
    if not 0 < omega <= 1:
        raise ConfigError("omega must lie in (0,1]")
    _check_delta(delta)
    resid1 = (y - mu1) if (a == 1 and r == 1) else 0.0
    resid0 = (y - mu0) if (a == 0 and r == 1) else 0.0
    phi1 = resid1 / (pi * omega) + mu1
    phi0 = resid0 / ((1.0 - pi) * omega) + mu0
    denom = delta * pi + 1.0 - pi
    wavg = (delta * pi * phi1 + (1.0 - pi) * phi0) / denom
    correction = delta * (mu1 - mu0) * (a - pi) / denom**2
    return float(wavg + correction)


@dataclass
class EifMatrix:
    """Per-unit uncentered influence values over a delta grid."""

    values: np.ndarray  # (n, D)
    t: int
    grid: DeltaGrid

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class EffectEstimate:
    """Effect curve with its influence-value standard deviations."""

    psi_hat: np.ndarray   # (D,)
    sigma_hat: np.ndarray  # (D,)
    n: int
    t: int
    kind: str
    grid: DeltaGrid
    per_fold: np.ndarray  # (K, D) fold-wise means
    diagnostics: dict = field(default_factory=dict)

    def rows(self):
        for j, delta in enumerate(self.grid.values):
            yield delta, float(self.psi_hat[j]), float(self.sigma_hat[j])


def _sigma_hat(values: np.ndarray, psi_hat: np.ndarray) -> np.ndarray:
    if values.shape[0] < 2:
        raise EstimationError("variance needs at least two units")
    return np.sqrt(np.mean((values - psi_hat[None, :]) ** 2, axis=0))


def _reduce(values: np.ndarray, folds: FoldAssignment) -> tuple[np.ndarray, np.ndarray]:
    """Average of fold means (columns are grid points)."""
    per_fold = np.stack(
        [values[folds.by_index == k].mean(axis=0) for k in range(1, folds.K + 1)]
    )
    return per_fold.mean(axis=0), per_fold


def _fold_pass(
    ds: PanelDataset,
    specs: NuisanceSpecs,
    grid: DeltaGrid,
    t: int,
    kind: str,
    folds: FoldAssignment | None,
    eta: NuisanceSet | None = None,
) -> tuple[EffectEstimate, EifMatrix]:
    """Effect curve and influence values from one nuisance pass per fold.

    Fold k's nuisances are fit without its units, over the whole grid,
    and hold its units only; its warnings are tagged ``fold k: ``.
    Without ``folds`` this is the plug-in: one pass trained and evaluated
    on every unit, using ``eta`` when it is given; a given ``eta`` must be
    a full-sample fit of the panel over this grid and horizon.
    """
    if eta is not None:
        if eta.deltas != grid.values or eta.t_star != t:
            raise ConfigError(f"eta was fit for deltas {eta.deltas} at t={eta.t_star}, "
                              f"not deltas {grid.values} at t={t}")
        if eta.rows is not None or eta.pi.shape[0] != ds.n:
            raise ConfigError(f"eta must be a full-sample fit of the panel's {ds.n} units")
    values = np.empty((ds.n, len(grid)))
    diagnostics: dict = {"folds": [], "warnings": []}
    for k in [None] if folds is None else range(1, folds.K + 1):
        if eta is None:
            eta = fit_nuisances(ds, folds, specs, grid.values, t, exclude_fold=k)
        values[slice(None) if eta.rows is None else eta.rows] = eif_values_for(ds, eta)
        diagnostics["folds"].append(eta.summary())
        tag = "" if k is None else f"fold {k}: "
        diagnostics["warnings"].extend(tag + w for w in eta.warnings)
        eta = None  # free this fold's arrays before the next fold is fit
    if folds is None:
        psi_hat = values.mean(axis=0)
        per_fold = psi_hat[None, :].copy()
    else:
        psi_hat, per_fold = _reduce(values, folds)
    estimate = EffectEstimate(
        psi_hat=psi_hat,
        sigma_hat=_sigma_hat(values, psi_hat),
        n=ds.n,
        t=t,
        kind=kind,
        grid=grid,
        per_fold=per_fold,
        diagnostics=diagnostics,
    )
    return estimate, EifMatrix(values=values, t=t, grid=grid)


def estimate_cross_fit(
    ds: PanelDataset,
    K: int,
    seed: int,
    specs: NuisanceSpecs,
    grid,
    t: int,
    folds: FoldAssignment | None = None,
) -> tuple[EffectEstimate, EifMatrix]:
    """Cross-fitted effect curve: eta fit per excluded fold, phi averaged per fold.

    Retention propensities, continuation values and influence values are
    computed only for the held-out fold's units, the only ones that use
    them.  Each fold's warnings are listed once, prefixed ``fold k: ``.
    Deterministic given (data, K, seed, specs); the reduction runs in
    fixed fold order so results do not depend on scheduling.  A given
    ``folds`` must have K folds and cover the panel's units.
    """
    if folds is None:
        folds = split_folds(ds, K, seed)
    elif folds.K != K:
        raise ConfigError(f"K={K} but the fold assignment has {folds.K} folds")
    return _fold_pass(ds, specs, DeltaGrid.of(grid), t, "cross_fit", folds)


def estimate_plugin(
    ds: PanelDataset,
    specs: NuisanceSpecs,
    grid,
    t: int,
    eta: NuisanceSet | None = None,
) -> tuple[EffectEstimate, EifMatrix]:
    """Plug-in estimator: nuisances fit on all data, no sample splitting.

    ``eta``, a full-sample fit over the same grid, replaces the fit.
    """
    return _fold_pass(ds, specs, DeltaGrid.of(grid), t, "plugin", None, eta)


def ipw_weight_products(
    A: np.ndarray,
    R: np.ndarray,
    pi: np.ndarray,
    omega: np.ndarray,
    delta,
) -> np.ndarray:
    """Cumulative weights prod_s ratio_s * 1(R_{s+1}=1)/omega_s over all t stages.

    (n,) for a scalar ``delta``, (n, D) for a (D,) grid.
    """
    zeros = np.broadcast_to(0.0, np.shape(pi) + np.shape(delta))
    return _stage_kernel(A, R, 0.0, pi, omega, zeros, zeros, delta)[1]


def estimate_ipw(
    ds: PanelDataset,
    specs: NuisanceSpecs,
    grid,
    t: int,
    eta: NuisanceSet | None = None,
) -> EffectEstimate:
    """Inverse-probability-weighted estimator: the plug-in pass with m = 0.

    With every continuation value zero, each stage term vanishes and
    phi = C_t * Y_t.  Propensities are fit on the full sample, mirroring
    how this baseline is usually run with parametric models, and
    ``specs.m`` is never fit; ``eta``, a full-sample fit over the same
    grid, replaces the fit.
    """
    grid = DeltaGrid.of(grid)
    if eta is None:
        eta = fit_nuisances(ds, None, replace(specs, m=LearnerSpec.zero()), grid.values, t)
    zero = np.broadcast_to(0.0, eta.m1.shape)
    return _fold_pass(ds, specs, grid, t, "ipw", None, replace(eta, m1=zero, m0=zero))[0]


def complete_case_subset(ds: PanelDataset, t: int) -> PanelDataset:
    """Units fully retained through the horizon outcome, truncated to t periods.

    The horizon must have a recorded outcome, as for every estimator.
    """
    t = check_horizon(ds, t)
    keep = ds.R[:, t] == 1
    if not np.any(keep):
        raise EstimationError(f"no unit retained through the outcome at t={t}")
    idx = np.flatnonzero(keep)
    R = np.ones((idx.size, t + 1), dtype=np.int8)
    return PanelDataset.from_arrays(
        ds.X[idx, :t, :], ds.A[idx, :t], ds.Y[idx, :t], R,
        ids=[ds.ids[i] for i in idx],
    )


def _ones(ds: PanelDataset, s: int, units: np.ndarray, a) -> np.ndarray:
    """Retention propensity one, an oracle handle: for panels without dropout."""
    return np.ones(units.size)


def estimate_no_censoring(
    ds: PanelDataset,
    K: int,
    seed: int,
    specs: NuisanceSpecs,
    grid,
    t: int,
) -> tuple[EffectEstimate, EifMatrix]:
    """Cross-fit estimator on the complete cases, an omega = 1 oracle replacing ``specs.omega``."""
    sub = complete_case_subset(ds, t)
    pinned = replace(specs, omega=LearnerSpec.oracle(_ones))
    return _fold_pass(sub, pinned, DeltaGrid.of(grid), t, "no_censoring", split_folds(sub, K, seed))


def estimate_complete_case(ds: PanelDataset, t: int) -> float:
    """Always-treated minus never-treated mean among fully retained units.

    Positivity failures surface as an error: with many periods the
    always- or never-treated retained subgroup is routinely empty.
    """
    t = check_horizon(ds, t)
    retained = ds.R[:, t] == 1
    A = ds.A[:, :t]
    all_treated = retained & np.all(A == 1.0, axis=1)
    none_treated = retained & np.all(A == 0.0, axis=1)
    if not np.any(all_treated) or not np.any(none_treated):
        raise EstimationError(
            "complete-case contrast undefined: empty always- or never-treated subgroup"
        )
    y = ds.Y[:, t - 1]
    return float(y[all_treated].mean() - y[none_treated].mean())
