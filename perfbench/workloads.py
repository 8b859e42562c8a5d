"""The benchmark workloads: inputs, one job, and the check of its output.

Each workload is a closed-loop batch job run from one process.  It puts
most of its work on a different module, so every later optimisation has
one workload that exercises it and one where the predicted change is
zero:

* ``estimate_cli``: ``oddshift estimate`` run in-process on a simulated
  dropout panel CSV; kNN retention fits, CSV parsing and output writing.
* ``oracle_20k``: the five settings of acceptance criterion 4 at
  n=20000 with oracle nuisances, plus one uniform band; panel building,
  oracle predictors, the per-delta recursion and the bootstrap.
* ``protocol_rep``: one replicate of the estimator benchmark protocol,
  the only workload running the plug-in, IPW and no-censoring baselines
  and a K=5 split; then the relative-efficiency Monte Carlo (many small
  panels), the exact decomposition check and the exact efficiency curve.

The efficiency calls ride along at reduced size (about 0.6 s of a 6.5 s
job) instead of forming a workload of their own: that code is pure
Python, and on a shared 2-CPU host its speed swung by a third between
minutes-long phases, more than any bound the benchmark may set.  Numpy
work swung by about a tenth over the same phases.

Jobs call the package through its submodules (``simulation.simulate``,
not ``oddshift.simulate``) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from oddshift import cli, efficiency, estimator, inference, panel, simulation
from oddshift.intervention import DeltaGrid, default_grid
from oddshift.learners import LearnerSpec
from oddshift.nuisance import NuisanceSpecs

GOLDEN_RTOL = 1e-10
CLI_OUTPUTS = ("effect_curve.csv", "band.csv", "diagnostics.json")

# Problem sizes: "full" is the benchmark, "toy" the smoke test's.
SIZES = {
    "full": {
        "estimate_cli": dict(n=2000, T=10, knn=100, B=None),
        "oracle_20k": dict(n=20_000, draws=200_000, B=10_000),
        "protocol_rep": dict(n=1000, T=10, knn=100, draws=200_000,
                             trial_n=250, horizons=12, reps=2, enum_T=8, T_max=100),
    },
    "toy": {
        "estimate_cli": dict(n=300, T=4, knn=20, B=200),
        "oracle_20k": dict(n=2000, draws=20_000, B=200),
        "protocol_rep": dict(n=200, T=4, knn=20, draws=20_000,
                             trial_n=100, horizons=5, reps=2, enum_T=4, T_max=20),
    },
}

# (generator, horizon) of acceptance criterion 4, in its order
ORACLE_SETTINGS = (("dropout", 1), ("dropout", 3), ("dropout", 5), ("trial", 3), ("observational", 3))


def derived_seed(seed: int, *key: int) -> int:
    """Independent 32-bit seed for one input stream of a workload."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def rel_close(got, want, rtol: float = GOLDEN_RTOL) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rtol * np.abs(want)))


@dataclass
class Workload:
    """Inputs for one seed and scale, the job over them, and its output check.

    ``job(inputs)`` returns a JSON-ready record of the output.
    ``check(record, first, golden)`` returns failure messages: ``first``
    is the record of the run's first job (reruns must reproduce it) and
    ``golden`` the recorded one, or None when the seed has none; a
    recorded one keeps only the ``golden_keys`` of the record.
    """

    name: str
    why: str
    setup: Callable
    job: Callable
    check: Callable
    golden_keys: tuple


# ---------------------------------------------------------------------------
# estimate_cli
# ---------------------------------------------------------------------------


def _estimate_setup(seed: int, size: dict, workdir: Path) -> dict:
    ds = simulation.simulate(simulation.DgpConfig(
        kind="dropout", n=size["n"], T=size["T"], u_l=1.0, seed=derived_seed(seed, 1)))
    workdir.mkdir(parents=True, exist_ok=True)
    csv_path = workdir / "panel.csv"
    panel.write_long_csv(ds, csv_path)
    argv = ["estimate", "--input", csv_path.as_posix(), "--seed", str(derived_seed(seed, 2)),
            "--K", "2", "--t", str(size["T"]), "--omega-learner", f"knn:{size['knn']}",
            "--out", (workdir / "out").as_posix()]
    if size["B"] is not None:
        argv += ["--B", str(size["B"])]
    return {"argv": argv, "out": workdir / "out"}


def _estimate_job(inputs: dict) -> dict:
    out = inputs["out"]
    shutil.rmtree(out, ignore_errors=True)
    code = cli.main(inputs["argv"])
    record = {"exit_code": code}
    if code != 0:
        return record
    record["sha256"] = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in CLI_OUTPUTS}
    curve = np.loadtxt(out / "effect_curve.csv", delimiter=",", skiprows=1, ndmin=2)
    band = np.loadtxt(out / "band.csv", delimiter=",", skiprows=1, ndmin=2)
    record["psi_hat"] = curve[:, 1].tolist()
    record["sigma_hat"] = curve[:, 2].tolist()
    record["band"] = band[:, 1:].tolist()
    return record


def _estimate_check(rec: dict, first: dict, golden: dict | None) -> list[str]:
    if rec["exit_code"] != 0:
        return [f"estimate exited with code {rec['exit_code']}"]
    bad = []
    psi, sigma = np.array(rec["psi_hat"]), np.array(rec["sigma_hat"])
    if not (np.all(np.isfinite(psi)) and np.all(sigma > 0)):
        bad.append("non-finite estimate or non-positive sigma")
    psi_b, pw_lo, pw_hi, u_lo, u_hi = np.array(rec["band"]).T
    if not (np.all(u_lo <= pw_lo) and np.all(pw_lo <= psi_b) and np.all(psi_b <= pw_hi)
            and np.all(pw_hi <= u_hi)):
        bad.append("uniform band does not contain the pointwise band")
    if rec["sha256"] != first["sha256"]:
        bad.append("rerun of estimate is not byte-identical")
    if golden is not None:
        if rec["sha256"] != golden["sha256"]:
            bad.append("estimate outputs differ from the recorded sha256")
        if not (rel_close(psi, golden["psi_hat"]) and rel_close(sigma, golden["sigma_hat"])):
            bad.append("psi_hat/sigma_hat differ from the recorded values")
    return bad


# ---------------------------------------------------------------------------
# oracle_20k
# ---------------------------------------------------------------------------


def _oracle_setup(seed: int, size: dict, workdir: Path) -> dict:
    # The panels are criterion 4's own draws (its seeds 4100 + index):
    # the check below is that criterion, a statistical test at |z| < 3,
    # and fresh panels would fail it by chance on a few percent of
    # seeds.  The benchmark seed drives the fold splits, the truth draws
    # and the bootstrap signs.
    configs = [simulation.DgpConfig(kind=kind, n=size["n"], T=t, u_l=1.0, p=0.5, seed=4100 + idx)
               for idx, (kind, t) in enumerate(ORACLE_SETTINGS)]
    return {
        "configs": configs,
        "grid": default_grid(),
        "fold_seeds": [derived_seed(seed, idx, 1) for idx in range(len(configs))],
        "truth_seeds": [derived_seed(seed, idx, 2) for idx in range(len(configs))],
        "band_seed": derived_seed(seed, 3),
        "draws": size["draws"],
        "B": size["B"],
    }


def _oracle_job(inputs: dict) -> dict:
    grid = inputs["grid"]
    settings = []
    band_input = None
    for cfg, fold_seed, truth_seed in zip(inputs["configs"], inputs["fold_seeds"], inputs["truth_seeds"]):
        ds = simulation.simulate(cfg)
        specs = simulation.oracle_specs(cfg, cfg.T)
        est, eif = estimator.estimate_cross_fit(ds, 2, fold_seed, specs, grid, cfg.T)
        truth, se = simulation.true_effect_curve(cfg, grid, cfg.T, draws=inputs["draws"], seed=truth_seed)
        z = np.abs(est.psi_hat - truth) / np.sqrt(se**2 + est.sigma_hat**2 / ds.n)
        settings.append({"kind": cfg.kind, "t": cfg.T, "psi_hat": est.psi_hat.tolist(),
                         "sigma_hat": est.sigma_hat.tolist(), "max_z": float(np.max(z))})
        if (cfg.kind, cfg.T) == ("dropout", 5):
            band_input = (eif, est)
    band = inference.uniform_band(*band_input, alpha=0.05, B=inputs["B"], seed=inputs["band_seed"])
    return {"settings": settings, "c_alpha": band.c_alpha}


def _oracle_check(rec: dict, first: dict, golden: dict | None) -> list[str]:
    bad = []
    worst = max(s["max_z"] for s in rec["settings"])
    if not worst < 3.0:
        bad.append(f"criterion 4 fails: max |z| {worst:.2f}")
    if not (math.isfinite(rec["c_alpha"]) and rec["c_alpha"] > 0):
        bad.append("band critical value is not a positive number")
    if rec != first:
        bad.append("rerun of the oracle job differs")
    if golden is not None:
        for got, want in zip(rec["settings"], golden["settings"]):
            if not (rel_close(got["psi_hat"], want["psi_hat"])
                    and rel_close(got["sigma_hat"], want["sigma_hat"])):
                bad.append(f"{got['kind']} t={got['t']}: psi_hat/sigma_hat differ from the recorded values")
    return bad


# ---------------------------------------------------------------------------
# protocol_rep
# ---------------------------------------------------------------------------


def _binary_atoms(a_bar):
    """Acceptance criterion 6's outcome atoms: Bernoulli, rising with the treated periods."""
    T = len(a_bar)
    weights = np.arange(1, T + 1, dtype=float)
    pr = 0.15 + 0.7 * float(np.dot(weights, a_bar)) / float(weights.sum())
    return np.array([0.0, 1.0]), np.array([1.0 - pr, pr])


def _protocol_setup(seed: int, size: dict, workdir: Path) -> dict:
    return {
        "cfg": simulation.DgpConfig(kind="dropout", n=size["n"], T=size["T"], u_l=1.0,
                                    seed=derived_seed(seed, 1)),
        "grid": DeltaGrid.log_spaced(0.1, 5.0, 9),
        "specs": NuisanceSpecs(pi=LearnerSpec.logistic(), omega=LearnerSpec.knn(size["knn"]),
                               m=LearnerSpec.ridge(1e-6)),
        "seed": derived_seed(seed, 2),
        "draws": size["draws"],
        "trial": simulation.DgpConfig(kind="trial", n=size["trial_n"], T=1, p=0.5, seed=0),
        "horizons": range(1, size["horizons"] + 1),
        "reps": size["reps"],
        "mc_seed": derived_seed(seed, 3),
        "enum_T": size["enum_T"],
        "T_max": size["T_max"],
    }


def _protocol_job(inputs: dict) -> dict:
    result = simulation.run_benchmark(
        inputs["cfg"], S=1, grid=inputs["grid"], specs=inputs["specs"], seed=inputs["seed"],
        K=5, truth_draws=inputs["draws"], threads=1)
    with warnings.catch_warnings():
        # horizons where no replicate draws a fully treated unit warn and drop out
        warnings.simplefilter("ignore")
        records = simulation.relative_efficiency_mc(
            inputs["trial"], 5.0, inputs["horizons"], reps=inputs["reps"], seed=inputs["mc_seed"])
    discrepancy = efficiency.decomposition_check(0.5, 2.0, inputs["enum_T"], _binary_atoms)
    report = efficiency.efficiency_curve(
        lambda T: efficiency.trial_moments(T, 0.5, 5.0), inputs["T_max"])
    return {
        "estimates": {k: v[0].tolist() for k, v in sorted(result.estimates.items())},
        "truths": result.truths.tolist(),
        "rmse": {k: float(v) for k, v in sorted(result.rmse.items())},
        "var_deterministic": [r["var_deterministic"] for r in records],
        "var_incremental": [r["var_incremental"] for r in records],
        "discrepancy": discrepancy,
        "curve_ratio": [row["ratio"] for row in report.rows],
    }


def _protocol_check(rec: dict, first: dict, golden: dict | None) -> list[str]:
    bad = []
    values = [v for row in rec["estimates"].values() for v in row] + list(rec["rmse"].values())
    if not all(math.isfinite(v) for v in values) or len(rec["estimates"]) != 4:
        bad.append("missing or non-finite protocol estimates")
    if not rec["discrepancy"] < 1e-10:
        bad.append(f"decomposition discrepancy {rec['discrepancy']:.2e} is not below 1e-10")
    variances = rec["var_deterministic"] + rec["var_incremental"]
    if not all(math.isfinite(v) and v >= 0 for v in variances):
        bad.append("non-finite or negative Monte Carlo variance")
    if not all(math.isfinite(r) and r > 0 for r in rec["curve_ratio"]):
        bad.append("non-finite or non-positive exact variance ratio")
    if rec != first:
        bad.append("rerun of the protocol job differs")
    if golden is not None:
        for kind, want in golden["estimates"].items():
            if not rel_close(rec["estimates"].get(kind, []), want):
                bad.append(f"{kind}: estimates differ from the recorded values")
        for key in ("var_deterministic", "var_incremental", "curve_ratio"):
            if not rel_close(rec[key], golden[key]):
                bad.append(f"{key} differs from the recorded values")
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload("estimate_cli", "the CLI estimate users run: CSV parse, kNN retention fits, band, output files",
                 _estimate_setup, _estimate_job, _estimate_check, ("sha256", "psi_hat", "sigma_hat")),
        Workload("oracle_20k", "criterion 4 at n=20000 with oracle nuisances: panel build, per-delta recursion, bootstrap",
                 _oracle_setup, _oracle_job, _oracle_check, ("settings",)),
        Workload("protocol_rep", "protocol replicate (plug-in, IPW, no-censoring baselines, K=5) plus the efficiency Monte Carlo and exact checks",
                 _protocol_setup, _protocol_job, _protocol_check,
                 ("estimates", "var_deterministic", "var_incremental", "curve_ratio")),
    )
}
