"""Batch command-line front end.

Five subcommands: ``estimate``, ``simulate``, ``bench``, ``efficiency``,
``validate``.  Parameters come from an optional JSON config file with
command-line flags taking precedence; a seed is always required, so every
command is a pure function of its inputs and reruns are byte-identical.
Numbers are written with 17 significant digits so downstream diffs are
exact.  Exit codes: 0 ok, 2 input or configuration error, 3 runtime
estimation error; failures print a one-line JSON error to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .efficiency import efficiency_curve, trial_moments
from .errors import ConfigError, EstimationError, PanelDataError
from .estimator import estimate_cross_fit
from .inference import check_band_options, uniform_band
from .intervention import DeltaGrid
from .learners import LearnerSpec
from .nuisance import NuisanceSpecs
from .panel import load_long_csv, validate_monotonicity, write_long_csv
from .simulation import DgpConfig, run_benchmark, simulate

__all__ = ["main"]


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool) else str(v) for v in row) + "\n")


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _merge_config(args: argparse.Namespace) -> dict:
    """The config file's keys, overridden by the flags given; only the subcommand's options."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "fn", "config")}
    cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        unknown = set(cfg) - set(flags)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg.update((k, v) for k, v in flags.items() if v is not None)
    if cfg.get("seed") is None:
        raise ConfigError("a seed is required (no wall-clock default)")
    return cfg


def _value(cfg: dict, key: str, default, kind=int):
    """``cfg[key]`` (``default`` when absent) converted by ``kind``."""
    val = cfg.get(key, default)
    try:
        return kind(val)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be {kind.__name__}, got {val!r}") from None


def _grid_from(cfg: dict, size: int) -> DeltaGrid:
    """The ``grid`` list if given, else ``grid_size`` (default ``size``) log-spaced points."""
    if cfg.get("grid"):
        vals = cfg["grid"]
        try:
            values = tuple(float(v) for v in (json.loads(vals) if isinstance(vals, str) else vals))
        except (TypeError, ValueError):
            raise ConfigError(f"grid must be a JSON list of numbers, got {vals!r}") from None
        return DeltaGrid(values=values)
    return DeltaGrid.log_spaced(
        _value(cfg, "grid_lo", 0.1, float),
        _value(cfg, "grid_hi", 5.0, float),
        _value(cfg, "grid_size", size),
    )


def _dgp_from(cfg: dict) -> DgpConfig:
    return DgpConfig(
        kind=cfg.get("kind", "dropout"),
        n=_value(cfg, "n", 1000),
        T=_value(cfg, "t", 10),
        u_l=_value(cfg, "ul", 1.0, float),
        p=_value(cfg, "p", 0.5, float),
        seed=_value(cfg, "seed", None),
    )


def _specs_from(cfg: dict) -> NuisanceSpecs:
    return NuisanceSpecs(
        pi=LearnerSpec.from_config(cfg.get("pi_learner", "logistic_irls")),
        omega=LearnerSpec.from_config(cfg.get("omega_learner", "logistic_irls")),
        m=LearnerSpec.from_config(cfg.get("m_learner", "ridge:1e-6")),
    )


def _outdir(cfg: dict) -> Path:
    out = Path(cfg.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_validate(args) -> int:
    cfg = _merge_config(args)
    if not cfg.get("input"):
        raise ConfigError("validate needs --input")
    ds = load_long_csv(cfg["input"])
    report = validate_monotonicity(ds)
    payload = {
        "n": ds.n,
        "n_periods": ds.T,
        "d": ds.d,
        "outcome_times": list(ds.outcome_times),
        "violations": [{"id": sid, "t": t} for sid, t in report],
    }
    print(json.dumps(payload, sort_keys=True))
    return 0 if not report else 2


def _cmd_estimate(args) -> int:
    cfg = _merge_config(args)
    if not cfg.get("input"):
        raise ConfigError("estimate needs --input")
    ds = load_long_csv(cfg["input"])
    t = _value(cfg, "t", ds.T)
    K = _value(cfg, "K", 2)
    alpha = _value(cfg, "alpha", 0.05, float)
    B = _value(cfg, "B", 10_000)
    seed = _value(cfg, "seed", None)
    grid = _grid_from(cfg, 25)
    specs = _specs_from(cfg)
    check_band_options(alpha, B)
    est, eif = estimate_cross_fit(ds, K, seed, specs, grid, t)
    band = uniform_band(eif, est, alpha=alpha, B=B, seed=seed)
    out = _outdir(cfg)
    _write_csv(
        out / "effect_curve.csv",
        ["delta", "psi_hat", "sigma_hat", "n"],
        ((d, p, s, est.n) for d, p, s in est.rows()),
    )
    _write_csv(
        out / "band.csv",
        ["delta", "psi_hat", "pw_lo", "pw_hi", "unif_lo", "unif_hi"],
        zip(
            band.deltas, band.psi_hat,
            band.pointwise_lo, band.pointwise_hi,
            band.uniform_lo, band.uniform_hi,
        ),
    )
    _write_json(
        out / "diagnostics.json",
        {
            "config": {k: cfg.get(k) for k in sorted(cfg)},
            "kind": est.kind,
            "n": est.n,
            "t": est.t,
            "c_alpha": band.c_alpha,
            "c_alpha_raw": band.c_alpha_raw,
            "B": band.B,
            "alpha": band.alpha,
            "seed": seed,
            "excluded_deltas": list(band.excluded),
            "nuisance": est.diagnostics.get("folds", []),
            "warnings": est.diagnostics.get("warnings", []),
        },
    )
    return 0


def _cmd_simulate(args) -> int:
    cfg = _merge_config(args)
    dgp = _dgp_from(cfg)
    ds = simulate(dgp)
    out = _outdir(cfg)
    write_long_csv(ds, out / "panel.csv")
    _write_json(
        out / "simulate.json",
        {
            "config": {
                "kind": dgp.kind, "n": dgp.n, "t": dgp.T,
                "ul": dgp.u_l, "p": dgp.p, "seed": dgp.seed,
            },
            "dropout_fraction": float(np.mean(ds.R[:, ds.T] == 0)),
        },
    )
    return 0


def _cmd_bench(args) -> int:
    cfg = _merge_config(args)
    dgp = _dgp_from(cfg)
    grid = _grid_from(cfg, 9)
    result = run_benchmark(
        dgp,
        S=_value(cfg, "S", 50),
        grid=grid,
        specs=_specs_from(cfg),
        seed=dgp.seed,
        K=_value(cfg, "K", 2),
        threads=_value(cfg, "threads", 1),
    )
    out = _outdir(cfg)
    summary = result.summary()
    summary["config"] = {k: cfg.get(k) for k in sorted(cfg)}
    _write_json(out / "benchmark.json", summary)
    rows = []
    for kind, arr in result.estimates.items():
        for r in range(arr.shape[0]):
            for j, delta in enumerate(grid.values):
                rows.append(
                    (kind, delta, r + 1, arr[r, j], result.truths[j],
                     arr[r, j] - result.truths[j])
                )
    _write_csv(
        out / "errors.csv",
        ["estimator", "delta", "rep", "estimate", "truth", "error"],
        rows,
    )
    return 0


def _cmd_efficiency(args) -> int:
    cfg = _merge_config(args)
    delta = _value(cfg, "delta", 2.0, float)
    p = _value(cfg, "p", 0.5, float)
    tmax = _value(cfg, "tmax", 12)
    variant = cfg.get("variant", "always_treated")
    c = _value(cfg, "c", None, float) if cfg.get("c") is not None else None
    report = efficiency_curve(
        lambda T: trial_moments(T, p, delta), tmax, variant=variant, c=c
    )
    out = _outdir(cfg)
    _write_csv(
        out / "efficiency.csv",
        ["T", "lower", "upper", "exact_ratio", "variant"],
        report.as_csv_rows(),
    )
    _write_json(
        out / "efficiency.json",
        {
            "config": {k: cfg.get(k) for k in sorted(cfg)},
            "variant": report.variant,
            "delta": report.delta,
            "p": report.p,
            "crossing_T": report.crossing_T,
            "scan_T": report.scan_T,
            "scan_T_strict": report.scan_T_strict,
        },
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddshift",
        description="Odds-multiplier effect curves for panels with dropout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file; flags override its keys")
        sp.add_argument("--seed", type=int, help="required RNG seed")
        sp.add_argument("--out", help="output directory (default: current)")

    sp = sub.add_parser("estimate", help="effect curve with bands from a panel CSV")
    add_common(sp)
    sp.add_argument("--input", help="long-format panel CSV")
    sp.add_argument("--K", type=int, help="number of folds (default 2)")
    sp.add_argument("--t", type=int, help="horizon (default: last period)")
    sp.add_argument("--alpha", type=float, help="band level (default 0.05)")
    sp.add_argument("--B", type=int, help="bootstrap replicates (default 10000)")
    sp.add_argument("--grid", help="explicit JSON list of delta values")
    sp.add_argument("--grid-size", dest="grid_size", type=int)
    sp.add_argument("--grid-lo", dest="grid_lo", type=float)
    sp.add_argument("--grid-hi", dest="grid_hi", type=float)
    sp.add_argument("--pi-learner", dest="pi_learner")
    sp.add_argument("--omega-learner", dest="omega_learner")
    sp.add_argument("--m-learner", dest="m_learner")
    sp.set_defaults(fn=_cmd_estimate)

    sp = sub.add_parser("simulate", help="draw a synthetic panel CSV")
    add_common(sp)
    sp.add_argument("--kind", choices=["dropout", "trial", "observational"])
    sp.add_argument("--n", type=int)
    sp.add_argument("--t", type=int, help="number of periods")
    sp.add_argument("--ul", type=float, help="frailty lower endpoint")
    sp.add_argument("--p", type=float, help="trial treatment probability")
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("bench", help="estimator benchmark against the exact truth")
    add_common(sp)
    sp.add_argument("--kind", choices=["dropout", "trial", "observational"])
    sp.add_argument("--n", type=int)
    sp.add_argument("--t", type=int)
    sp.add_argument("--ul", type=float)
    sp.add_argument("--p", type=float)
    sp.add_argument("--S", type=int, help="number of replications")
    sp.add_argument("--K", type=int)
    sp.add_argument("--threads", type=int)
    sp.add_argument("--grid-size", dest="grid_size", type=int)
    sp.add_argument("--grid-lo", dest="grid_lo", type=float)
    sp.add_argument("--grid-hi", dest="grid_hi", type=float)
    sp.add_argument("--pi-learner", dest="pi_learner")
    sp.add_argument("--omega-learner", dest="omega_learner")
    sp.add_argument("--m-learner", dest="m_learner")
    sp.set_defaults(fn=_cmd_bench)

    sp = sub.add_parser("efficiency", help="analytic variance-ratio bounds and exact curve")
    add_common(sp)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--p", type=float)
    sp.add_argument("--tmax", type=int)
    sp.add_argument("--variant", choices=["always_treated", "never_treated"])
    sp.add_argument("--c", type=float, help="bound constant; default 1.001x its floor")
    sp.set_defaults(fn=_cmd_efficiency)

    sp = sub.add_parser("validate", help="check a panel CSV against the schema")
    add_common(sp)
    sp.add_argument("--input", help="long-format panel CSV")
    sp.set_defaults(fn=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, PanelDataError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
