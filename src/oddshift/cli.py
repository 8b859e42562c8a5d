"""Batch command-line front end.

Five subcommands: ``estimate``, ``simulate``, ``bench``, ``efficiency``,
``validate``.  Parameters come from an optional JSON config file with
command-line flags taking precedence; a seed is always required, so every
command is a pure function of its inputs and reruns are byte-identical.
Numbers are written with 17 significant digits so downstream diffs are
exact.  Exit codes: 0 ok, 2 input or configuration error (a config,
input or output path the operating system refuses too), 3 runtime
estimation error; failures print a one-line JSON error to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .efficiency import efficiency_curve, trial_moments
from .errors import ConfigError, EstimationError, PanelDataError, check_seed
from .estimator import estimate_cross_fit
from .inference import check_band_options, uniform_band
from .intervention import DeltaGrid
from .learners import LearnerSpec
from .nuisance import NuisanceSpecs
from .panel import load_long_csv, write_long_csv
from .simulation import DgpConfig, run_benchmark, simulate

__all__ = ["main"]


# Every option of every subcommand: config key -> (type, default, help).  The flag is the
# key with "--" before it and "-" for "_"; flag text and config values both go through
# ``_convert``.  A type of None passes the value on as given; a default of None means
# none, or one the subcommand sets.
_OPTIONS = {
    "config": (str, None, "JSON config file; flags override its keys"),
    "seed": (int, None, "required RNG seed"),
    "out": (str, ".", "output directory"),
    "input": (str, None, "long-format panel CSV"),
    "kind": (str, "dropout", "generator: dropout, trial or observational"),
    "n": (int, 1000, "number of subjects"),
    "t": (int, 10, "periods; estimate's horizon defaults to the panel's last period"),
    "ul": (float, 1.0, "frailty lower endpoint"),
    "p": (float, 0.5, "trial treatment probability"),
    "K": (int, 2, "number of folds"),
    "alpha": (float, 0.05, "band level"),
    "B": (int, 10_000, "bootstrap replicates"),
    "S": (int, 50, "number of replications"),
    "threads": (int, 1, "worker processes; results do not depend on them"),
    "grid": (None, None, "explicit JSON list of delta values"),
    "grid_size": (int, None, "log-spaced delta values (estimate 25, bench 9)"),
    "grid_lo": (float, 0.1, "smallest log-spaced delta"),
    "grid_hi": (float, 5.0, "largest log-spaced delta"),
    "pi_learner": (str, "logistic_irls", "treatment propensity learner"),
    "omega_learner": (str, "logistic_irls", "retention propensity learner"),
    "m_learner": (str, "ridge:1e-6", "continuation-value learner"),
    "delta": (float, 2.0, "odds multiplier"),
    "tmax": (int, 12, "largest horizon"),
    "variant": (str, "always_treated", "fixed regime: always_treated or never_treated"),
    "c": (float, None, "bound constant; default 1.001x its floor"),
}
_DGP = ("kind", "n", "t", "ul", "p")  # DgpConfig's fields, in order
_LEARNERS = ("pi_learner", "omega_learner", "m_learner")  # NuisanceSpecs' fields, in order
_GRID = ("grid_size", "grid_lo", "grid_hi")


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


def _convert(key: str, val):
    """``val`` as option ``key``'s type; flags arrive as text, config values as JSON.

    An int option takes no bool and no non-integral number, a float option
    no bool, and a str option text only.  None (not given) passes through.
    """
    kind = _OPTIONS[key][0]
    if val is None or kind is None or (kind is str and isinstance(val, str)):
        return val
    integral = not isinstance(val, float) or val.is_integer()
    if kind is not str and not isinstance(val, bool) and (kind is float or integral):
        try:
            return kind(val)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{key} must be {kind.__name__}, got {val!r}")


def _merge_config(args: argparse.Namespace) -> dict:
    """The config file's keys, overridden by the flags given, each converted by ``_convert``.

    Only the subcommand's options are accepted.
    """
    names = ("seed", "out", *_COMMANDS[args.command][2])
    cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
        unknown = set(cfg) - set(names)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg.update((k, getattr(args, k)) for k in names if getattr(args, k) is not None)
    cfg = {k: _convert(k, v) for k, v in cfg.items()}
    if cfg.get("seed") is None:
        raise ConfigError("a seed is required (no wall-clock default)")
    check_seed(cfg["seed"])
    return cfg


def _get(cfg: dict, key: str, default=None):
    """The value given for ``key``; if none, ``default``, or else the table's default."""
    val = cfg.get(key)
    if val is not None:
        return val
    return _OPTIONS[key][1] if default is None else default


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
        _get(cfg, "grid_lo"), _get(cfg, "grid_hi"), _get(cfg, "grid_size", size)
    )


def _dgp_from(cfg: dict) -> DgpConfig:
    return DgpConfig(*(_get(cfg, k) for k in _DGP), seed=cfg["seed"])


def _specs_from(cfg: dict) -> NuisanceSpecs:
    return NuisanceSpecs(*(LearnerSpec.from_config(_get(cfg, k)) for k in _LEARNERS))


def _outdir(cfg: dict) -> Path:
    out = Path(_get(cfg, "out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def _cmd_validate(cfg: dict) -> int:
    if not cfg.get("input"):
        raise ConfigError("validate needs --input")
    ds = load_long_csv(cfg["input"])
    payload = {
        "n": ds.n,
        "n_periods": ds.T,
        "d": ds.d,
        "outcome_times": list(ds.outcome_times),
        "violations": [],  # load_long_csv rejects a panel with any
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_estimate(cfg: dict) -> int:
    if not cfg.get("input"):
        raise ConfigError("estimate needs --input")
    ds = load_long_csv(cfg["input"])
    alpha = _get(cfg, "alpha")
    B = _get(cfg, "B")
    seed = cfg["seed"]
    grid = _grid_from(cfg, 25)
    specs = _specs_from(cfg)
    check_band_options(alpha, B)
    out = _outdir(cfg)
    est, eif = estimate_cross_fit(ds, _get(cfg, "K"), seed, specs, grid, _get(cfg, "t", ds.T))
    band = uniform_band(eif, est, alpha=alpha, B=B, seed=seed)
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
            "config": cfg,
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


def _cmd_simulate(cfg: dict) -> int:
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


def _cmd_bench(cfg: dict) -> int:
    dgp = _dgp_from(cfg)
    grid = _grid_from(cfg, 9)
    out = _outdir(cfg)
    result = run_benchmark(
        dgp,
        S=_get(cfg, "S"),
        grid=grid,
        specs=_specs_from(cfg),
        seed=dgp.seed,
        K=_get(cfg, "K"),
        threads=_get(cfg, "threads"),
    )
    summary = result.summary()
    summary["config"] = cfg
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


def _cmd_efficiency(cfg: dict) -> int:
    p, delta = _get(cfg, "p"), _get(cfg, "delta")
    report = efficiency_curve(
        lambda T: trial_moments(T, p, delta),
        _get(cfg, "tmax"),
        variant=_get(cfg, "variant"),
        c=_get(cfg, "c"),
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
            "config": cfg,
            "variant": report.variant,
            "delta": report.delta,
            "p": report.p,
            "crossing_T": report.crossing_T,
            "scan_T": report.scan_T,
            "scan_T_strict": report.scan_T_strict,
        },
    )
    return 0


# subcommand -> (handler, help, its options besides config, seed and out)
_COMMANDS = {
    "estimate": (_cmd_estimate, "effect curve with bands from a panel CSV",
                 ("input", "K", "t", "alpha", "B", "grid", *_GRID, *_LEARNERS)),
    "simulate": (_cmd_simulate, "draw a synthetic panel CSV", _DGP),
    "bench": (_cmd_bench, "estimator benchmark against the exact truth",
              (*_DGP, "S", "K", "threads", *_GRID, *_LEARNERS)),
    "efficiency": (_cmd_efficiency, "analytic variance-ratio bounds and exact curve",
                   ("delta", "p", "tmax", "variant", "c")),
    "validate": (_cmd_validate, "check a panel CSV against the schema", ("input",)),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``ConfigError``, so they leave ``main`` as one JSON line."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oddshift",
        description="Odds-multiplier effect curves for panels with dropout",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, help_, names) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_)
        for name in ("config", "seed", "out", *names):
            _, default, text = _OPTIONS[name]
            if default is not None:
                text += f" (default: {default!r})"
            sp.add_argument("--" + name.replace("_", "-"), help=text)
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(_merge_config(args))
    except (ConfigError, PanelDataError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
