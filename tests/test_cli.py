import errno
import json
import math
import os
import re
import subprocess
import sys

import pytest

from oddshift import cli

BASE = [sys.executable, "-m", "oddshift"]


def run(args, **kw):
    return subprocess.run(BASE + args, capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def panel_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("panel")
    res = run(
        ["simulate", "--kind", "dropout", "--n", "80", "--t", "3", "--ul", "1",
         "--seed", "7", "--out", str(out)]
    )
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture
def forbid_fit(monkeypatch):
    """Make any call of ``estimate_cross_fit`` or ``run_benchmark`` from the CLI fail the test."""

    def no_fit(*args, **kwargs):
        raise AssertionError("estimate_cross_fit or run_benchmark called")

    monkeypatch.setattr(cli, "estimate_cross_fit", no_fit)
    monkeypatch.setattr(cli, "run_benchmark", no_fit)


_RUN_CLI = """import runpy
sys.argv = ["oddshift", *{argv!r}]
try:
    runpy.run_module("oddshift", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code"""

# the simulation and efficiency API, through every function that evaluates expit, logit or ndtr
_RUN_API = """import oddshift as od
cfg = od.DgpConfig(kind="dropout", n=200, T=3, u_l=1.0, seed=1)
trial = od.DgpConfig(kind="trial", n=10, T=3, p=0.4, seed=0)
od.estimate_cross_fit(od.simulate(cfg), 2, 0, od.oracle_specs(cfg, 3), [0.5, 2.0], 3)
for dgp in (cfg, trial):
    od.true_effect_curve(dgp, [0.5, 2.0], 3, draws=100)
    od.exact_effect_curve(dgp, [0.5, 2.0], 3)
od.efficiency_curve(lambda T: od.trial_moments(T, 0.5, 2.0), 4)"""


@pytest.mark.parametrize("argv", [
    None,
    ["--help"],
    ["validate", "--input", "{panel}", "--seed", "0"],
    ["estimate", "--input", "{panel}", "--seed", "5", "--t", "3", "--B", "200", "--out", "{out}"],
    ["simulate", "--kind", "dropout", "--n", "80", "--t", "3", "--seed", "7", "--out", "{out}"],
    ["bench", "--n", "100", "--t", "3", "--S", "1", "--grid-size", "3", "--seed", "0",
     "--out", "{out}"],
    ["efficiency", "--tmax", "4", "--seed", "0", "--out", "{out}"],
    "api",
], ids=["import", "help", "validate", "estimate", "simulate", "bench", "efficiency", "api"])
def test_cold_start_does_not_import_scipy_special_or_stats(argv, panel_dir, tmp_path):
    """No entry point loads a scipy module: ``import oddshift``, every command
    and the simulation and efficiency functions.  ``import oddshift``,
    ``--help`` and ``validate`` draw nothing, so they load no ``numpy.random``
    either."""
    if argv is None:
        code = "import oddshift"
    elif argv == "api":
        code = _RUN_API
    else:
        panel = panel_dir / "panel.csv"
        code = _RUN_CLI.format(argv=[arg.format(panel=panel, out=tmp_path) for arg in argv])
    draws = argv is not None and argv[:1] not in (["--help"], ["validate"])
    banned = ("scipy",) if draws else ("scipy", "numpy.random")
    loaded = f"sorted(m for m in sys.modules if any((m + '.').startswith(b + '.') for b in {banned}))"
    probe = f"import sys\n{code}\nprint({loaded})"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


class TestSimulateCommand:
    def test_outputs(self, panel_dir):
        assert (panel_dir / "panel.csv").exists()
        assert (panel_dir / "panel.csv.meta.json").exists()
        meta = json.loads((panel_dir / "simulate.json").read_text())
        assert meta["config"]["n"] == 80
        assert 0.0 <= meta["dropout_fraction"] <= 1.0

    def test_reproducible(self, panel_dir, tmp_path):
        res = run(
            ["simulate", "--kind", "dropout", "--n", "80", "--t", "3", "--ul", "1",
             "--seed", "7", "--out", str(tmp_path)]
        )
        assert res.returncode == 0
        assert (tmp_path / "panel.csv").read_bytes() == (panel_dir / "panel.csv").read_bytes()

    def test_seed_required(self, tmp_path):
        res = run(["simulate", "--kind", "trial", "--n", "10", "--t", "2", "--out", str(tmp_path)])
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "ConfigError"


class TestValidateCommand:
    def test_valid_panel(self, panel_dir):
        res = run(["validate", "--input", str(panel_dir / "panel.csv"), "--seed", "0"])
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["violations"] == []
        assert payload["n"] == 80

    def test_missing_r_column(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,time,x1,a,y\ns1,1,0.5,1,\n", encoding="utf-8")
        res = run(["validate", "--input", str(bad), "--seed", "0"])
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "PanelDataError"

    def test_non_numeric_outcome_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,time,x1,a,y,r\ns1,1,0.5,1,abc,1\n", encoding="utf-8")
        res = run(["validate", "--input", str(bad), "--seed", "0"])
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["error"] == "PanelDataError"
        assert err["message"].startswith("line 2: ")

    def test_non_monotone_panel_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "id,time,x1,a,y,r\ns1,1,0.5,1,1.0,1\ns1,2,,,,0\ns1,3,0.5,1,1.0,1\n", encoding="utf-8"
        )
        res = run(["validate", "--input", str(bad), "--seed", "0"])
        assert res.returncode == 2
        assert res.stdout == ""
        err = json.loads(res.stderr)
        assert err == {
            "error": "PanelDataError",
            "message": "subject 's1': non-monotone retention at t=3",
        }


class TestEstimateCommand:
    def test_end_to_end_and_determinism(self, panel_dir, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        args = [
            "estimate", "--input", str(panel_dir / "panel.csv"), "--seed", "5",
            "--K", "2", "--t", "3", "--B", "200",
            "--grid", "[0.5, 1.0, 2.0]",
            "--omega-learner", "knn:20",
        ]
        for out in (out1, out2):
            res = run(args + ["--out", str(out)])
            assert res.returncode == 0, res.stderr
        for name in ("effect_curve.csv", "band.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        diags = []
        for out in (out1, out2):
            diag = json.loads((out / "diagnostics.json").read_text())
            diag["config"].pop("out")  # provenance echo names the output dir
            diags.append(diag)
        assert diags[0] == diags[1]
        header, *rows = (out1 / "effect_curve.csv").read_text().strip().splitlines()
        assert header == "delta,psi_hat,sigma_hat,n"
        assert len(rows) == 3
        # full-precision rendering round-trips exactly
        psi = float(rows[0].split(",")[1])
        assert format(psi, ".17g") == rows[0].split(",")[1]
        diag = json.loads((out1 / "diagnostics.json").read_text())
        assert diag["c_alpha"] >= 1.959963
        band_header = (out1 / "band.csv").read_text().splitlines()[0]
        assert band_header == "delta,psi_hat,pw_lo,pw_hi,unif_lo,unif_hi"

    def test_delta_one_recovers_sample_mean(self, tmp_path):
        sim_dir = tmp_path / "trial"
        res = run(
            ["simulate", "--kind", "trial", "--n", "60", "--t", "2",
             "--seed", "3", "--out", str(sim_dir)]
        )
        assert res.returncode == 0
        out = tmp_path / "est"
        res = run(
            ["estimate", "--input", str(sim_dir / "panel.csv"), "--seed", "4",
             "--t", "2", "--B", "200", "--grid", "[1.0]", "--out", str(out)]
        )
        assert res.returncode == 0, res.stderr
        row = (out / "effect_curve.csv").read_text().strip().splitlines()[1]
        psi = float(row.split(",")[1])
        ys = []
        for line in (sim_dir / "panel.csv").read_text().strip().splitlines()[1:]:
            parts = line.split(",")
            if parts[1] == "2" and parts[-2]:
                ys.append(float(parts[-2]))
        mean = sum(ys) / len(ys)
        sd = (sum((y - mean) ** 2 for y in ys) / len(ys)) ** 0.5
        assert abs(psi - mean) < 3 * sd / len(ys) ** 0.5 + 0.35

    def test_config_file_with_flag_override(self, panel_dir, tmp_path):
        cfg = {
            "input": str(panel_dir / "panel.csv"),
            "seed": 5,
            "K": 2,
            "t": 3,
            "B": 200,
            "grid": [0.5, 1.0, 2.0],
            "omega_learner": "knn:20",
            "out": str(tmp_path / "from_config"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        res = run(["estimate", "--config", str(cfg_path)])
        assert res.returncode == 0, res.stderr
        override = tmp_path / "override"
        res = run(["estimate", "--config", str(cfg_path), "--out", str(override)])
        assert res.returncode == 0
        assert (override / "effect_curve.csv").read_bytes() == (
            tmp_path / "from_config" / "effect_curve.csv"
        ).read_bytes()

    def test_unknown_config_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "bogus": 2}), encoding="utf-8")
        res = run(["estimate", "--config", str(cfg_path)])
        assert res.returncode == 2

    def test_missing_input(self, tmp_path):
        res = run(["estimate", "--seed", "1", "--out", str(tmp_path)])
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "flags,config",
        [
            (["--omega-learner", "knn:abc"], {}),
            (["--m-learner", "ridge:x"], {}),
            (["--m-learner", "ridge:nan"], {}),
            (["--m-learner", "ridge:inf"], {}),
            (["--omega-learner", "knn:"], {}),
            (["--grid", "notjson"], {}),
            (["--grid", '[1,"a"]'], {}),
            ([], {"K": "two"}),
        ],
    )
    def test_unparsable_value_exits_2(self, panel_dir, tmp_path, flags, config):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"input": str(panel_dir / "panel.csv"), "seed": 1, "B": 200, **config}
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        res = run(["estimate", "--config", str(cfg_path), "--out", str(tmp_path)] + flags)
        assert res.returncode == 2, res.stderr
        err = json.loads(res.stderr)
        assert err["error"] == "ConfigError"
        band = ("alpha must lie in (0,1)", "need at least 100 bootstrap replicates")
        assert err["message"] not in band

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--alpha", "2"], "alpha must lie in (0,1)"),
            (["--B", "0"], "need at least 100 bootstrap replicates"),
        ],
    )
    def test_band_options_checked_before_any_fit(
        self, panel_dir, tmp_path, monkeypatch, capsys, flags, message
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("estimate_cross_fit called")

        monkeypatch.setattr(cli, "estimate_cross_fit", no_fit)
        code = cli.main(
            ["estimate", "--input", str(panel_dir / "panel.csv"), "--seed", "1",
             "--out", str(tmp_path)] + flags
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": message}

    @pytest.mark.parametrize(
        "flags", [["--grid", "[0.5,NaN,2.0]"], ["--grid-hi", "inf", "--grid-size", "3"]]
    )
    def test_non_finite_grid_checked_before_any_fit(
        self, panel_dir, tmp_path, forbid_fit, capsys, flags
    ):
        code = cli.main(
            ["estimate", "--input", str(panel_dir / "panel.csv"), "--seed", "1",
             "--out", str(tmp_path)] + flags
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": "grid values must be finite"}

    def test_flag_values_recorded_with_their_types(self, panel_dir, tmp_path):
        out = tmp_path / "est"
        code = cli.main(
            ["estimate", "--input", str(panel_dir / "panel.csv"), "--seed", "5", "--K", "2",
             "--t", "3", "--alpha", "0.1", "--B", "200", "--grid-size", "3", "--grid-lo", "0.5",
             "--grid-hi", "2", "--m-learner", "ridge:0.25", "--out", str(out)]
        )
        assert code == 0
        config = json.loads((out / "diagnostics.json").read_text())["config"]
        assert {k: (v, type(v)) for k, v in config.items()} == {
            "input": (str(panel_dir / "panel.csv"), str),
            "seed": (5, int),
            "K": (2, int),
            "t": (3, int),
            "alpha": (0.1, float),
            "B": (200, int),
            "grid_size": (3, int),
            "grid_lo": (0.5, float),
            "grid_hi": (2.0, float),
            "m_learner": ("ridge:0.25", str),
            "out": (str(out), str),
        }

    def test_horizon_beyond_panel_names_it(self, panel_dir, tmp_path):
        res = run(
            ["estimate", "--input", str(panel_dir / "panel.csv"), "--seed", "1",
             "--t", "7", "--out", str(tmp_path)]
        )
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err == {"error": "ConfigError", "message": "no recorded outcome at horizon t=7"}


@pytest.mark.parametrize("n_periods", [0, -2, "x"])
@pytest.mark.parametrize("command", ["validate", "estimate"])
def test_bad_sidecar_horizon_exits_2(panel_dir, tmp_path, forbid_fit, capsys, command, n_periods):
    for name in ("panel.csv", "panel.csv.meta.json"):
        (tmp_path / name).write_bytes((panel_dir / name).read_bytes())
    meta_path = tmp_path / "panel.csv.meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta_path.write_text(json.dumps({**meta, "n_periods": n_periods}), encoding="utf-8")
    code = cli.main(
        [command, "--input", str(tmp_path / "panel.csv"), "--seed", "0", "--out", str(tmp_path)]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    message = f"{meta_path}: n_periods must be an integer >= 1, got {n_periods!r}"
    assert err == {"error": "PanelDataError", "message": message}


@pytest.mark.parametrize(
    "command,foreign",
    [
        ("estimate", "S"),
        ("simulate", "K"),
        ("bench", "grid"),
        ("efficiency", "input"),
        ("validate", "n"),
    ],
)
def test_unknown_config_key_rejected_by_every_subcommand(tmp_path, capsys, command, foreign):
    for key in ("bogus", foreign, "fn", "command"):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, key: 2}), encoding="utf-8")
        assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": f"unknown config keys: [{key!r}]"}


# (argv, keys of a config file that also sets seed and out, or None for no config file,
# message); estimate also gets --input
BAD_INPUTS = [
    (["estimate", "--K", "abc"], None, "K must be int, got 'abc'"),
    (["estimate", "--K", "2.5"], None, "K must be int, got '2.5'"),
    (["estimate", "--bogus", "1"], None, "unrecognized arguments: --bogus 1"),
    (["estimate"], {"K": 2.7}, "K must be int, got 2.7"),
    (["estimate"], {"B": 200.9}, "B must be int, got 200.9"),
    (["estimate"], {"seed": 1.9}, "seed must be int, got 1.9"),
    (["estimate", "--seed", "-3"], None, "seed must be a non-negative integer, got -3"),
    (["simulate", "--seed", "-1"], None, "seed must be a non-negative integer, got -1"),
    (["bench"], {"seed": -2}, "seed must be a non-negative integer, got -2"),
    (["estimate"], {"grid_size": 5.5}, "grid_size must be int, got 5.5"),
    (["estimate"], {"alpha": True}, "alpha must be float, got True"),
    (["estimate"], {"out": 5}, "out must be str, got 5"),
    (["simulate"], {"t": True}, "t must be int, got True"),
    (["simulate"], {"n": 50.5}, "n must be int, got 50.5"),
    (["simulate", "--kind", "foo"], {}, "unknown DGP kind 'foo'"),
    (["efficiency", "--variant", "foo"], {}, "unknown variant 'foo'"),
    (["efficiency", "--delta", "nan"], {}, "delta must be finite and positive"),
    (["efficiency", "--tmax", "0"], {}, "T_max must be an integer >= 1, got 0"),
    (["simulate", "--ul", "nan"], {}, "u_l must be finite and at most 5, got nan"),
    ([], None, "the following arguments are required: command"),
    (["estimate", "--pi-learner", "logistic:7"], {},
     "learner 'logistic' takes no argument, got 'logistic:7'"),
    (["estimate", "--m-learner", "zero:3"], {}, "learner 'zero' takes no argument, got 'zero:3'"),
    (["estimate", "--m-learner", "ridge:nan"], {},
     "bad learner argument in 'ridge:nan': ridge needs a finite lam >= 0, got nan"),
    (["estimate", "--omega-learner", "knn:0"], {},
     "bad learner argument in 'knn:0': knn needs an integer k >= 1, got 0"),
]


@pytest.mark.parametrize("in_process", [False, True], ids=["subprocess", "in_process"])
@pytest.mark.parametrize(
    "argv,config,message",
    BAD_INPUTS,
    ids=[" ".join(argv[1:]) or json.dumps(config) if argv else "no subcommand"
         for argv, config, _ in BAD_INPUTS],
)
def test_bad_input_exits_2_with_one_json_line(
    panel_dir, tmp_path, forbid_fit, capsys, argv, config, message, in_process
):
    if argv[:1] == ["estimate"]:
        argv = argv + ["--input", str(panel_dir / "panel.csv")]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "out": str(tmp_path), **config}))
        argv = argv + ["--config", str(cfg_path)]
    if in_process:
        code = cli.main(argv)
        out, err = capsys.readouterr()
    else:
        res = run(argv)
        code, out, err = res.returncode, res.stdout, res.stderr
    assert code == 2
    assert out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "ConfigError", "message": message}
    ]


@pytest.mark.parametrize("in_process", [False, True], ids=["subprocess", "in_process"])
@pytest.mark.parametrize(
    "case", ["config_is_a_directory", "input_is_a_directory", "sidecar_is_a_directory",
             "simulate_out_is_a_file", "estimate_out_is_a_file", "bench_out_below_a_file",
             "sidecar_not_json", "sidecar_not_an_object", "sidecar_not_utf8", "csv_not_utf8",
             "config_not_utf8"]
)
def test_refused_path_exits_2_with_one_json_line(
    panel_dir, tmp_path, forbid_fit, capsys, case, in_process
):
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    a_file = tmp_path / "a_file"
    a_file.write_text("not a directory\n", encoding="utf-8")
    csv_path = tmp_path / "panel.csv"
    csv_path.write_bytes((panel_dir / "panel.csv").read_bytes())
    is_dir, exists = os.strerror(errno.EISDIR), os.strerror(errno.EEXIST)
    sidecar = tmp_path / "panel.csv.meta.json"
    not_utf8 = "'utf-8' codec can't decode byte 0xff in position 3: invalid start byte"
    argv, error, message = {
        "config_is_a_directory": (
            ["simulate", "--config", str(a_dir), "--seed", "1"],
            "ConfigError", f"cannot read config file {a_dir}: {is_dir}"),
        "input_is_a_directory": (
            ["validate", "--input", str(a_dir), "--seed", "1"],
            "PanelDataError", f"cannot read {a_dir}: {is_dir}"),
        "sidecar_is_a_directory": (
            ["validate", "--input", str(csv_path), "--seed", "1"],
            "PanelDataError", f"cannot read {csv_path}.meta.json: {is_dir}"),
        "simulate_out_is_a_file": (
            ["simulate", "--n", "10", "--t", "2", "--seed", "1", "--out", str(a_file)],
            "ConfigError", f"cannot create output directory {a_file}: {exists}"),
        "estimate_out_is_a_file": (
            ["estimate", "--input", str(panel_dir / "panel.csv"), "--seed", "1",
             "--out", str(a_file)],
            "ConfigError", f"cannot create output directory {a_file}: {exists}"),
        "bench_out_below_a_file": (
            ["bench", "--n", "40", "--t", "2", "--S", "1", "--seed", "1",
             "--out", str(a_file / "sub")],
            "ConfigError",
            f"cannot create output directory {a_file / 'sub'}: {os.strerror(errno.ENOTDIR)}"),
        "sidecar_not_json": (
            ["validate", "--input", str(csv_path), "--seed", "1"],
            "PanelDataError", f"{sidecar}: not valid JSON: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        "sidecar_not_an_object": (
            ["validate", "--input", str(csv_path), "--seed", "1"],
            "PanelDataError", f"{sidecar}: sidecar must be a JSON object"),
        "sidecar_not_utf8": (
            ["validate", "--input", str(csv_path), "--seed", "1"],
            "PanelDataError", f"{sidecar}: not UTF-8 text: {not_utf8}"),
        "csv_not_utf8": (
            ["validate", "--input", str(csv_path), "--seed", "1"],
            "PanelDataError", f"{csv_path}: not UTF-8 text: {not_utf8}"),
        "config_not_utf8": (
            ["simulate", "--config", str(a_file), "--seed", "1"],
            "ConfigError", f"config file {a_file} is not UTF-8 text: {not_utf8}"),
    }[case]
    if case == "sidecar_is_a_directory":
        sidecar.mkdir()
    if case.startswith("sidecar_not_"):
        sidecar.write_bytes({"json": b"{not json", "an_object": b"[1]",
                             "utf8": b'{"n\xff": 1}'}[case[len("sidecar_not_"):]])
    if case == "csv_not_utf8":
        csv_path.write_bytes(b"id,\xfftime,a,y,r\r\n")
    if case == "config_not_utf8":
        a_file.write_bytes(b'{"n\xff": 1}')
    if in_process:
        code = cli.main(argv)
        out, err = capsys.readouterr()
    else:
        res = run(argv)
        code, out, err = res.returncode, res.stdout, res.stderr
    assert code == 2
    assert out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": error, "message": message}
    ]


@pytest.mark.parametrize("text,kind", [("[1]", "list"), ("5", "int"), ('"seed"', "str")])
def test_config_must_be_an_object(tmp_path, capsys, text, kind):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text, encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg_path), "--seed", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError", "message": f"config must be a JSON object, got {kind}"}


@pytest.mark.parametrize(
    "command,options",
    [
        ("estimate", ["input", "K", "t", "alpha", "B", "grid", "grid-size", "grid-lo",
                      "grid-hi", "pi-learner", "omega-learner", "m-learner"]),
        ("simulate", ["kind", "n", "t", "ul", "p"]),
        ("bench", ["kind", "n", "t", "ul", "p", "S", "K", "threads", "grid-size", "grid-lo",
                   "grid-hi", "pi-learner", "omega-learner", "m-learner"]),
        ("efficiency", ["delta", "p", "tmax", "variant", "c"]),
        ("validate", ["input"]),
    ],
)
def test_help_lists_each_option_once(command, options):
    res = run([command, "--help"])
    assert res.returncode == 0, res.stderr
    listed = re.findall(r"^  (--[\w-]+)", res.stdout, flags=re.M)
    assert listed == ["--" + name for name in ["config", "seed", "out", *options]]


class TestBenchCommand:
    def test_small_bench(self, tmp_path):
        res = run(
            ["bench", "--kind", "dropout", "--n", "80", "--t", "2", "--ul", "1",
             "--S", "2", "--seed", "3", "--grid-size", "2",
             "--omega-learner", "knn:20", "--out", str(tmp_path)]
        )
        assert res.returncode == 0, res.stderr
        summary = json.loads((tmp_path / "benchmark.json").read_text())
        assert set(summary["rmse"]) == {"cross_fit", "plugin", "ipw", "no_censoring"}
        lines = (tmp_path / "errors.csv").read_text().strip().splitlines()
        assert lines[0] == "estimator,delta,rep,estimate,truth,error"
        assert len(lines) == 1 + 4 * 2 * 2  # kinds x reps x grid

    def test_zero_threads_exits_2(self, tmp_path):
        res = run(
            ["bench", "--kind", "trial", "--n", "80", "--t", "2", "--S", "1", "--seed", "3",
             "--threads", "0", "--out", str(tmp_path)]
        )
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1
        assert json.loads(res.stderr) == {
            "error": "ConfigError", "message": "threads must be an integer >= 1, got 0"
        }
        assert not (tmp_path / "benchmark.json").exists()


class TestEfficiencyCommand:
    def test_monotone_ratio_csv(self, tmp_path):
        res = run(
            ["efficiency", "--delta", "5", "--p", "0.5", "--tmax", "12",
             "--seed", "0", "--out", str(tmp_path)]
        )
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "efficiency.csv").read_text().strip().splitlines()
        assert lines[0] == "T,lower,upper,exact_ratio,variant"
        ratios = [float(line.split(",")[3]) for line in lines[1:]]
        assert len(ratios) == 12
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        info = json.loads((tmp_path / "efficiency.json").read_text())
        assert info["scan_T"] >= info["crossing_T"]

    def test_long_horizon_finite(self, tmp_path):
        # the term-by-term binomial sums overflowed here from T = 282
        res = run(
            ["efficiency", "--delta", "5", "--p", "0.5", "--tmax", "300",
             "--seed", "0", "--out", str(tmp_path)]
        )
        assert res.returncode == 0, res.stderr
        rows = [line.split(",") for line in
                (tmp_path / "efficiency.csv").read_text().strip().splitlines()[1:]]
        assert len(rows) == 300
        assert all(math.isfinite(float(v)) for row in rows for v in row[1:4])

    def test_horizon_beyond_double_precision_exits_3(self, tmp_path):
        # at delta = 2, p = 0.5 the always-treated variance 2^T E[Y^2] leaves double range first
        res = run(["efficiency", "--tmax", "1100", "--seed", "0", "--out", str(tmp_path)])
        assert res.returncode == 3, res.stderr
        err = json.loads(res.stderr)
        assert err == {
            "error": "EstimationError",
            "message": "the exact variance at T=1014 is beyond double precision",
        }

    @pytest.mark.parametrize("delta, scan", [("2", None), ("0.5", 4)])
    def test_never_treated_certificate_is_its_own_arms(self, tmp_path, delta, scan):
        # at the defaults the always-treated arm's scan_T of 3 used to be reported here
        res = run(["efficiency", "--variant", "never_treated", "--delta", delta, "--seed", "0",
                   "--out", str(tmp_path)])
        assert res.returncode == 0, res.stderr
        info = json.loads((tmp_path / "efficiency.json").read_text())
        assert (info["scan_T"], info["scan_T_strict"]) == (scan, None if scan is None else scan - 1)
