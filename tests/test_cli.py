import json
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
    """Make any call of ``estimate_cross_fit`` from the CLI fail the test."""

    def no_fit(*args, **kwargs):
        raise AssertionError("estimate_cross_fit called")

    monkeypatch.setattr(cli, "estimate_cross_fit", no_fit)


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
