"""Smoke test of the benchmark: every workload at toy sizes, both run kinds.

Runs ``perfbench/run.py`` the way the benchmark is run, in fresh
processes, and asserts that every named metric is present with its unit,
that every job passes its output check, and that the traced run's self
times plus the untraced remainder add up to the traced job time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import PER_LAYER_UNITS  # noqa: E402

WORKLOADS = ("estimate_cli", "oracle_20k", "protocol_rep")
END_TO_END = {"job_s": "s", "job_cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_file_names_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    result = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    result = _run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER_UNITS
    total = metrics["trace.self_sum_s"] + metrics["trace.remainder_s"]
    assert abs(total - metrics["trace.job_s"]) <= 1e-9 * metrics["trace.job_s"]
    assert 0 <= metrics["trace.remainder_s"] < metrics["trace.job_s"]
