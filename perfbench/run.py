"""Benchmark for oddshift: three batch workloads, timed and checked.

Run one workload in this process:

    python3 perfbench/run.py --workload estimate_cli --seed 0 --seconds 28 --trace 0

or every workload, each in a fresh process, with a table of every metric:

    python3 perfbench/run.py --workload all --seed 0 --seconds 28 --trace 0

The inputs are made from ``--seed``.  With ``--trace 0`` the run times its
set-up (a fresh-interpreter import of the package, then the input build)
four times, runs whole jobs back to back (closed loop, one process, BLAS
pinned to one thread) for about ``--seconds``, at least one, times the
set-up four more times, and reports the end-to-end metrics: medians over
the jobs, the peak RSS of the process and the median set-up time.  With
``--trace 1`` it sets up once, runs the same jobs, then runs one more job
with spans recorded around every call into the package, and reports the
per-layer metrics of that job.  Every
job's output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import benchenv  # noqa: I001  (pins BLAS threads before numpy loads)

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

END_TO_END_UNITS = {
    "job_s": "s",
    "job_cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Set-up timings taken at each end of a run.  A fresh-interpreter import
# swings by a fifth from one sample to the next on a shared 2-CPU host,
# so the median needs many samples, spread over the run.
SETUP_REPEATS = {"full": 4, "toy": 1}
IMPORT_PROBE = "import time; t = time.perf_counter(); import oddshift; print(time.perf_counter() - t)"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0, help="measurement length per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="problem sizes; 'toy' is for the smoke test")
    return parser.parse_args(argv)


def _import_seconds() -> float:
    """Time to import the package in a fresh interpreter (imports are part of set-up)."""
    env = dict(os.environ, PYTHONPATH=str(benchenv.SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def _load_golden(env: dict, workload: str, seed: int, scale: str):
    """Recorded output for this workload and seed, or None when there is none to compare."""
    if scale != "full" or not benchenv.GOLDEN.exists():
        return None, "no record"
    data = json.loads(benchenv.GOLDEN.read_text())
    if data["fingerprint"] != benchenv.fingerprint(env):
        return None, "recorded on another platform"
    record = data["records"].get(workload, {}).get(str(seed))
    return record, "checked" if record is not None else "no record for this seed"


def run_workload(args) -> dict:
    from spans import PER_LAYER_UNITS, Tracer
    from workloads import SIZES, WORKLOADS

    wl = WORKLOADS[args.workload]
    size = SIZES[args.scale][wl.name]
    workdir = benchenv.WORK / args.scale / wl.name
    env = benchenv.environment()
    golden, golden_state = _load_golden(env, wl.name, args.seed, args.scale)

    setup_runs, import_runs = [], []

    def time_setup(repeats: int):
        for _ in range(repeats):
            if args.trace == 0:
                import_runs.append(_import_seconds())
            start = time.perf_counter()
            inputs = wl.setup(args.seed, size, workdir)
            setup_runs.append(time.perf_counter() - start)
        return inputs

    inputs = time_setup(SETUP_REPEATS[args.scale] if args.trace == 0 else 1)

    failures: list[tuple[int, str]] = []
    first = None
    attempted = 0

    def one_job(tracer=None) -> tuple[float, float]:
        nonlocal first, attempted
        attempted += 1
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is not None:
                tracer.install()
            try:
                record = wl.job(inputs)
            finally:
                if tracer is not None:
                    tracer.uninstall()
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            first = record if first is None else first
            bad = wl.check(record, first, golden)
        except Exception:  # a failed job is counted and the run goes on
            bad = [traceback.format_exc()]
        failures.extend((attempted, msg) for msg in bad)
        return wall, cpu

    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall, cpu = one_job()
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    if args.trace:
        tracer = Tracer()
        traced_wall, _ = one_job(tracer)
        values = tracer.layer_metrics(traced_wall, statistics.median(walls))
        units = PER_LAYER_UNITS
        benchenv.WORK.mkdir(parents=True, exist_ok=True)
        trace_path = benchenv.WORK / f"trace-{wl.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": wl.name, "seed": args.seed, "env": env,
                                          "spans": tracer.span_records()}) + "\n")
    else:
        time_setup(SETUP_REPEATS[args.scale])
        values = {
            "job_s": statistics.median(walls),
            "job_cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(import_runs) + statistics.median(setup_runs),
        }
        units = END_TO_END_UNITS

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {wl.name} seed {args.seed} scale {args.scale}: {attempted} jobs, "
          f"golden {golden_state}")
    print(f"  job wall s: {[round(w, 4) for w in walls]}  cpu s: {[round(c, 4) for c in cpus]}")
    print(f"  setup s: {[round(s, 4) for s in setup_runs]}  import s: {[round(s, 4) for s in import_runs]}")
    for job_no, msg in failures:
        print(f"  FAILED job {job_no}: {msg}")
    failed_jobs = len({job_no for job_no, _ in failures})
    return {
        "correct": failed_jobs == 0,
        "attempted": attempted,
        "failed": failed_jobs,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Every workload, each in a fresh process so its peak RSS is its own."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: workload {name} exited with code {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    width = max(len(k) for k in merged["metrics"])
    for metric, entry in merged["metrics"].items():
        print(f"{metric:<{width}}  {entry['value']:>16.6g}  {entry['unit']}")
    print(f"jobs failed: {merged['failed']} of {merged['attempted']}")
    return merged


def main(argv=None) -> int:
    args = _parse(argv)
    benchenv.import_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args)
    else:
        if args.workload not in WORKLOADS:
            raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                             f"choose from {sorted(WORKLOADS)} or 'all'")
        result = run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
