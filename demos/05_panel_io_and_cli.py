"""Panel CSV round trips, validation, and the command-line interface.

The long CSV schema is id,time,x1..xd,a,y,r with one row per observed
subject-period; rows missing after a subject's last retained period mean
the subject left.  A JSON sidecar records the shape and a content hash.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import oddshift as od

with tempfile.TemporaryDirectory(prefix="oddshift_demo_") as tmp:
    workdir = Path(tmp)

    ds = od.simulate(od.DgpConfig(kind="dropout", n=150, T=4, u_l=1.0, seed=3))
    csv_path = workdir / "panel.csv"
    od.write_long_csv(ds, csv_path)

    meta = json.loads((workdir / "panel.csv.meta.json").read_text())
    print("sidecar:", {k: meta[k] for k in ("n", "n_periods", "d", "outcome_times")})

    again = od.load_long_csv(csv_path)
    same = all(np.array_equal(getattr(again, k), getattr(ds, k), equal_nan=True) for k in "XAYR")
    print("round trip preserves every record:", same and again.ids == ds.ids)

    print("\nthe same operations via the CLI:")
    for args in (
        ["simulate", "--kind", "dropout", "--n", "150", "--t", "4", "--ul", "1",
         "--seed", "3", "--out", str(workdir / "cli")],
        ["validate", "--input", str(workdir / "cli" / "panel.csv"), "--seed", "0"],
        ["estimate", "--input", str(workdir / "cli" / "panel.csv"), "--seed", "5",
         "--t", "4", "--B", "200", "--grid", "[0.5,1.0,2.0]",
         "--omega-learner", "knn:30", "--out", str(workdir / "cli" / "est")],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "oddshift", *args], capture_output=True, text=True
        )
        print(f"  oddshift {args[0]} ... -> exit {proc.returncode}")

    print("\nestimate outputs (removed with the temporary directory):")
    for name in ("effect_curve.csv", "band.csv", "diagnostics.json"):
        print(f"  {name}: {(workdir / 'cli' / 'est' / name).stat().st_size} bytes")

print("\nevery command needs an explicit --seed; reruns are byte-identical.")
