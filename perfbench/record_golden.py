"""Record the benchmark's golden outputs for chosen seeds.

    python3 perfbench/record_golden.py --seeds 0-10
    python3 perfbench/record_golden.py --seeds 4 --workload oracle_20k

Runs each workload's full-size job once per seed, checks it with every
check that needs no record, and stores the output in
``perfbench/golden.json`` under the platform fingerprint (Python, numpy,
scipy, OpenBLAS build and kernel, machine).  Later runs compare against
the record only on the same fingerprint: the values are bit-stable on
one platform, not across BLAS kernels.  Records made on another
platform are replaced.
"""

from __future__ import annotations

import benchenv  # noqa: I001  (pins BLAS threads before numpy loads)

import argparse
import json
import sys


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="one seed, or a range like 0-10")
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    args = parser.parse_args(argv)

    benchenv.import_package()
    from workloads import SIZES, WORKLOADS

    fp = benchenv.fingerprint(benchenv.environment())
    data = {"fingerprint": fp, "records": {}}
    if benchenv.GOLDEN.exists():
        stored = json.loads(benchenv.GOLDEN.read_text())
        if stored["fingerprint"] == fp:
            data = stored
    for name in args.workload or list(WORKLOADS):
        wl = WORKLOADS[name]
        for seed in args.seeds:
            record = wl.job(wl.setup(seed, SIZES["full"][name], benchenv.WORK / "full" / name))
            bad = wl.check(record, record, None)
            if bad:
                sys.exit(f"{name} seed {seed}: not recorded, the output fails its checks: {bad}")
            data["records"].setdefault(name, {})[str(seed)] = {k: record[k] for k in wl.golden_keys}
            print(f"recorded {name} seed {seed}", flush=True)
    benchenv.GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
