"""Test of the benchmark itself: work counts repeat exactly for one seed.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

Makes two traced runs of each workload (all three by default) with the same
seed and asserts that every count in the per-layer metrics (units count,
bits and bytes) is identical across the two runs, and that both runs passed
their output checks.  Exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT_UNITS = ("count", "bits", "bytes")
NAMES = ("scan_1e6", "tables_1e7", "classify_large")


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise AssertionError(f"{workload}: traced run failed:\n{proc.stderr}")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in EXACT_UNITS}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=list(NAMES))
    args = ap.parse_args()
    bad = 0
    for name in args.workloads:
        first, second = traced_counts(name, args.seed), traced_counts(name, args.seed)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        if diff or first.keys() != second.keys():
            bad += 1
            print(f"FAIL {name}: counts differ {diff}")
        else:
            print(f"ok   {name}: {len(first)} counts repeat exactly")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
