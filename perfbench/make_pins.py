"""Regenerate the benchmark's pinned inputs and outputs.

    python3 perfbench/make_pins.py pool [N]   # writes classify_pool.json
    python3 perfbench/make_pins.py digests    # writes pins.json

pool: draws N primes q = 3 mod 4 from [1e8, 1.25e8) with a fixed seed,
classifies D = -q in two passes, and stores q, h, the faster calibrated
latency (calib.py) and the sha256 of the record's canonical JSON, sorted by
latency.  The latency order defines the strata of the classify_large
workload; the digests are its pinned outputs.

digests: the sha256 of the scan CSV for every block the scan_1e6 workload
can draw, and of the Table3Result for every bound tables_1e7 can draw.

Run from the repository root.  Pins are only valid for the commit that
produced them: regenerate them only when the scientific output is meant to
change.
"""

import json
import random
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 20121001
Q_LO, Q_HI = 10**8, 125 * 10**6


def make_pool(n: int, passes: int = 2) -> None:
    from iqgalois.arith import is_prime

    classify = workloads.layer("classify").classify
    classify(-23)  # fill lazy caches before timing
    rng = random.Random(POOL_SEED)
    fields: list[int] = []
    while len(fields) < n:
        q = rng.randrange(Q_LO, Q_HI)
        if q % 4 == 3 and q not in fields and is_prime(q):
            fields.append(q)
    times: dict[int, list[tuple[float, float]]] = {q: [] for q in fields}
    digests: dict[int, str] = {}
    h: dict[int, int] = {}
    cal = calib.Calibrator()
    with cal:
        for p in range(passes):
            for q in fields:
                start = time.perf_counter()
                record = classify(-q)
                times[q].append((start, time.perf_counter()))
                digests[q], h[q] = workloads.record_digest(record), record.h
                print(f"pass {p} q={q} h={record.h}", file=sys.stderr, flush=True)
    best = {q: min(cal.scale(*i) for i in times[q]) for q in fields}
    pool = [
        {"q": q, "h": h[q], "seconds": round(best[q], 4), "sha256": digests[q]} for q in fields
    ]
    pool.sort(key=lambda e: (e["seconds"], e["q"]))
    out = {"seed": POOL_SEED, "q_range": [Q_LO, Q_HI], "fields": pool}
    (HERE / "classify_pool.json").write_text(json.dumps(out, indent=0) + "\n")


def make_digests() -> None:
    pins = {"scan_1e6": {}, "tables_1e7": {}}
    workdir = HERE.parent / ".perfbench"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        scan = workloads.ScanWorkload(0, Path(tmp))
        for k in range(workloads.SCAN_BLOCKS):
            scan.start = workloads.SCAN_BASE + k * scan.block
            out = scan.collect("block", scan.run("block"))
            pins["scan_1e6"][str(scan.start)] = out["digest"]
            print(scan.describe(), out["digest"], file=sys.stderr, flush=True)
        tables = workloads.TablesWorkload(0, Path(tmp))
        for j in range(workloads.TABLE_OFFSETS):
            tables.bound = workloads.TABLE_BASE + 10_000 * j
            out = tables.collect("table", tables.run("table"))
            pins["tables_1e7"][str(tables.bound)] = out["digest"]
            print(tables.describe(), out["digest"], file=sys.stderr, flush=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["pool"]:
        make_pool(int(sys.argv[2]) if len(sys.argv) > 2 else 240)
    elif sys.argv[1:2] == ["digests"]:
        make_digests()
    else:
        sys.exit(__doc__)
