"""Time class-group assembly on the fundamental |D| of two 1e4-blocks and record it.

Times quadform.class_group(validate(-m), known_h=h) over every fundamental
|D| of the block [start, start + 1e4) for each start in STARTS, with h from
the survey sieve, using whichever iqgalois is first on the import path.  The
result goes under --label in BENCH_5.json at the repository root.  Entries
with other labels are kept, so one file holds a before and an after measured
on the same machine:

    PYTHONPATH=<parent checkout>/src python3 bench/classgroup.py --label parent
    PYTHONPATH=src python3 bench/classgroup.py --label change

Each block records the median and minimum wall time of REPEATS passes over
its fields, the number of compose calls one pass makes, and the sha256 of
the Sylow data (q, orders and basis forms per field), which must agree
between entries.
"""

import hashlib
import json
from pathlib import Path

from _entry import label_from_argv, timed, write_entry
from iqgalois import quadform
from iqgalois.discriminant import validate
from iqgalois.survey import BLOCK_SIZE, class_numbers_range

STARTS = (10**6, 10**7)
REPEATS = 5
OUT = Path(__file__).resolve().parent.parent / "BENCH_5.json"


def sylow_digest(groups) -> str:
    data = [
        [cg.discriminant]
        + [
            [q, list(orders), [[f.a, f.b, f.c] for f in basis]]
            for q, (orders, basis) in sorted(cg.sylow.items())
        ]
        for cg in groups
    ]
    return hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()


def count_compose(fields) -> int:
    """compose calls of one pass, counted through a wrapper on the module global."""
    orig = quadform.compose
    calls = 0

    def counting(f, g):
        nonlocal calls
        calls += 1
        return orig(f, g)

    quadform.compose = counting
    try:
        for d, h in fields:
            quadform.class_group(d, known_h=h)
    finally:
        quadform.compose = orig
    return calls


def measure(start: int) -> dict:
    fields = [(validate(-m), h) for m, h in class_numbers_range(start, start + BLOCK_SIZE)]
    results, timing = timed(
        lambda: [quadform.class_group(d, known_h=h) for d, h in fields], REPEATS
    )
    return {
        "start": start,
        "width": BLOCK_SIZE,
        "fields": len(fields),
        **timing,
        "compose_calls": count_compose(fields),
        "sylow_sha256": sylow_digest(results[-1]),
    }


def main() -> None:
    label = label_from_argv(__doc__.splitlines()[0])
    blocks = [measure(start) for start in STARTS]
    for b in blocks:
        print(
            f"{label}: |D| from {b['start']}: {b['fields']} fields, median {b['median_s']} s, "
            f"min {b['min_s']} s, {b['compose_calls']} compose calls"
        )
    layer = "quadform.class_group(known_h), every fundamental |D| of a 1e4-block"
    write_entry(OUT, layer, label, blocks)


if __name__ == "__main__":
    main()
