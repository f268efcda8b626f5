"""Time class-group assembly and the whole scan of two 1e4-blocks and record it.

For each start in STARTS, times quadform.class_group(validate(-m), known_h=h)
over every fundamental |D| of the block [start, start + 1e4), with h from
the survey sieve, and the whole survey._scan_block of the same block (sieve,
class groups, generators, local images, rows) with the primes PRIMES, the
two passes taken in turn.  It uses whichever iqgalois is first on the import
path.  The result goes under --label in BENCH_16.json at the repository
root.  Entries with other labels are kept, so one file holds a before and
an after measured on the same machine:

    PYTHONPATH=<parent checkout>/src python3 bench/classgroup.py --label parent
    PYTHONPATH=src python3 bench/classgroup.py --label change

Each block records the median and minimum wall time of REPEATS passes of
either kind, the number of compositions, and three sha256 digests that
must agree between entries: of the odd-q Sylow data (q, orders and basis
forms per field), of the 2-Sylow orders, and of the scan rows.  The
2-Sylow basis is left out: any basis of exact orders is correct, and the
verdict at p = 2 does not read it.  It also counts the even-h fields by
the route their 2-orders took, read from the shape of sylow[2]: the walk
(an entry with a basis), or the Redei matrix (no basis) with 4-rank 0, 1,
or at least 2 and the closed form (2,)*(r - r4) + (4,)*r4.  A library
without the Redei route puts every field on the walk.  Compositions are counted as calls of
compose_unreduced, the one composition formula, through wrappers on its
module globals in quadform and idealgen: once over a class-group pass and
once over a scan pass.
"""

import collections
import hashlib
import json
from pathlib import Path

from _entry import label_from_argv, timed_alternating, write_entry
from iqgalois import idealgen, quadform, survey
from iqgalois.discriminant import validate
from iqgalois.survey import BLOCK_SIZE, class_numbers_range

STARTS = (10**6, 10**7)
PRIMES = (2, 3, 5, 7)
REPEATS = 5
OUT = Path(__file__).resolve().parent.parent / "BENCH_16.json"


def sha256(data) -> str:
    return hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()


def odd_sylow_data(cg) -> list:
    return [cg.discriminant] + [
        [q, list(orders), [[f.a, f.b, f.c] for f in basis]]
        for q, (orders, basis) in sorted(cg.sylow.items())
        if q != 2
    ]


def two_sylow_orders(cg) -> list:
    return [cg.discriminant, list(cg.sylow[2][0]) if 2 in cg.sylow else []]


def two_part_route(cg) -> str:
    orders, basis = cg.sylow[2]
    if basis is not None:
        return "walk"
    r4 = sum(o >= 4 for o in orders)
    return "r4>=2 closed" if r4 >= 2 else f"r4={r4}"


def count_products(fn) -> int:
    """compose_unreduced calls made by fn(), counted through wrappers on the module globals."""
    orig = quadform.compose_unreduced
    calls = 0

    def counting(f, g):
        nonlocal calls
        calls += 1
        return orig(f, g)

    quadform.compose_unreduced = idealgen.compose_unreduced = counting
    try:
        fn()
    finally:
        quadform.compose_unreduced = idealgen.compose_unreduced = orig
    return calls


def measure(start: int) -> dict:
    fields = [(validate(-m), h) for m, h in class_numbers_range(start, start + BLOCK_SIZE)]

    def groups():
        return [quadform.class_group(d, known_h=h) for d, h in fields]

    def scan():
        return survey._scan_block((start, start + BLOCK_SIZE, PRIMES))

    (cgs, cg_timing), (rows, scan_timing) = timed_alternating([groups, scan], REPEATS)
    return {
        "start": start,
        "width": BLOCK_SIZE,
        "fields": len(fields),
        "class_group": {**cg_timing, "compositions": count_products(groups)},
        "scan_block": {**scan_timing, "compositions": count_products(scan)},
        "odd_sylow_sha256": sha256([odd_sylow_data(cg) for cg in cgs[-1]]),
        "two_sylow_orders_sha256": sha256([two_sylow_orders(cg) for cg in cgs[-1]]),
        "rows_sha256": sha256([row.to_dict() for row in rows[-1]]),
        "two_part_routes": dict(
            collections.Counter(two_part_route(cg) for cg in cgs[-1] if 2 in cg.sylow)
        ),
    }


def main() -> None:
    label = label_from_argv(__doc__.splitlines()[0])
    blocks = [measure(start) for start in STARTS]
    for b in blocks:
        cg, scan = b["class_group"], b["scan_block"]
        print(
            f"{label}: |D| from {b['start']}: {b['fields']} fields; class_group median "
            f"{cg['median_s']} s, min {cg['min_s']} s, {cg['compositions']} compositions; "
            f"_scan_block median {scan['median_s']} s, min {scan['min_s']} s, "
            f"{scan['compositions']} compositions; 2-part routes {b['two_part_routes']}"
        )
    layer = (
        "quadform.class_group(known_h) and survey._scan_block, "
        "every fundamental |D| of a 1e4-block"
    )
    write_entry(OUT, layer, label, blocks)


if __name__ == "__main__":
    main()
