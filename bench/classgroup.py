"""Time class-group assembly and the whole scan of two 1e4-blocks, parent against change.

    python3 bench/classgroup.py --parent DIR > BENCH_N.json

For each start in STARTS it times, with the library of the checkout DIR and
with this checkout's, quadform.class_group(validate(-m), known_h=h) over
every fundamental |D| of the block [start, start + WIDTH), with h from the
survey sieve, and the whole survey._scan_block of the same block (sieve,
class groups, generators, local images, rows) with the primes PRIMES.  The
four passes are taken in turn, REPEATS times (bench/_entry.py).

Each block records the median and minimum wall time of either kind of pass,
every pass's time, the number of compositions, and three sha256 digests,
which must agree between the two libraries: of the odd-q Sylow data (q,
the orders and the forms of p_torsion_basis(cg, q) per field, or the orders
alone where the q-rank overflows), of the 2-Sylow orders, and of the scan
rows.  The 2-torsion forms are left out: the verdict at p = 2 does not read
them.  It also counts the even-h fields by the route their 2-orders took,
read from the 4-rank r4, the number of 2-orders of at least 4: genus
theory at r4 = 0, 1 or 2, the table walk at r4 >= 3.  Compositions are
counted once over a class-group pass and once over a scan pass: the calls
of compose_unreduced, the scalar composition formula, through wrappers on
its module globals in quadform and idealgen, plus the lanes of every call
of quadform._compose_lanes, the lock-step kernel that survey._scan_block
reaches through quadform.class_groups, where the library has one.
"""

import collections

from _entry import run, sha256, timed_alternating

STARTS = (10**6, 10**7)
WIDTH = 10**4
PRIMES = (2, 3, 5, 7)
REPEATS = 8


def odd_sylow_data(lib, cg) -> list:
    data = [cg.discriminant]
    for q, (orders, _) in sorted(cg.sylow.items()):
        if q == 2:
            continue
        entry = [q, list(orders)]
        try:
            entry.append([[f.a, f.b, f.c] for f in lib.quadform.p_torsion_basis(cg, q)])
        except lib.quadform.RankOverflow:
            pass  # the orders alone
        data.append(entry)
    return data


def two_sylow_orders(cg) -> list:
    return [cg.discriminant, list(cg.sylow[2][0]) if 2 in cg.sylow else []]


def two_part_route(cg) -> str:
    r4 = sum(o >= 4 for o in cg.sylow[2][0])
    return "walk" if r4 >= 3 else f"r4={r4}"


def count_products(lib, fn) -> int:
    """compose_unreduced calls and _compose_lanes lanes made by fn(), via wrappers on lib's globals."""
    quadform, idealgen = lib.quadform, lib.idealgen
    orig = quadform.compose_unreduced
    lanes = getattr(quadform, "_compose_lanes", None)
    calls = 0

    def counting(f, g):
        nonlocal calls
        calls += 1
        return orig(f, g)

    def counting_lanes(f, g):
        nonlocal calls
        calls += f[0].size
        return lanes(f, g)

    quadform.compose_unreduced = idealgen.compose_unreduced = counting
    if lanes is not None:
        quadform._compose_lanes = counting_lanes
    try:
        fn()
    finally:
        quadform.compose_unreduced = idealgen.compose_unreduced = orig
        if lanes is not None:
            quadform._compose_lanes = lanes
    return calls


def passes(lib, start: int) -> tuple:
    """The class-group pass and the scan pass of one block, with lib."""
    survey = lib.survey
    sieved = survey.class_numbers_range(start, start + WIDTH)
    fields = [(lib.discriminant.validate(-m), h) for m, h in sieved]

    def groups():
        return [lib.quadform.class_group(d, known_h=h) for d, h in fields]

    def scan():
        return survey._scan_block((start, start + WIDTH, PRIMES))

    return len(fields), groups, scan


def measure(libs: dict) -> dict:
    entries = {name: [] for name in libs}
    for start in STARTS:
        runs = {name: passes(lib, start) for name, lib in libs.items()}
        timed = timed_alternating([fn for _, *fns in runs.values() for fn in fns], REPEATS)
        for (name, lib), (cgs, cg_timing), (rows, scan_timing) in zip(
            libs.items(), timed[0::2], timed[1::2]
        ):
            fields, groups, scan = runs[name]
            entries[name].append(
                {
                    "start": start,
                    "width": WIDTH,
                    "fields": fields,
                    "class_group": {**cg_timing, "compositions": count_products(lib, groups)},
                    "scan_block": {**scan_timing, "compositions": count_products(lib, scan)},
                    "odd_sylow_sha256": sha256([odd_sylow_data(lib, cg) for cg in cgs[-1]]),
                    "two_sylow_orders_sha256": sha256([two_sylow_orders(cg) for cg in cgs[-1]]),
                    "rows_sha256": sha256([row.to_dict() for row in rows[-1]]),
                    "two_part_routes": dict(
                        collections.Counter(two_part_route(cg) for cg in cgs[-1] if 2 in cg.sylow)
                    ),
                }
            )
    return entries


if __name__ == "__main__":
    layer = (
        "quadform.class_group(known_h) and survey._scan_block, "
        "every fundamental |D| of a 1e4-block"
    )
    run(__doc__, layer, measure)
