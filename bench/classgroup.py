"""Time class-group assembly, scalar and batched, and the scan of 1e4-blocks, parent against change.

    python3 bench/classgroup.py --parent DIR > BENCH_N.json

For each start in STARTS it times, with the library of the checkout DIR and
with this checkout's, quadform.class_group(validate(-m), known_h=h) over
every fundamental |D| of the block [start, start + WIDTH), with h from the
survey sieve; list(lanes.class_groups(...)) over the same (d, h), the
batch that survey._scan_block calls; and the whole survey._scan_block of
the same block (sieve, class groups, generator images, local images, rows)
with the primes PRIMES.  The six passes are taken in turn, REPEATS times,
each with the cyclic collector paused (bench/_entry.py).

Each block records the median and minimum wall time of each kind of pass,
every pass's time, the number of compositions, and three sha256 digests,
which must agree between the two libraries: of the odd-q Sylow data (q,
the orders and the forms of p_torsion_basis(cg, q) per field, or the orders
alone where the q-rank overflows), of the 2-Sylow orders, and of the scan
rows.  The batch's two Sylow digests must equal the scalar pass's, or the
script exits 1.  The 2-torsion forms are left out: the verdict at p = 2
does not read them.  It also counts the even-h fields by the route their
2-orders took, read from the 4-rank r4, the number of 2-orders of at
least 4: genus theory at r4 = 0, 1 or 2, the table walk at r4 >= 3.
Compositions are counted once over each kind of pass: the calls of
compose_unreduced, the scalar composition formula, through wrappers on its
module globals in quadform and idealgen, plus the lanes of every call of
lanes._compose_lanes, through the same wrappers: the lock-step kernel
of lanes.class_groups and of lanes._generator_lanes.  A job that
leaves the generator lanes for the scalar route counts its products on
both.  Over one more batch pass, class_group_routes counts the calls of
lanes._power_lanes, the class-group kernel, with their lanes; the walks
of two generators that the odd lanes start (lanes._Walks.start); and the
fields that class_groups hands to class_group whole, by reason
(lanes.WHOLE, read from lanes._lane_sylow).  A library without the module
lanes has these names in quadform and idealgen (_entry.lane_module).
"""

import collections
import sys

from _entry import lane_module, run, sha256, timed_alternating

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


def sylow_digests(lib, cgs: list) -> dict:
    """The odd-Sylow and 2-order digests of one pass's groups."""
    return {
        "odd_sylow_sha256": sha256([odd_sylow_data(lib, cg) for cg in cgs]),
        "two_sylow_orders_sha256": sha256([two_sylow_orders(cg) for cg in cgs]),
    }


def two_part_route(cg) -> str:
    r4 = sum(o >= 4 for o in cg.sylow[2][0])
    return "walk" if r4 >= 3 else f"r4={r4}"


def count_products(lib, fn) -> int:
    """compose_unreduced calls and _compose_lanes lanes made by fn(), via wrappers on lib's globals."""
    quadform, idealgen = lib.quadform, lib.idealgen
    holders = {lane_module(lib, "quadform"), lane_module(lib, "idealgen")}  # of _compose_lanes
    orig = quadform.compose_unreduced
    lanes = next(iter(holders))._compose_lanes
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
    for holder in holders:
        holder._compose_lanes = counting_lanes
    try:
        fn()
    finally:
        quadform.compose_unreduced = idealgen.compose_unreduced = orig
        for holder in holders:
            holder._compose_lanes = lanes
    return calls


def count_routes(lib, batch) -> dict:
    """The kernel calls, walks and whole fields of batch(), via wrappers on lib."""
    lanes = lane_module(lib, "quadform")
    kernel = lanes._power_lanes
    counts = {"kernel_calls": 0, "kernel_lanes": 0, "two_generator_lanes": 0}
    whole = collections.Counter()

    def counting_kernel(a, b, c, n):
        counts["kernel_calls"] += 1
        counts["kernel_lanes"] += a.size
        return kernel(a, b, c, n)

    start, lane_sylow = lanes._Walks.start, lanes._lane_sylow

    def counting_start(self, rows):
        counts["two_generator_lanes"] += rows.shape[1]
        return start(self, rows)

    def counting_whole(fields):
        out = lane_sylow(fields)
        whole.update(lanes.WHOLE[code] for code in out[1] if code)
        return out

    saved = [
        (lanes, "_power_lanes", kernel),
        (lanes._Walks, "start", start),
        (lanes, "_lane_sylow", lane_sylow),
    ]
    lanes._power_lanes = counting_kernel
    lanes._Walks.start, lanes._lane_sylow = counting_start, counting_whole
    try:
        batch()
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    reasons = dict(sorted(whole.items()))
    return {**counts, "whole_fields": sum(whole.values()), "whole_reasons": reasons}


def passes(lib, start: int) -> tuple:
    """The class-group pass, the batch pass and the scan pass of one block, with lib."""
    survey = lib.survey
    sieved = survey.class_numbers_range(start, start + WIDTH)
    fields = [(lib.discriminant.validate(-m), h) for m, h in sieved]

    def groups():
        return [lib.quadform.class_group(d, known_h=h) for d, h in fields]

    class_groups = lane_module(lib, "quadform").class_groups

    def batch():
        return list(class_groups(fields))

    def scan():
        return survey._scan_block((start, start + WIDTH, PRIMES))

    return len(fields), groups, batch, scan


def measure(libs: dict) -> dict:
    entries = {name: [] for name in libs}
    for start in STARTS:
        runs = {name: passes(lib, start) for name, lib in libs.items()}
        timed = timed_alternating([fn for _, *fns in runs.values() for fn in fns], REPEATS)
        for (name, lib), (cgs, cg_timing), (batched, batch_timing), (rows, scan_timing) in zip(
            libs.items(), timed[0::3], timed[1::3], timed[2::3]
        ):
            fields, groups, batch, scan = runs[name]
            digests = sylow_digests(lib, cgs[-1])
            if sylow_digests(lib, batched[-1]) != digests:
                sys.exit(f"start={start} {name}: class_groups differs from class_group")
            entries[name].append(
                {
                    "start": start,
                    "width": WIDTH,
                    "fields": fields,
                    "class_group": {**cg_timing, "compositions": count_products(lib, groups)},
                    "class_groups": {**batch_timing, "compositions": count_products(lib, batch)},
                    "class_group_routes": count_routes(lib, batch),
                    "scan_block": {**scan_timing, "compositions": count_products(lib, scan)},
                    **digests,
                    "rows_sha256": sha256([row.to_dict() for row in rows[-1]]),
                    "two_part_routes": dict(
                        collections.Counter(two_part_route(cg) for cg in cgs[-1] if 2 in cg.sylow)
                    ),
                }
            )
    return entries


if __name__ == "__main__":
    layer = (
        "quadform.class_group(known_h), lanes.class_groups and survey._scan_block, "
        "every fundamental |D| of a 1e4-block"
    )
    run(__doc__, layer, measure)
