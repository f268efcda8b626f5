"""Time class-group assembly, scalar and batched, on 1e4-blocks, parent against change.

    python3 bench/classgroup.py --parent DIR > BENCH_N.json

For each start in STARTS it times, with the library of the checkout DIR and
with this checkout's, quadform.class_group(validate(-m), known_h=h) over
every fundamental |D| of the block [start, start + WIDTH), with h from the
survey sieve, and list(lanes.class_groups(...)) over the same (d, h), the
batch that survey._scan_block calls.  The four passes are taken in turn,
REPEATS times, each with the cyclic collector paused (bench/_entry.py).
bench/scan.py times the whole survey._scan_block of these blocks.

Each block records the median and minimum wall time of each kind of pass,
every pass's time, the number of compositions, and two sha256 digests,
which must agree between the two libraries: of the odd-q Sylow data (q,
the orders and the forms of p_torsion_basis(cg, q) per field, or the orders
alone where the q-rank overflows), and of the 2-Sylow orders.  The batch's
two digests must equal the scalar pass's, or the script exits 1.  The
2-torsion forms are left out: the verdict at p = 2 does not read them.  It
also counts the even-h fields by the route their 2-orders took, read from
the 4-rank r4, the number of 2-orders of at least 4: genus theory at r4 =
0, 1 or 2, the table walk at r4 >= 3.  Compositions are counted, untimed,
over one more call of each kind of pass (compositions() of bench/_entry.py;
bench/scan.py counts those of the whole block).  Over one more batch pass,
class_group_routes counts the calls of lanes._power_lanes, the class-group
kernel, with their lanes, and the walks of two generators that the odd
lanes start (lanes._Walks.start).  It counts the fields that
class_groups hands to class_group whole by reason (lanes.WHOLE), read from
one more call of lanes._lane_sylow on the block's fields.
"""

import collections
import sys

from _entry import compositions, counted, run, sha256, timed_alternating

STARTS = (10**6, 10**7)
WIDTH = 10**4
REPEATS = 10


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


def count_routes(lib, fields: list, batch) -> dict:
    """The kernel calls and walks of batch(), and the fields that class_groups hands on whole."""
    lanes = lib.lanes
    counts = counted(
        batch,
        [
            ("kernel_calls", lanes, "_power_lanes", lambda args: 1),
            ("kernel_lanes", lanes, "_power_lanes", lambda args: args[0].size),
            ("two_generator_lanes", lanes._Walks, "start", lambda args: args[1].shape[1]),
        ],
    )
    whole = collections.Counter(lanes.WHOLE[code] for code in lanes._lane_sylow(fields)[1] if code)
    reasons = dict(sorted(whole.items()))
    return {**counts, "whole_fields": sum(whole.values()), "whole_reasons": reasons}


def passes(lib, start: int) -> tuple:
    """The fields of one block, with lib, and their class-group pass and batch pass."""
    sieved = lib.survey.class_numbers_range(start, start + WIDTH)
    fields = [(lib.discriminant.validate(-m), h) for m, h in sieved]

    def groups():
        return [lib.quadform.class_group(d, known_h=h) for d, h in fields]

    class_groups = lib.lanes.class_groups

    def batch():
        return list(class_groups(fields))

    return fields, groups, batch


def measure(libs: dict) -> dict:
    entries = {name: [] for name in libs}
    for start in STARTS:
        runs = {name: passes(lib, start) for name, lib in libs.items()}
        timed = timed_alternating([fn for _, *fns in runs.values() for fn in fns], REPEATS)
        for (name, lib), (cgs, cg_timing), (batched, batch_timing) in zip(
            libs.items(), timed[0::2], timed[1::2]
        ):
            fields, groups, batch = runs[name]
            digests = sylow_digests(lib, cgs[-1])
            if sylow_digests(lib, batched[-1]) != digests:
                sys.exit(f"start={start} {name}: class_groups differs from class_group")
            entries[name].append(
                {
                    "start": start,
                    "width": WIDTH,
                    "fields": len(fields),
                    "class_group": {**cg_timing, "compositions": compositions(lib, groups)},
                    "class_groups": {**batch_timing, "compositions": compositions(lib, batch)},
                    "class_group_routes": count_routes(lib, fields, batch),
                    **digests,
                    "two_part_routes": dict(
                        collections.Counter(two_part_route(cg) for cg in cgs[-1] if 2 in cg.sylow)
                    ),
                }
            )
    return entries


if __name__ == "__main__":
    layer = (
        "quadform.class_group(known_h) and lanes.class_groups, every fundamental |D| of a 1e4-block"
    )
    run(__doc__, layer, measure)
