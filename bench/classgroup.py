"""Time class-group assembly, scalar and batched, and the scan of 1e4-blocks, parent against change.

    python3 bench/classgroup.py --parent DIR > BENCH_N.json

For each start in STARTS it times, with the library of the checkout DIR and
with this checkout's, quadform.class_group(validate(-m), known_h=h) over
every fundamental |D| of the block [start, start + WIDTH), with h from the
survey sieve; list(quadform.class_groups(...)) over the same (d, h), the
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
quadform._compose_lanes, through the same wrappers: the lock-step kernel
of quadform.class_groups and of idealgen._generator_lanes.  A job that
leaves the generator lanes for the scalar route counts its products on
both.  Over one more batch pass, class_group_routes counts the odd Sylow
steps (one per field and odd prime of h) that end on int64 array lanes,
those that run as generator steps (the calls of
quadform._sylow_structure at odd q), and the calls of
quadform._power_lanes, the class-group kernel, with their lanes.  A
library without array lanes runs all its odd steps as generator steps.  On
a library with array lanes (quadform._pool_lanes), each odd generator step
is sorted under restart_exits by the exit that sent it there, replayed
with the scalar power on the lane's candidates: no_candidates (it never
was an array lane), ran_out (every candidate projects to 1),
order_below (y = x^(q^(e-1)) is 1: x has order below q^e, and the
generator walks a table) or order_above (y^q is not 1: the claimed h is
wrong).  The 2-parts (one per even-h field) are counted the same way:
two_steps_arrays end on array lanes, two_steps_generators run
quadform._two_sylow_orders, and two_generator_routes sorts the latter:
r4>=2 (the 4-rank of quadform._redei is 2 or more, no array lane), then,
on a library with 2-lanes (quadform._lane_candidates), the exit replayed
with the scalar power on its one candidate: no_candidate (the ranks fail
the checks, or no prime below 2^10 qualifies), x_is_one, order_below
(x^(2^(n-1)) is 1) or order_above (its square is not 1), and on a library
without them r4<=1.
"""

import collections
import sys

import numpy as np

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
    orig = quadform.compose_unreduced
    lanes = quadform._compose_lanes
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
    quadform._compose_lanes = idealgen._compose_lanes = counting_lanes
    try:
        fn()
    finally:
        quadform.compose_unreduced = idealgen.compose_unreduced = orig
        quadform._compose_lanes = idealgen._compose_lanes = lanes
    return calls


def lane_candidates(lib, D: int, h: int) -> tuple:
    """The array candidates of the field D with h: its pool heads, their count, its 2-candidate.

    The 2-candidate is None where there is none, and on a library without 2-lanes.
    """
    quadform = lib.quadform
    if not hasattr(quadform, "_lane_candidates"):
        heads, count = quadform._pool_lanes(np.array([D], dtype=np.int64), quadform._CANDIDATES)
        return heads, count, None
    heads, count, two, *_ = quadform._lane_candidates([(lib.discriminant.validate(D), h)])
    return heads, count, quadform.QuadForm._make(two[:, 0].tolist()) if two[0, 0] else None


def restart_exit(lib, D: int, h: int, q: int, e: int) -> str:
    """Why the odd step (D, q) runs as a generator step: the exit of its array lane."""
    quadform = lib.quadform
    heads, count, _ = lane_candidates(lib, D, h)
    one = quadform.principal_form(D)
    for f in heads[:, 0, : count[0]].T.tolist():
        if (x := quadform.power(quadform.QuadForm._make(f), h // q**e)) != one:
            y = quadform.power(x, q ** (e - 1))
            return "order_below" if y == one else "order_above"
    return "ran_out" if count[0] else "no_candidates"


def two_route(lib, d, h: int, e: int) -> str:
    """Why the 2-part of d runs as a generator step: its 4-rank, or the exit of its array lane."""
    quadform = lib.quadform
    if quadform._redei(d)[2] >= 2:
        return "r4>=2"
    if not hasattr(quadform, "_lane_candidates"):
        return "r4<=1"
    f = lane_candidates(lib, d.value, h)[2]
    if f is None:
        return "no_candidate"
    one = quadform.principal_form(d.value)
    if (x := quadform.power(f, h >> e)) == one:
        return "x_is_one"
    y = quadform.power(x, 2 ** (e - d.num_prime_divisors + 1))  # x^(2^(n-1)), n = e - r + 1
    if y == one:
        return "order_below"
    return "order_above" if quadform.power(y, 2) != one else "none"


def count_routes(lib, batch) -> dict:
    """The routes of batch()'s Sylow steps and its kernel calls, via wrappers on lib."""
    quadform = lib.quadform
    sylow, two = quadform._sylow_structure, quadform._two_sylow_orders
    kernel = quadform._power_lanes
    names = ("odd_steps_generators", "two_steps_generators", "kernel_calls", "kernel_lanes")
    counts = dict.fromkeys(names, 0)
    exits, two_routes = collections.Counter(), collections.Counter()

    def counting_sylow(D, h, q, e, pool):
        if q != 2:
            counts["odd_steps_generators"] += 1
            if hasattr(quadform, "_pool_lanes"):
                exits[restart_exit(lib, D, h, q, e)] += 1
        return sylow(D, h, q, e, pool)

    def counting_two(d, h, e, pool):
        counts["two_steps_generators"] += 1
        two_routes[two_route(lib, d, h, e)] += 1
        return two(d, h, e, pool)

    def counting_kernel(a, b, c, n):
        counts["kernel_calls"] += 1
        counts["kernel_lanes"] += a.size
        return kernel(a, b, c, n)

    quadform._sylow_structure, quadform._power_lanes = counting_sylow, counting_kernel
    quadform._two_sylow_orders = counting_two
    try:
        cgs = batch()
    finally:
        quadform._sylow_structure, quadform._power_lanes = sylow, kernel
        quadform._two_sylow_orders = two
    odd = sum(q != 2 for cg in cgs for q in cg.sylow)
    even = sum(2 in cg.sylow for cg in cgs)
    return {
        **counts,
        "odd_steps_arrays": odd - counts["odd_steps_generators"],
        "restart_exits": dict(sorted(exits.items())),
        "two_steps_arrays": even - counts["two_steps_generators"],
        "two_generator_routes": dict(sorted(two_routes.items())),
    }


def passes(lib, start: int) -> tuple:
    """The class-group pass, the batch pass and the scan pass of one block, with lib."""
    survey = lib.survey
    sieved = survey.class_numbers_range(start, start + WIDTH)
    fields = [(lib.discriminant.validate(-m), h) for m, h in sieved]

    def groups():
        return [lib.quadform.class_group(d, known_h=h) for d, h in fields]

    def batch():
        return list(lib.quadform.class_groups(fields))

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
        "quadform.class_group(known_h), quadform.class_groups and survey._scan_block, "
        "every fundamental |D| of a 1e4-block"
    )
    run(__doc__, layer, measure)
