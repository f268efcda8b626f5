"""Time the census of tables 2 and 3 at the published bound, parent against change; gate table 1.

    python3 bench/tables.py --parent DIR > BENCH_N.json

Times survey.table3(P, N, B), the census behind `tables --table 2` and
`--table 3`, for each bound B in BOUNDS, with the library of the checkout
DIR and with this checkout's, their calls taken in turn (bench/_entry.py).
The bounds are three of the sixteen that perfbench's tables_1e7 draws from.
Each block is one bound: the median and minimum wall time of REPEATS
calls, and the sha256 of the result's fields, which must agree between the
two libraries.  The blocks of GATED follow untimed, one call each: the
sha256 alone of table3 at the primes 2, 5 and 7, whose p-parts the timed
p = 3 blocks never build.  Then, also untimed, the sha256 of the rows of
survey.table1(max_p, bound), the census of `tables --table 1`, for each
(max_p, bound) in TABLE1.
"""

import dataclasses

from _entry import run, sha256, timed_alternating

P, N = 3, 100
BOUNDS = tuple(10**7 + j * 10**4 for j in (0, 5, 15))
REPEATS = 10
GATED = tuple((p, bound) for p in (2, 5, 7) for bound in (10**5, 10**7))
TABLE1 = ((7, 10**6), (97, 10**6), (23, 2 * 10**5))


def measure(libs: dict) -> dict:
    entries = {name: [] for name in libs}
    for bound in BOUNDS:
        timed = timed_alternating(
            [lambda survey=lib.survey: survey.table3(P, N, bound) for lib in libs.values()],
            REPEATS,
        )
        for name, (results, timing) in zip(libs, timed):
            result = dataclasses.asdict(results[-1])
            entries[name].append(
                {"B": bound, "p": P, "N": N, "result_sha256": sha256(result), **timing}
            )
    for p, bound in GATED:
        for name, lib in libs.items():
            result = dataclasses.asdict(lib.survey.table3(p, N, bound))
            entries[name].append({"B": bound, "p": p, "N": N, "result_sha256": sha256(result)})
    for max_p, bound in TABLE1:
        for name, lib in libs.items():
            rows = [dataclasses.asdict(row) for row in lib.survey.table1(max_p, bound).values()]
            entries[name].append({"max_p": max_p, "bound": bound, "result_sha256": sha256(rows)})
    return entries


if __name__ == "__main__":
    run(__doc__, "survey.table3, the census of tables 2 and 3, near |D| = 1e7", measure)
