"""Time the census of tables 2 and 3 at the published bound, parent against change.

    python3 bench/tables.py --parent DIR > BENCH_N.json

Times survey.table3(P, N, B), the census behind `tables --table 2` and
`--table 3`, for each bound B in BOUNDS, with the library of the checkout
DIR and with this checkout's, their calls taken in turn (bench/_entry.py).
The bounds are three of the sixteen that perfbench's tables_1e7 draws from.
Each block is one bound: the median and minimum wall time of REPEATS
calls, and the sha256 of the result's fields, which must agree between the
two libraries.
"""

import dataclasses

from _entry import run, sha256, timed_alternating

P, N = 3, 100
BOUNDS = tuple(10**7 + j * 10**4 for j in (0, 5, 15))
REPEATS = 5


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
    return entries


if __name__ == "__main__":
    run(__doc__, "survey.table3, the census of tables 2 and 3, near |D| = 1e7", measure)
