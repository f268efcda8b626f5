"""Time the class number of five single fields, |D| from 1e8 to 1e12, parent against change.

    python3 bench/classnumber.py --parent DIR > BENCH_N.json

Times quadform.class_number(D), with no known h, for each D in FIELDS, with
the library of the checkout DIR and with this checkout's, their calls taken
in turn (bench/_entry.py).  Each block is one field: D, the h it returned
and its sha256, which must agree between the two libraries, and the median
and minimum wall time of REPEATS calls.
"""

from _entry import run, sha256, timed_alternating

FIELDS = (-100000007, -1000000007, -10000000019, -100000000003, -1000000000039)
REPEATS = 10


def measure(libs: dict) -> dict:
    entries = {name: [] for name in libs}
    for D in FIELDS:
        timed = timed_alternating(
            [lambda quadform=lib.quadform: quadform.class_number(D) for lib in libs.values()],
            REPEATS,
        )
        for name, (values, timing) in zip(libs, timed):
            (h,) = set(values)  # every repeat must return the same h
            entries[name].append({"D": D, "h": h, "h_sha256": sha256(h), **timing})
    return entries


if __name__ == "__main__":
    run(__doc__, "quadform class number h of one field, no known_h", measure)
