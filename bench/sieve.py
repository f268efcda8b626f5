"""Time the class-number sieve on one 1e4-block at several |D|, parent against change.

    python3 bench/sieve.py --parent DIR > BENCH_N.json

Times survey.reduced_form_counts on the block [start, start + WIDTH) for
each start in STARTS, with the library of the checkout DIR and with this
checkout's, their calls taken in turn (bench/_entry.py).  Each start records
the median and minimum wall time of REPEATS calls and the sha256 of the
counts, which must agree between the two libraries.
"""

from _entry import run, sha256, timed_alternating

STARTS = (3, 10**5, 10**6, 10**7)
WIDTH = 10**4
REPEATS = 5


def measure(libs: dict) -> dict:
    entries = {name: [] for name in libs}
    for start in STARTS:
        timed = timed_alternating(
            [
                lambda survey=lib.survey: survey.reduced_form_counts(start, start + WIDTH)
                for lib in libs.values()
            ],
            REPEATS,
        )
        for name, (results, timing) in zip(libs, timed):
            digest = sha256(results[-1].tobytes())
            entries[name].append(
                {"start": start, "width": WIDTH, **timing, "counts_sha256": digest}
            )
    return entries


if __name__ == "__main__":
    run(__doc__, "survey.reduced_form_counts, one block of 1e4 |D|", measure)
