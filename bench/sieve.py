"""Time the class-number sieve and the fundamental mask on one 1e4-block at several |D|.

    python3 bench/sieve.py --parent DIR > BENCH_N.json

Times survey.reduced_form_counts and survey.fundamental_mask on the block
[start, start + WIDTH) for each start in STARTS, with the library of the
checkout DIR and with this checkout's, their calls taken in turn
(bench/_entry.py).  Each start records, under "counts" and "mask", the
median and minimum wall time of REPEATS calls, and the sha256 of the counts
and of the mask bytes, which must agree between the two libraries.
"""

from _entry import run, sha256, timed_alternating

STARTS = (3, 10**5, 10**6, 10**7)
WIDTH = 10**4
REPEATS = 5


def measure(libs: dict) -> dict:
    entries = {name: [] for name in libs}
    for start in STARTS:
        blocks = [{"start": start, "width": WIDTH} for _ in libs]
        for key, fn in (("counts", "reduced_form_counts"), ("mask", "fundamental_mask")):
            timed = timed_alternating(
                [
                    lambda f=getattr(lib.survey, fn): f(start, start + WIDTH)
                    for lib in libs.values()
                ],
                REPEATS,
            )
            for block, (results, timing) in zip(blocks, timed):
                block[key] = timing
                block[f"{key}_sha256"] = sha256(results[-1].tobytes())
        for name, block in zip(libs, blocks):
            entries[name].append(block)
    return entries


if __name__ == "__main__":
    run(
        __doc__,
        "survey.reduced_form_counts and survey.fundamental_mask, one block of 1e4 |D|",
        measure,
    )
