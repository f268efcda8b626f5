"""Time the class-number sieve and the fundamental mask on blocks of several widths and |D|.

    python3 bench/sieve.py --parent DIR > BENCH_N.json

Times survey.reduced_form_counts and survey.fundamental_mask on the block
[start, start + width) for each (start, width) in BLOCKS, with the library
of the checkout DIR and with this checkout's, their calls taken in turn
(bench/_entry.py).  BLOCKS holds four scan blocks of 1e4 |D|, the window of
1,600 |D| that the census sieves first at the published bound 1e7, and a
block of 10 |D| at 1e8, where the sieve's loop over a outweighs its width.
Each block records, under "counts" and "mask", the median and minimum wall
time of REPEATS calls, and the sha256 of the counts and of the mask bytes,
which must agree between the two libraries.
"""

from _entry import run, sha256, timed_alternating

BLOCKS = (
    (3, 10**4),
    (10**5, 10**4),
    (10**6, 10**4),
    (10**7, 10**4),
    (10**7 + 1, 1600),
    (10**8, 10),
)
REPEATS = 5


def measure(libs: dict) -> dict:
    entries = {name: [] for name in libs}
    for start, width in BLOCKS:
        blocks = [{"start": start, "width": width} for _ in libs]
        for key, fn in (("counts", "reduced_form_counts"), ("mask", "fundamental_mask")):
            timed = timed_alternating(
                [
                    lambda f=getattr(lib.survey, fn): f(start, start + width)
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
        "survey.reduced_form_counts and survey.fundamental_mask, blocks of 10 to 1e4 |D|",
        measure,
    )
