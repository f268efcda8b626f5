"""Time the class-number sieve on one 1e4-block at several |D| and record it.

Times survey.reduced_form_counts on the block [start, start + 1e4) for each
start in STARTS, using whichever iqgalois is first on the import path, and
writes the result under --label in BENCH_3.json at the repository root.
Entries with other labels are kept, so one file holds a before and an after
measured on the same machine:

    PYTHONPATH=<parent checkout>/src python3 bench/sieve.py --label parent
    PYTHONPATH=src python3 bench/sieve.py --label change

Each start records the median and minimum wall time of REPEATS calls and
the sha256 of the counts, which must agree between entries.
"""

import hashlib
from pathlib import Path

from _entry import label_from_argv, timed, write_entry
from iqgalois.survey import BLOCK_SIZE, reduced_form_counts

STARTS = (3, 10**5, 10**6, 10**7)
REPEATS = 5
OUT = Path(__file__).resolve().parent.parent / "BENCH_3.json"


def measure(start: int) -> dict:
    results, timing = timed(lambda: reduced_form_counts(start, start + BLOCK_SIZE), REPEATS)
    return {
        "start": start,
        "width": BLOCK_SIZE,
        **timing,
        "counts_sha256": hashlib.sha256(results[-1].tobytes()).hexdigest(),
    }


def main() -> None:
    label = label_from_argv(__doc__.splitlines()[0])
    blocks = [measure(start) for start in STARTS]
    for b in blocks:
        print(f"{label}: |D| from {b['start']}: median {b['median_s']} s, min {b['min_s']} s")
    write_entry(OUT, "survey.reduced_form_counts, one block of 1e4 |D|", label, blocks)


if __name__ == "__main__":
    main()
