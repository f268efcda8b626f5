"""Time the class number of five single fields, |D| from 1e8 to 1e12, and record it.

Times quadform.class_number(D), the exact reduced-form count, for each D in
FIELDS, using whichever iqgalois is first on the import path.  The "parent"
entry of BENCH_6.json was timed before the exact count existed, through the
prime-form subgroup (BSGS) count then named class_number_bsgs.  The result goes
under --label in BENCH_6.json at the repository root.  Entries with other
labels are kept, so one file holds a before and an after measured on the
same machine:

    PYTHONPATH=<parent checkout>/src python3 bench/classnumber.py --label parent
    PYTHONPATH=src python3 bench/classnumber.py --label change

Each block is one field: D, the h it returned (which must agree between
entries), and the median and minimum wall time of REPEATS calls.
"""

from pathlib import Path

from _entry import label_from_argv, timed, write_entry
from iqgalois import quadform

FIELDS = (-100000007, -1000000007, -10000000019, -100000000003, -1000000000039)
REPEATS = 3
OUT = Path(__file__).resolve().parent.parent / "BENCH_6.json"


def measure(D: int) -> dict:
    values, timing = timed(lambda: quadform.class_number(D), REPEATS)
    (h,) = set(values)  # every repeat must return the same h
    return {"D": D, "h": h, **timing}


def main() -> None:
    label = label_from_argv(__doc__.splitlines()[0])
    blocks = [measure(D) for D in FIELDS]
    for b in blocks:
        print(f"{label}: D = {b['D']}: h = {b['h']}, median {b['median_s']} s, min {b['min_s']} s")
    write_entry(OUT, "quadform class number h of one field, no known_h", label, blocks)


if __name__ == "__main__":
    main()
