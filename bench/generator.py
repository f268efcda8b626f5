"""Time generator recovery on the fundamental |D| of two 1e4-blocks and record it.

Times idealgen.torsion_power_generator(form, p) for every form of
p_torsion_basis(cg, p) at every odd p | h (rank-overflow primes skipped)
over the fundamental |D| of the block [start, start + 1e4) for each start in
STARTS, using whichever iqgalois is first on the import path.  The class
groups are built untimed, with h from the survey sieve.  The result goes
under --label in BENCH_8.json at the repository root.  Entries with other
labels are kept, so one file holds a before and an after measured on the
same machine:

    PYTHONPATH=<parent checkout>/src python3 bench/generator.py --label parent
    PYTHONPATH=src python3 bench/generator.py --label change

Each block records the median and minimum wall time of REPEATS passes over
its generators, their number, and the sha256 of (D, p, u, v) per generator,
which must agree between entries.
"""

import hashlib
import json
from pathlib import Path

from _entry import label_from_argv, timed, write_entry
from iqgalois import idealgen
from iqgalois.discriminant import validate
from iqgalois.quadform import RankOverflow, class_group, p_torsion_basis
from iqgalois.survey import BLOCK_SIZE, class_numbers_range

STARTS = (10**6, 10**7)
REPEATS = 5
OUT = Path(__file__).resolve().parent.parent / "BENCH_8.json"


def generator_jobs(start: int) -> list[tuple[int, object, int]]:
    """(D, form, p) for every odd-p torsion basis form of the block."""
    jobs = []
    for m, h in class_numbers_range(start, start + BLOCK_SIZE):
        cg = class_group(validate(-m), known_h=h)
        for p in cg.sylow:
            if p == 2:
                continue
            try:
                basis = p_torsion_basis(cg, p)
            except RankOverflow:
                continue
            jobs.extend((-m, form, p) for form in basis)
    return jobs


def measure(start: int) -> dict:
    jobs = generator_jobs(start)
    results, timing = timed(
        lambda: [idealgen.torsion_power_generator(form, p) for _, form, p in jobs], REPEATS
    )
    data = [[D, p, a.u, a.v] for (D, _, p), a in zip(jobs, results[-1])]
    digest = hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()
    return {
        "start": start,
        "width": BLOCK_SIZE,
        "generators": len(jobs),
        **timing,
        "generator_sha256": digest,
    }


def main() -> None:
    label = label_from_argv(__doc__.splitlines()[0])
    blocks = [measure(start) for start in STARTS]
    for b in blocks:
        print(
            f"{label}: |D| from {b['start']}: {b['generators']} generators, "
            f"median {b['median_s']} s, min {b['min_s']} s"
        )
    layer = "idealgen.torsion_power_generator, every odd-p torsion basis form of a 1e4-block"
    write_entry(OUT, layer, label, blocks)


if __name__ == "__main__":
    main()
