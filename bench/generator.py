"""Time the generator layer on two 1e4-blocks and classify at large |D|, and record it.

Times the image of the generator of a^p in the quotient ring O/p^2 of
localtest.build_context(d, p), for every form of p_torsion_basis(cg, p) at
every odd p | h (rank-overflow primes skipped) over the fundamental |D| of
the block [start, start + 1e4) for each start in STARTS.  The call timed is
chosen by the arity of idealgen.torsion_power_generator: a three-argument
(form, p, ring) version returns the image itself, a two-argument (form, p)
version the full generator, which is then embedded.  So one script measures
trees from before and after the compact route.  The class groups and the
rings are built untimed, with h from the survey sieve.  It also times
classify(D) for each D in CLASSIFY.

The result goes under --label in BENCH_10.json at the repository root,
using whichever iqgalois is first on the import path.  Entries with other
labels are kept, so one file holds a before and an after measured on the
same machine:

    PYTHONPATH=<parent checkout>/src python3 bench/generator.py --label parent
    PYTHONPATH=src python3 bench/generator.py --label change

Each block records the median and minimum wall time of REPEATS passes over
its generators, their number, and the sha256 of (D, p, x, y) per generator,
where (x, y) is the smaller of the image e and -e: the two routes may
differ by the sign of the generator, which moves no verdict at odd p.  The
digests must agree between entries.  Each classify records the median and
minimum of CLASSIFY_REPEATS calls and the per-prime statuses.
"""

import hashlib
import inspect
import json
from pathlib import Path

from _entry import label_from_argv, timed, write_entry
from iqgalois import idealgen
from iqgalois.classify import classify
from iqgalois.discriminant import validate
from iqgalois.localtest import build_context
from iqgalois.quadform import RankOverflow, class_group, p_torsion_basis
from iqgalois.survey import BLOCK_SIZE, class_numbers_range

STARTS = (10**6, 10**7)
REPEATS = 5
CLASSIFY = (-100000007, -1000000007, -100000000003)
CLASSIFY_REPEATS = 3
OUT = Path(__file__).resolve().parent.parent / "BENCH_10.json"


def generator_jobs(start: int) -> list[tuple[int, object, int, object]]:
    """(D, form, p, ring) for every odd-p torsion basis form of the block."""
    jobs = []
    for m, h in class_numbers_range(start, start + BLOCK_SIZE):
        d = validate(-m)
        cg = class_group(d, known_h=h)
        for p in cg.sylow:
            if p == 2:
                continue
            try:
                basis = p_torsion_basis(cg, p)
            except RankOverflow:
                continue
            ring = build_context(d, p).ring
            jobs.extend((-m, form, p, ring) for form in basis)
    return jobs


def image_call():
    """image(form, p, ring) through whichever generator route this tree has."""
    gen = idealgen.torsion_power_generator
    if len(inspect.signature(gen).parameters) == 3:
        return gen
    return lambda form, p, ring: ring.embed(gen(form, p))


def measure(start: int) -> dict:
    jobs = generator_jobs(start)
    image = image_call()
    results, timing = timed(lambda: [image(form, p, ring) for _, form, p, ring in jobs], REPEATS)
    data = [
        [D, p, *min(e, ring.mul(e, ring.minus_one))]
        for (D, _, p, ring), e in zip(jobs, results[-1])
    ]
    digest = hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()
    return {
        "start": start,
        "width": BLOCK_SIZE,
        "generators": len(jobs),
        **timing,
        "generator_sha256": digest,
    }


def measure_classify(D: int) -> dict:
    results, timing = timed(lambda: classify(D), CLASSIFY_REPEATS)
    per_prime = [list(t) for t in results[-1].per_prime]
    return {"classify": D, **timing, "per_prime": per_prime}


def main() -> None:
    label = label_from_argv(__doc__.splitlines()[0])
    blocks = [measure(start) for start in STARTS]
    for b in blocks:
        print(
            f"{label}: |D| from {b['start']}: {b['generators']} generators, "
            f"median {b['median_s']} s, min {b['min_s']} s"
        )
    fields = [measure_classify(D) for D in CLASSIFY]
    for f in fields:
        print(f"{label}: classify({f['classify']}): median {f['median_s']} s, min {f['min_s']} s")
    layer = (
        "generator image in O/p^2, every odd-p torsion basis form of a 1e4-block; "
        "classify(D) at large |D|"
    )
    write_entry(OUT, layer, label, blocks + fields)


if __name__ == "__main__":
    main()
