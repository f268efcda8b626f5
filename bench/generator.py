"""Time the generator layer on three bands of |D| and classify at large |D|, and record it.

Times the image of the generator of a^p in the quotient ring O/p^2 of
localtest.build_context(d, p), idealgen.torsion_power_generator(form, p,
ring), for every job of verify.generator_jobs: every form of
p_torsion_basis(cg, p) at every odd p | h (rank-overflow primes skipped)
over the fundamental |D| of each band in BANDS.  Next to it, on the same
forms, it times the explicit generator idealgen.explicit_power_generator(
form, p), not embedded: the oracle route the compact image replaced.  The
class groups and the rings are built untimed, with h from the survey
sieve.  It also times classify(D) for each D in CLASSIFY.

The result goes under --label in BENCH_15.json at the repository root,
using whichever iqgalois is first on the import path.  Entries with other
labels are kept, so one file holds a before and an after measured on the
same machine:

    PYTHONPATH=<parent checkout>/src python3 bench/generator.py --label parent
    PYTHONPATH=src python3 bench/generator.py --label change

Each band records the median and minimum wall time of REPEATS passes over
its generators for either route (the two routes' passes taken in turn),
their number, and the sha256 of (D, p, x, y) per generator, where (x, y)
is the smaller of the image e and -e: routes may differ by the sign of the
generator, which moves no verdict at odd p.  The digests must agree
between entries.  Each classify records the median and minimum of
CLASSIFY_REPEATS calls and the per-prime statuses.
"""

import hashlib
import json
from pathlib import Path

from _entry import label_from_argv, timed, timed_alternating, write_entry
from iqgalois import idealgen, verify
from iqgalois.classify import classify
from iqgalois.localtest import build_context

# [lo, hi) bands of |D|: all of |D| < 2e4, and one 1e4-block at 1e6 and at 1e7
BANDS = ((3, 20_000), (10**6, 10**6 + 10**4), (10**7, 10**7 + 10**4))
REPEATS = 5
CLASSIFY = (-100000007, -1000000007, -100000000003)
CLASSIFY_REPEATS = 3
OUT = Path(__file__).resolve().parent.parent / "BENCH_15.json"


def measure(lo: int, hi: int) -> dict:
    jobs = [
        (d.value, form, p, build_context(d, p).ring) for d, form, p in verify.generator_jobs(lo, hi)
    ]
    image, explicit = idealgen.torsion_power_generator, idealgen.explicit_power_generator
    (results, timing), (_, explicit_timing) = timed_alternating(
        [
            lambda: [image(form, p, ring) for _, form, p, ring in jobs],
            lambda: [explicit(form, p) for _, form, p, _ in jobs],
        ],
        REPEATS,
    )
    data = [
        [D, p, *min(e, ring.mul(e, ring.minus_one))]
        for (D, _, p, ring), e in zip(jobs, results[-1])
    ]
    digest = hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()
    return {
        "start": lo,
        "width": hi - lo,
        "generators": len(jobs),
        **timing,
        "explicit_median_s": explicit_timing["median_s"],
        "explicit_min_s": explicit_timing["min_s"],
        "generator_sha256": digest,
    }


def measure_classify(D: int) -> dict:
    results, timing = timed(lambda: classify(D), CLASSIFY_REPEATS)
    per_prime = [list(t) for t in results[-1].per_prime]
    return {"classify": D, **timing, "per_prime": per_prime}


def main() -> None:
    label = label_from_argv(__doc__.splitlines()[0])
    blocks = [measure(lo, hi) for lo, hi in BANDS]
    for b in blocks:
        print(
            f"{label}: |D| in [{b['start']}, +{b['width']}): {b['generators']} generators, "
            f"median {b['median_s']} s, min {b['min_s']} s; "
            f"explicit median {b['explicit_median_s']} s, min {b['explicit_min_s']} s"
        )
    fields = [measure_classify(D) for D in CLASSIFY]
    for f in fields:
        print(f"{label}: classify({f['classify']}): median {f['median_s']} s, min {f['min_s']} s")
    layer = (
        "generator image in O/p^2 and explicit generator, every odd-p torsion basis form "
        "of a band of |D|; classify(D) at large |D|"
    )
    write_entry(OUT, layer, label, blocks + fields)


if __name__ == "__main__":
    main()
