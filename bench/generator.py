"""Time the generator layer on three bands of |D| and classify at large |D|, parent against change.

    python3 bench/generator.py --parent DIR > BENCH_N.json

Times the image of the generator of a^p in the quotient ring O/p^2 of
localtest.build_context(d, p), idealgen.torsion_power_generator(form, p,
ring), for every job of verify.generator_jobs: every form of
p_torsion_basis(cg, p) at every odd p | h (rank-overflow primes skipped)
over the fundamental |D| of each band in BANDS.  Next to it, on the same
forms, it times the explicit generator idealgen.explicit_power_generator(
form, p), not embedded: the oracle route the compact image replaced.  The
class groups and the rings are built untimed, with h from the survey
sieve.  It also times classify(D) for each D in CLASSIFY.  Either is timed
with the library of the checkout DIR and with this checkout's, all passes
taken in turn (bench/_entry.py).

Each band records the median and minimum wall time of REPEATS passes over
its generators for either route (image, explicit), their number, and the
sha256 of (D, p, x, y) per generator, where (x, y) is the smaller of the
image e and -e: routes may differ by the sign of the generator, which moves
no verdict at odd p.  The digests must agree between the two libraries.
Each classify records the median and minimum of CLASSIFY_REPEATS calls and
the per-prime statuses, whose sha256 must agree too.
"""

import importlib

from _entry import run, sha256, timed_alternating

# [lo, hi) bands of |D|: all of |D| < 2e4, and one 1e4-block at 1e6 and at 1e7
BANDS = ((3, 20_000), (10**6, 10**6 + 10**4), (10**7, 10**7 + 10**4))
REPEATS = 5
CLASSIFY = (-100000007, -1000000007, -100000000003)
CLASSIFY_REPEATS = 3


def routes(lib, lo: int, hi: int) -> tuple:
    """The jobs of [lo, hi) with lib, and its image and explicit passes over them."""
    verify = importlib.import_module(f"{lib.__name__}.verify")  # the package does not import it
    jobs = [
        (d.value, form, p, lib.localtest.build_context(d, p).ring)
        for d, form, p in verify.generator_jobs(lo, hi)
    ]
    image, explicit = lib.idealgen.torsion_power_generator, lib.idealgen.explicit_power_generator
    return (
        jobs,
        lambda: [image(form, p, ring) for _, form, p, ring in jobs],
        lambda: [explicit(form, p) for _, form, p, _ in jobs],
    )


def measure(libs: dict) -> dict:
    entries = {name: [] for name in libs}
    for lo, hi in BANDS:
        runs = {name: routes(lib, lo, hi) for name, lib in libs.items()}
        timed = timed_alternating([fn for _, *fns in runs.values() for fn in fns], REPEATS)
        for (name, (jobs, *_)), (results, image), (_, explicit) in zip(
            runs.items(), timed[0::2], timed[1::2]
        ):
            data = [
                [D, p, *min(e, ring.mul(e, ring.minus_one))]
                for (D, _, p, ring), e in zip(jobs, results[-1])
            ]
            entries[name].append(
                {
                    "start": lo,
                    "width": hi - lo,
                    "generators": len(jobs),
                    "image": image,
                    "explicit": explicit,
                    "generator_sha256": sha256(data),
                }
            )
    for D in CLASSIFY:
        timed = timed_alternating(
            [lambda classify=lib.classify: classify(D) for lib in libs.values()], CLASSIFY_REPEATS
        )
        for name, (results, timing) in zip(libs, timed):
            per_prime = [list(t) for t in results[-1].per_prime]
            digest = sha256(per_prime)
            entries[name].append(
                {"classify": D, **timing, "per_prime": per_prime, "per_prime_sha256": digest}
            )
    return entries


if __name__ == "__main__":
    layer = (
        "generator image in O/p^2 and explicit generator, every odd-p torsion basis form "
        "of a band of |D|; classify(D) at large |D|"
    )
    run(__doc__, layer, measure)
