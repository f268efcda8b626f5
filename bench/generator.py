"""Time the generator layer and the odd-p status on three bands of |D|, and classify at large |D|.

    python3 bench/generator.py --parent DIR > BENCH_N.json

Times the image of the generator of a^p in the quotient ring O/p^2 of
localtest.build_context(d, p), idealgen.torsion_power_generator(form, p,
ring), for every job of the band: every form of p_torsion_basis(cg, p) at
every odd p | h (rank-overflow primes skipped) over the fundamental |D| of
each band in BANDS, walked as verify.generator_jobs walks them
(band_tests).  Next to it, on the same forms, it times the explicit
generator idealgen.explicit_power_generator(form, p), not embedded: the
oracle route the compact image replaced.  The class groups and the rings
are built untimed, with h from the survey sieve.  Next to both it times
the block route, one lanes._generator_lanes call over all the band's
jobs and the image route for each job it leaves to the scalar route.  The
status route times the odd-p status of every (d, p) of the band two ways:
the lanes, lanes.lane_statuses as survey._scan_block calls it, with
status_at_odd_prime for each (d, p) it leaves; and the scalar local test,
classify.status_at_odd_prime on the block route's images.  It also times
classify(D) for each D in CLASSIFY.  Each is timed with the library of the
checkout DIR and with this checkout's, all passes taken in turn
(bench/_entry.py).

Each band records the median and minimum wall time of REPEATS passes over
its generators for each route (image, explicit, block, and status lanes
and scalar), their numbers, and two digests.  The generator digest is the
sha256 of (D, p, x, y) per generator, where (x, y) is the smaller of the
image e and -e: routes may differ by the sign of the generator, which
moves no verdict at odd p.  The block route's digest must equal the image
route's.  The status digest is the sha256 of (D, p, status) per (d, p),
and the lanes' must equal the scalar test's.  Otherwise the script exits
1, and both digests must agree between the two libraries.  The image and
block routes count their products of states in one untimed pass: the
calls of idealgen._state_product and the lanes of lanes._state_lanes;
the block route also counts its jobs that took the scalar route
(torsion_power_generator calls), whose products on the lanes before they
left count too.  Each classify records the median and minimum of
CLASSIFY_REPEATS calls and the per-prime statuses, whose sha256 must agree
too.  A library without the module lanes has _generator_lanes and
_state_lanes in idealgen and lane_statuses in classify (_entry.lane_module).
"""

import sys

from _entry import lane_module, run, sha256, timed_alternating

# [lo, hi) bands of |D|: all of |D| < 2e4, and one 1e4-block at 1e6 and at 1e7
BANDS = ((3, 20_000), (10**6, 10**6 + 10**4), (10**7, 10**7 + 10**4))
REPEATS = 11
CLASSIFY = (-100000007, -1000000007, -100000000003)
CLASSIFY_REPEATS = 3


def band_tests(lib, lo: int, hi: int) -> list:
    """(d, cg, p, basis) at each odd p | h of the fundamental |D| in [lo, hi), in ascending |D|.

    The walk of verify.generator_jobs, with cg kept: basis is
    survey._odd_bases' p_torsion_basis(cg, p), primes where the p-rank
    overflows are skipped, and cg is class_group with h from the survey
    sieve.
    """
    survey = lib.survey
    tests = []
    for block in survey._blocks(lo, hi, survey.BLOCK_SIZE):
        for m, h in survey.class_numbers_range(*block):
            d = lib.discriminant.validate(-m)
            cg = lib.quadform.class_group(d, known_h=h)
            tests.extend((d, cg, p, basis) for p, basis in survey._odd_bases(cg))
    return tests


def routes(lib, tests: list) -> tuple:
    """The jobs of tests with lib, and its image, explicit, block and two status passes."""
    jobs = [
        (d.value, form, p, lib.localtest.build_context(d, p).ring)
        for d, _, p, basis in tests
        for form in basis
    ]
    idealgen, classify = lib.idealgen, sys.modules[f"{lib.__name__}.classify"]
    generator_lanes = lane_module(lib, "idealgen")._generator_lanes
    lane_statuses = lane_module(lib, "classify").lane_statuses
    triples = [(form, p, ring) for _, form, p, ring in jobs]

    def images():
        return [idealgen.torsion_power_generator(*job) for job in triples]

    def block():  # the kernel's rows, and the scalar route for each job they leave
        index, x, y, _, _ = generator_lanes([(form, p) for form, p, _ in triples])
        lanes = dict(zip(index.tolist(), zip(x.tolist(), y.tolist())))
        return [
            lanes[i] if i in lanes else idealgen.torsion_power_generator(*job)
            for i, job in enumerate(triples)
        ]

    def scalar_statuses():  # the scalar local test of every (d, p) on the block's images
        found = iter(block())
        return [
            classify.status_at_odd_prime(d, cg, p, [next(found) for _ in basis])
            for d, cg, p, basis in tests
        ]

    def statuses_on_lanes():  # the lanes, and status_at_odd_prime for each test they leave (None)
        statuses = lane_statuses(tests)
        return [
            classify.status_at_odd_prime(d, cg, p) if s is None else s
            for s, (d, cg, p, _) in zip(statuses, tests)
        ]

    return (
        jobs,
        images,
        lambda: [idealgen.explicit_power_generator(form, p) for _, form, p, _ in jobs],
        block,
        statuses_on_lanes,
        scalar_statuses,
    )


def status_digest(tests: list, statuses: list) -> str:
    """sha256 of (D, p, status) per test."""
    return sha256([[d.value, p, s] for (d, _, p, _), s in zip(tests, statuses)])


def generator_digest(jobs: list, results: list) -> str:
    """sha256 of (D, p, x, y) per generator, (x, y) the smaller of the image and its negative."""
    return sha256(
        [[D, p, *min(e, ring.mul(e, ring.minus_one))] for (D, _, p, ring), e in zip(jobs, results)]
    )


def count_states(lib, fn) -> dict:
    """Products of states and scalar-route jobs of fn(), via wrappers on the globals of lib."""
    idealgen = lib.idealgen
    owners = {
        "_state_product": idealgen,
        "_state_lanes": lane_module(lib, "idealgen"),
        "torsion_power_generator": idealgen,
    }
    counts = dict.fromkeys(owners, 0)
    saved = {name: getattr(owner, name) for name, owner in owners.items()}

    def wrap(name, orig):
        def counting(*args, **kwargs):
            counts[name] += args[0][0].size if name == "_state_lanes" else 1
            return orig(*args, **kwargs)

        return counting

    for name, orig in saved.items():
        setattr(owners[name], name, wrap(name, orig))
    try:
        fn()
    finally:
        for name, orig in saved.items():
            setattr(owners[name], name, orig)
    return {
        "state_products": counts["_state_product"] + counts["_state_lanes"],
        "scalar_jobs": counts["torsion_power_generator"],
    }


def measure(libs: dict) -> dict:
    entries = {name: [] for name in libs}
    for lo, hi in BANDS:
        tests = {name: band_tests(lib, lo, hi) for name, lib in libs.items()}
        runs = {name: routes(lib, tests[name]) for name, lib in libs.items()}
        timed = timed_alternating([fn for _, *fns in runs.values() for fn in fns], REPEATS)
        for (name, lib), *passes in zip(libs.items(), *(timed[k::5] for k in range(5))):
            (results, image), (_, explicit), (blocked, block), (lanes, status), (scalar, local) = (
                passes
            )
            jobs, images, _, blocks, *_ = runs[name]
            generator_sha256 = generator_digest(jobs, results[-1])
            if generator_digest(jobs, blocked[-1]) != generator_sha256:
                sys.exit(f"start={lo} {name}: the block route differs from the image route")
            status_sha256 = status_digest(tests[name], scalar[-1])
            if status_digest(tests[name], lanes[-1]) != status_sha256:
                sys.exit(f"start={lo} {name}: the lane statuses differ from the scalar test")
            image_counts = count_states(lib, images)
            entries[name].append(
                {
                    "start": lo,
                    "width": hi - lo,
                    "generators": len(jobs),
                    "image": {**image, "state_products": image_counts["state_products"]},
                    "explicit": explicit,
                    "block": {**block, **count_states(lib, blocks)},
                    "generator_sha256": generator_sha256,
                    "statuses": len(tests[name]),
                    "status": {"lanes": status, "scalar": local},
                    "status_sha256": status_sha256,
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
        "generator image in O/p^2, explicit generator and odd-p status, every odd-p torsion "
        "basis form of a band of |D|; classify(D) at large |D|"
    )
    run(__doc__, layer, measure)
