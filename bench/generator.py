"""Time the generator layer and the odd-p status on three bands of |D|, and classify at large |D|.

    python3 bench/generator.py --parent DIR > BENCH_N.json

Times the image of the generator of a^p in the quotient ring O/p^2 of
localtest.build_context(d, p), idealgen.torsion_power_generator(form, p,
ring), for every job of the band: every form of p_torsion_basis(cg, p) at
every odd p | h (rank-overflow primes skipped) over the fundamental |D| of
each band in BANDS, walked as verify.generator_jobs walks them
(band_tests).  The class groups and the rings are built untimed, with h
from the survey sieve.  Next to the image route it times the block route,
one lanes._generator_lanes call over all the band's jobs and the image
route for each job it leaves to the scalar route.  The status route times
the odd-p status of every (d, p) of the band two ways, and both passes
include building their generator images: the lanes, lanes.lane_statuses as
survey._scan_block calls it, which builds the images on the lanes, with
status_at_odd_prime for each (d, p) it leaves; and the scalar local test,
classify.status_at_odd_prime on the block route's images, which
scalar_statuses builds by calling block() inside its timed pass.  It also
times classify(D) for each D in CLASSIFY.  Each is timed with the library
of the checkout DIR and with this checkout's, all passes taken in turn
(bench/_entry.py).

Each band records the median and minimum wall time of REPEATS passes over
its generators for each route (image, block, and status lanes and scalar),
their numbers, and two digests.  The generator digest is the sha256 of (D,
p, x, y) per generator, where (x, y) is the smaller of the image e and -e:
routes may differ by the sign of the generator, which moves no verdict at
odd p.  The block route's digest must equal the image route's.  The status
digest is the sha256 of (D, p, status) per (d, p), and the lanes' must
equal the scalar test's.  Otherwise the script exits 1, and both digests
must agree between the two libraries.  The image and block routes count
their products of states in one untimed pass, through counted() wrappers:
the calls of idealgen._state_product and the lanes of lanes._state_lanes;
the block route also counts its jobs that took the scalar route
(torsion_power_generator calls), whose products on the lanes before they
left count too.  Each classify records the median and minimum of
CLASSIFY_REPEATS calls and the per-prime statuses, whose sha256 must agree
too.
"""

import sys

from _entry import counted, run, sha256, timed_alternating

# [lo, hi) bands of |D|: all of |D| < 2e4, and one 1e4-block at 1e6 and at 1e7
BANDS = ((3, 20_000), (10**6, 10**6 + 10**4), (10**7, 10**7 + 10**4))
REPEATS = 11
CLASSIFY = (-100000007, -1000000007, -100000000003)
CLASSIFY_REPEATS = 10


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
    """The jobs of tests with lib, and its image, block and two status passes."""
    jobs = [
        (d.value, form, p, lib.localtest.build_context(d, p).ring)
        for d, _, p, basis in tests
        for form in basis
    ]
    idealgen, classify = lib.idealgen, sys.modules[f"{lib.__name__}.classify"]
    generator_lanes, lane_statuses = lib.lanes._generator_lanes, lib.lanes.lane_statuses
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

    return jobs, images, block, statuses_on_lanes, scalar_statuses


def status_digest(tests: list, statuses: list) -> str:
    """sha256 of (D, p, status) per test."""
    return sha256([[d.value, p, s] for (d, _, p, _), s in zip(tests, statuses)])


def generator_digest(jobs: list, results: list) -> str:
    """sha256 of (D, p, x, y) per generator, (x, y) the smaller of the image and its negative."""
    return sha256(
        [[D, p, *min(e, ring.mul(e, ring.minus_one))] for (D, _, p, ring), e in zip(jobs, results)]
    )


def count_states(lib, fn) -> dict:
    """Products of states and scalar-route jobs of fn()."""
    idealgen = lib.idealgen
    return counted(
        fn,
        [
            ("state_products", idealgen, "_state_product", lambda args: 1),
            ("state_products", lib.lanes, "_state_lanes", lambda args: args[0][0].size),
            ("scalar_jobs", idealgen, "torsion_power_generator", lambda args: 1),
        ],
    )


def measure(libs: dict) -> dict:
    entries = {name: [] for name in libs}
    for lo, hi in BANDS:
        tests = {name: band_tests(lib, lo, hi) for name, lib in libs.items()}
        runs = {name: routes(lib, tests[name]) for name, lib in libs.items()}
        timed = timed_alternating([fn for _, *fns in runs.values() for fn in fns], REPEATS)
        for (name, lib), *passes in zip(libs.items(), *(timed[k::4] for k in range(4))):
            (results, image), (blocked, block), (lanes, status), (scalar, local) = passes
            jobs, images, blocks, *_ = runs[name]
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
        "generator image in O/p^2 and odd-p status, every odd-p torsion basis form of a band "
        "of |D|; classify(D) at large |D|"
    )
    run(__doc__, layer, measure)
