"""The lock-step generator kernel against the scalar torsion_power_generator.

lanes._generator_lanes runs the products of states of many (form, p)
jobs side by side, one numpy round per bit of p; torsion_power_generator
runs them one job at a time and is the oracle here.  Every job of two
census windows that the kernel answers must give the same ring element
both ways, with the same count of state products; a job past a lane bound
must be left to the scalar route, and a scan block must still give the
rows of classifying its fields one by one; the kernel's checks must raise
also under python -O, and so must the norm check N(J) = a1*a2 of both
routes on a wrong content d; a class that is not p-torsion must be left to
the scalar route, whose NotPrincipal a scan block must raise at its field.
The first form of each lane, chosen in numpy for all jobs at once, must be
the one coprime_representative chooses, and a job it refuses must stay off
the lanes.
"""

import numpy as np
import pytest

from iqgalois import lanes, survey
from iqgalois.arith import InvariantViolation
from iqgalois.classify import classify_validated
from iqgalois.discriminant import validate
from iqgalois.idealgen import NotPrincipal, torsion_power_generator
from iqgalois.lanes import _generator_lanes
from iqgalois.localtest import build_context
from iqgalois.quadform import ClassNumberAmbiguous, QuadForm, _prime_form_pool, class_group
from iqgalois.quadform import coprime_representative, power
from iqgalois.survey import class_numbers_range
from iqgalois.verify import generator_jobs

from _oracles import rows_one_by_one


def _jobs(lo: int, hi: int) -> list:
    """(form, p, ring) for every odd-p torsion basis form at fundamental |D| in [lo, hi)."""
    return [(form, p, build_context(d, p).ring) for d, form, p in generator_jobs(lo, hi)]


def _on_lanes(jobs: list) -> list:
    """The kernel's image of each job, or None for a job it leaves to the scalar route."""
    out: list = [None] * len(jobs)
    job, x, y, _, _ = _generator_lanes([(form, p) for form, p, _ in jobs])
    for i, g in zip(job.tolist(), zip(x.tolist(), y.tolist())):
        out[i] = g
    return out


@pytest.mark.parametrize("lo, past", [(10**6, 0), (10**7, 5)])
def test_kernel_replays_every_generator(lo, past, monkeypatch):
    jobs = _jobs(lo, lo + 2000)
    assert len(jobs) > 900 and max(p for _, p, _ in jobs) > 1000
    got = _on_lanes(jobs)
    # at 1e7 a few states grow past _fits: those jobs are left to the scalar route
    assert sum(g is None for g in got) == past
    stayed = [(job, g) for job, g in zip(jobs, got) if g is not None]
    assert [g for _, g in stayed] == [torsion_power_generator(*job) for job, _ in stayed]
    # the jobs that stay on the lanes, run alone: the scalar route's count of products
    products = 0
    product = lanes._state_lanes

    def counting(f1, *args):
        nonlocal products
        products += f1[0].size
        return product(f1, *args)

    monkeypatch.setattr(lanes, "_state_lanes", counting)
    assert _on_lanes([job for job, _ in stayed]) == [g for _, g in stayed]
    assert products == sum(p.bit_length() - 1 + p.bit_count() - 1 for (_, p, _), _ in stayed)


# a state bound that a product of states passes within a few rounds, and a
# ring limit that leaves p = 3, 5, 7, 11, 13 on the lanes
@pytest.mark.parametrize("bound, value", [("_STATE_BOUND", 2**40), ("_RING_LIMIT", 14**2)])
def test_jobs_past_a_lane_bound_take_the_scalar_route(bound, value, monkeypatch):
    lo, hi = 10**6, 10**6 + 2000
    jobs = _jobs(lo, hi)
    monkeypatch.setattr(lanes, bound, value)
    got = _on_lanes(jobs)
    assert 0.1 * len(jobs) < sum(g is None for g in got) < 0.9 * len(jobs)
    stayed = [(job, g) for job, g in zip(jobs, got) if g is not None]
    assert [g for _, g in stayed] == [torsion_power_generator(*job) for job, _ in stayed]
    assert survey._scan_block((lo, hi, (3, 5))) == rows_one_by_one(lo, hi, (3, 5))


def test_odd_rank_overflow_in_a_scan_block():
    # Cl(-3321607) = Z/3 x Z/3 x Z/63: its 3-rank 3 has no lane job, and the
    # row takes rank_overflow from status_at_prime at its field
    lo, hi, primes = 3321600, 3321700, (2, 3, 5, 7)
    rows = survey._scan_block((lo, hi, primes))
    assert rows == rows_one_by_one(lo, hi, primes)
    (row,) = [r for r in rows if r.record.discriminant == -3321607]
    assert row.record.per_prime == ((3, "rank_overflow"), (7, "injective"))


def _not_torsion(d, p: int):
    """A prime form of d whose p-th power is not principal."""
    return next(f for f in _prime_form_pool(d.value) if power(f, p).a != 1)


def test_class_not_p_torsion_is_left_to_the_scalar_route():
    d = validate(-1000003)
    f = _not_torsion(d, 3)
    assert _generator_lanes([(f, 3)]).shape == (5, 0)
    with pytest.raises(NotPrincipal, match=r"^\(13,3,19231\) to the power 3 is not principal"):
        torsion_power_generator(f, 3, build_context(d, 3).ring)


def test_scan_block_raises_not_principal_at_its_field(monkeypatch):
    # field k gets a 3-torsion form that is not 3-torsion, and class_groups
    # fails at a later field: a loop over the fields raises the NotPrincipal
    # of field k, and so must the block, whose class groups come first
    lo, hi = 10**6, 10**6 + 300
    fields = [(validate(-m), h) for m, h in class_numbers_range(lo, hi)]
    groups = [class_group(d, known_h=h) for d, h in fields]
    k = next(i for i, cg in enumerate(groups) if 3 in cg.sylow and len(cg.sylow[3][0]) == 1)
    d, cg = fields[k][0], groups[k]
    orders, _ = cg.sylow[3]
    groups[k] = cg._replace(sylow={**cg.sylow, 3: (orders, (_not_torsion(d, 3),))})
    with pytest.raises(NotPrincipal) as scalar:
        classify_validated(d, short_circuit=False, cg=groups[k])

    def failing_at(stop):
        def class_groups(block_fields):
            assert [f for f, _ in block_fields] == [f for f, _ in fields]
            yield from groups[:stop]
            raise ClassNumberAmbiguous("injected")

        return class_groups

    monkeypatch.setattr(survey, "class_groups", failing_at(k + 5))
    with pytest.raises(NotPrincipal) as block:
        survey._scan_block((lo, hi, (3,)))
    assert str(block.value) == str(scalar.value)
    monkeypatch.setattr(survey, "class_groups", failing_at(k))
    with pytest.raises(ClassNumberAmbiguous, match="injected"):
        survey._scan_block((lo, hi, (3,)))


# the one 3-torsion job of -1000003, with the lane functions of the kernel at hand
KERNEL_SETUP = """
from iqgalois import idealgen, lanes, quadform
from iqgalois.arith import InvariantViolation
from iqgalois.discriminant import validate
d = validate(-1000003)
[form] = quadform.p_torsion_basis(quadform.class_group(d), 3)
jobs = [(form, 3)]
basis, compose, xgcd = lanes._basis_lanes, lanes._compose_lanes, lanes._xgcd_lanes
"""


@pytest.mark.parametrize(
    "patch, message",
    [
        # a reduced basis scaled by 3: every norm is a multiple of 9
        (
            "lanes._basis_lanes = lambda f, s, w: tuple("
            "(3 * u, 3 * v) for u, v in basis(f, s, w))",
            "lane 0: no basis vector of 1*[237169, -225657] has norm prime to 3",
        ),
        # v2 doubled: mu and w span a sublattice of index 2
        (
            "lanes._basis_lanes = lambda f, s, w: (lambda v1, v2: "
            "(v1, (2 * v2[0], 2 * v2[1])))(*basis(f, s, w))",
            "lane 0: (4583, 21) and (46048, 4) do not span 1*[237169, -225657]",
        ),
        # a3 times 4: the lattice is no longer closed under the order
        (
            "lanes._compose_lanes = lambda f, g: (lambda d, t: "
            "(d, (4 * t[0], t[1], t[2])))(*compose(f, g))",
            "lane 0: 1*[948676, 248681] is not an ideal: it gives (340, -76)",
        ),
        # a Bezout coefficient off by one gives a b3 whose c3 is not an integer
        (
            "lanes._xgcd_lanes = lambda x, m: (lambda g, s: (g, s + 1))(*xgcd(x, m))",
            "lane 0: 4*237169 does not divide 174657^2 - (-1000003)",
        ),
    ],
)
def test_kernel_checks_raise_under_optimize(patch, message, run_optimized):
    script = KERNEL_SETUP + patch + "\n" + (
        "try:\n"
        "    lanes._generator_lanes(jobs)\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == message + "\n"


def test_not_principal_raises_at_its_field_under_optimize(run_optimized):
    # a class that is not 3-torsion in place of the 3-torsion form: the lanes
    # leave it with no status, and classify raises the scalar route's NotPrincipal
    script = KERNEL_SETUP + (
        "from iqgalois.classify import classify_validated\n"
        "from iqgalois.lanes import lane_statuses\n"
        "f = next(f for f in quadform._prime_form_pool(d.value) if quadform.power(f, 3).a != 1)\n"
        "cg = quadform.class_group(d)\n"
        "cg = cg._replace(sylow={**cg.sylow, 3: (cg.sylow[3][0], (f,))})\n"
        "statuses = lane_statuses([(d, cg, 3, [f])])\n"
        "print(statuses)\n"
        "try:\n"
        "    classify_validated(d, cg=cg, short_circuit=False, statuses={})\n"
        "except idealgen.NotPrincipal as exc:\n"
        "    print(exc)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "[None]\n(13,3,19231) to the power 3 is not principal: its state has norm 179\n"
    )


@pytest.mark.parametrize(
    "patch, call",
    [
        (
            "orig = idealgen.compose_unreduced\n"
            "idealgen.compose_unreduced = lambda f, g: (lambda d, t: (2 * d, t))(*orig(f, g))\n",
            "idealgen.torsion_power_generator(form, 3, build_context(d, 3).ring)",
        ),
        (
            "lanes._compose_lanes = lambda f, g: (lambda d, t: (2 * d, t))(*compose(f, g))\n",
            "lanes._generator_lanes(jobs)",
        ),
    ],
    ids=["scalar", "lanes"],
)
def test_wrong_content_raises_on_both_routes_under_optimize(patch, call, run_optimized):
    # a doubled content d passes every other check of a product of states, and
    # gave the image (4, 6) for (1, 6): N(J) = d^2 * a3 = a1 * a2 catches it
    script = KERNEL_SETUP + "from iqgalois.localtest import build_context\n" + patch + (
        f"try:\n    print({call})\nexcept InvariantViolation as exc:\n    print(exc)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("2*[237169, -225657] has norm 948676, not 487*487\n")


def _chosen_one_by_one(jobs: list) -> np.ndarray:
    """lanes._lanes's rows from coprime_representative, job by job: the scalar choice."""
    rows = []
    for i, (form, p) in enumerate(jobs):
        try:
            a, b, c = coprime_representative(form, p)
        except (ValueError, InvariantViolation):
            continue
        if p * p < lanes._RING_LIMIT:
            rows.append((i, a, b, c, 1, 0, 1, 4 * a * c - b * b, p))
    return np.array(rows, dtype=np.int64).reshape(-1, 9).T


@pytest.mark.parametrize("lo, hi", [(3, 20_000), (10**6, 10**6 + 2000)])
def test_lane_rows_choose_as_coprime_representative(lo, hi):
    jobs = [(form, p) for _, form, p in generator_jobs(lo, hi)]
    rows = lanes._lanes(jobs)
    assert np.array_equal(rows, _chosen_one_by_one(jobs))
    # every census job starts on a lane, some on a form other than its own
    assert rows.shape[1] == len(jobs) > 900 and (rows[1] != [f.a for f, _ in jobs]).any()


def test_hand_made_jobs_off_the_lanes():
    jobs = [
        (QuadForm(3, 1, 5), 3),  # 3 | a: (5, -1, 3)
        (QuadForm(3, 1, 3), 3),  # 3 | a, c: (7, -7, 3)
        (QuadForm(2, 2, 4), 3),  # not primitive
        (QuadForm(2, 1, 3), 6),  # a composite p sharing a factor with a, c and a + b + c = 6
        (QuadForm(2, 1, 3), 46349),  # p^2 = 2,148,229,801 reaches _RING_LIMIT = 2^31
        (QuadForm(2, 1, 3), 46337),  # p^2 = 2,147,117,569 does not
    ]
    rows = lanes._lanes(jobs)
    assert np.array_equal(rows, _chosen_one_by_one(jobs))
    assert rows[0].tolist() == [0, 1, 5]
    assert rows[1:4].T.tolist() == [[5, -1, 3], [7, -7, 3], [2, 1, 3]]
    assert lanes._lanes([]).shape == (9, 0)
