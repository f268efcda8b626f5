"""The lock-step local test of a scan block against the scalar status_at_odd_prime.

lanes.lane_statuses decides every odd-p status of a block from the
generator lanes of lanes._generator_lanes and the closed forms of
lanes._injective_lanes; status_at_odd_prime, on build_context,
local_unit_image and injectivity_test, is the oracle here.  Every status of
three census windows must agree; the p = 3 contexts with a local cube root
of unity must go to the enumerative engine, and the tests with an image the
lanes left must have no status; the ring power must make
square_and_multiply's count of products; a block's lane scratch must stay
small; the lane checks must raise at once, also under python -O; and on
random units of small rings, triviality and rank-2 independence must agree
with the scalar closed forms.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqgalois import lanes, survey
from iqgalois.classify import status_at_odd_prime
from iqgalois.discriminant import RAMIFIED, kronecker_at, validate
from iqgalois.lanes import _generator_lanes, _injective_lanes, class_groups, lane_statuses
from iqgalois.localtest import build_context, injectivity_test, local_unit_image
from iqgalois.survey import _odd_bases, class_numbers_range

from _oracles import rows_one_by_one


def _tests(lo: int, hi: int) -> list:
    """(d, cg, p, basis) at each odd p | h without rank overflow, at fundamental |D| in [lo, hi)."""
    fields = [(validate(-m), h) for m, h in class_numbers_range(lo, hi)]
    return [
        (d, cg, p, basis)
        for (d, _), cg in zip(fields, class_groups(fields))
        for p, basis in _odd_bases(cg)
    ]


def _torsion(d, p: int) -> bool:
    return p == 3 and d.value % 9 == 6


@pytest.mark.parametrize(
    "lo, hi, left", [(3, 20_000, 0), (10**6, 10**6 + 2000, 0), (10**7, 10**7 + 2000, 5)]
)
def test_lane_statuses_replay_the_scalar_test(lo, hi, left, monkeypatch):
    tests = _tests(lo, hi)
    scalar = [status_at_odd_prime(d, cg, p) for d, cg, p, _ in tests]
    engine = []

    def spy(d, cg, p, generators=None):
        engine.append((d.value, p, generators is not None))
        return status_at_odd_prime(d, cg, p, generators)

    monkeypatch.setattr(lanes, "status_at_odd_prime", spy)
    statuses = lane_statuses(tests)
    # at 1e7 a few states grow past _fits: their tests are left to the scalar route
    assert sum(s is None for s in statuses) == left
    assert [s for s in statuses if s] == [s for s, x in zip(scalar, statuses) if x]
    # exactly the tests with a local cube root of unity take the engine, on their lane images
    torsion = [
        (d.value, p, True) for (d, _, p, _), s in zip(tests, statuses) if _torsion(d, p) and s
    ]
    assert engine == torsion and len(torsion) > 10
    assert {s for s in scalar} == {"injective", "noninjective"}


def test_local_power_makes_square_and_multiply_s_products(monkeypatch):
    # per lane bit_length(e) - 1 squarings and popcount(e) - 1 products by g,
    # e = p - 1 where p ramifies and p^2 - 1 elsewhere
    tests = _tests(10**6, 10**6 + 2000)
    _, x, y, p, par = _generator_lanes((f, p) for _, _, p, basis in tests for f in basis)
    assert x.size > 900 and p.max() > 1000
    products = 0
    ring_mul = lanes._ring_mul

    def counting(g, h, m, par):
        nonlocal products
        products += m.size
        return ring_mul(g, h, m, par)

    monkeypatch.setattr(lanes, "_ring_mul", counting)
    every = np.arange(x.size)
    _injective_lanes(x, y, p, par, every, every)
    e = [q - 1 if r % q == 0 else q * q - 1 for q, r in zip(p.tolist(), par.tolist())]
    assert any(q - 1 == n for q, n in zip(p.tolist(), e))
    assert products == sum(n.bit_length() - 1 + n.bit_count() - 1 for n in e)


def test_lane_statuses_scratch_stays_small():
    tests = _tests(10**6, 10**6 + survey.BLOCK_SIZE)
    lane_statuses(tests)  # numpy's first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        lane_statuses(tests)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the kernels with a square-and-multiply loop each peaked at 1,752,139 bytes
    # here; with one shared loop they keep within 10 % of it
    assert peak <= 1_927_000


def test_torsion_congruence_is_build_context_s():
    # lane_statuses reads the torsion of build_context at p = 3 as D = 6 mod 9
    for m, _ in class_numbers_range(3, 20_000):
        d = validate(-m)
        if kronecker_at(d, 3) == RAMIFIED:
            assert bool(build_context(d, 3).torsion) == _torsion(d, 3), m


def test_torsion_and_left_tests_give_the_rows_of_one_by_one():
    # [1e7, +3000) holds tests left by the lanes and tests with local torsion
    lo, hi = 10**7, 10**7 + 3000
    tests = _tests(lo, hi)
    statuses = lane_statuses(tests)
    assert any(s is None for s in statuses)
    assert any(_torsion(d, p) for d, _, p, _ in tests)
    assert survey._scan_block((lo, hi, (2, 3, 5))) == rows_one_by_one(lo, hi, (2, 3, 5))


# (p, D) without local p-power torsion: split, inert and ramified at p = 3, 5, 7, 11
CASES = (
    (3, -23), (3, -7), (3, -15),
    (5, -19), (5, -23), (5, -20),
    (7, -47), (7, -4), (7, -7),
    (11, -7), (11, -15), (11, -11),
)


@st.composite
def unit_pairs(draw):
    """A case of CASES and two units of its O/p^2, in the basis {1, sqrt D}."""
    p, D = draw(st.sampled_from(CASES))
    ctx = build_context(validate(D), p)
    m = p * p
    unit = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(ctx.ring.is_unit)
    return ctx, draw(unit), draw(unit)


@settings(max_examples=300, deadline=None)
@given(unit_pairs())
@example((build_context(validate(-23), 3), (1, 0), (1, 0)))
@example((build_context(validate(-15), 3), (4, 1), (7, 2)))
def test_lane_closed_forms_agree_with_local_unit_image(case):
    ctx, g1, g2 = case
    p, par = ctx.p, ctx.ring.par
    rows = [np.array(v, dtype=np.int64) for v in zip(g1, g2)]
    # tests: g1 alone, g2 alone, and the pair
    first, second = np.array([0, 1, 0]), np.array([0, 1, 1])
    got = _injective_lanes(*rows, np.full(2, p), np.full(2, par), first, second).tolist()
    images = [local_unit_image(ctx, g) for g in (g1, g2)]
    want = [not images[0].trivial, not images[1].trivial, injectivity_test(ctx, images)]
    assert got == want


LANE_SETUP = """
import numpy as np
from iqgalois import lanes
from iqgalois.arith import InvariantViolation
# x, y, p and D mod p^2 of two lanes: 1 + sqrt(-20) and 4 + 2 sqrt(-20) at p = 5, which ramifies
rows = [np.array(v, dtype=np.int64) for v in ((1, 4), (1, 2), (5, 5), (5, 5))]
one = np.array([0, 1])
"""


@pytest.mark.parametrize(
    "setup, message",
    [
        # 5 + 2 sqrt(-20) has norm 25 + 80 = 0 mod 5: no unit
        ("rows[0][1] = 5\n", "lane 1: (5, 2) has norm divisible by 5"),
        # a ring product that returns 2: beta = g^(p - 1) is not 1 mod pi
        (
            "lanes._ring_mul = lambda x, y, m, par: (2 + 0 * x[0], 0 * x[1])\n",
            "lane 0: (1, 1)^4 = (2, 0) is not 1 mod pi",
        ),
    ],
    ids=["not_unit", "beta"],
)
def test_lane_checks_raise_under_optimize(setup, message, run_optimized):
    script = LANE_SETUP + setup + (
        "try:\n"
        "    print(lanes._injective_lanes(*rows, one, one))\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == message + "\n"
