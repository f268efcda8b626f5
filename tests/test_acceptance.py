"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; a failed assertion marks the criterion failed.  All tolerances are
pinned here: the table reproductions are exact, the two statistical
fractions get the configured desk-scale windows, everything else is exact
arithmetic.
"""

import random

import pytest

from iqgalois import verify
from iqgalois.discriminant import genus_two_rank, validate
from iqgalois.idealgen import explicit_power_generator, form_to_ideal, ideal_power
from iqgalois.localtest import build_context, local_unit_image
from iqgalois.quadform import class_group, coprime_representative, p_torsion_basis
from iqgalois.survey import (
    BLOCK_SIZE,
    SurveyConfig,
    class_numbers_range,
    scan,
    table1,
    table3,
)
from iqgalois.verify import random_local_unit

from _oracles import is_perfect_power, principal_ideal


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS - {text}")


def test_criterion_1_table1_small_rows():
    rows = table1(3, 1000)
    assert rows[2].count == 18 and rows[2].nonsplit == 8
    assert rows[2].split_discriminants == (35, 51, 91, 115, 123, 187, 235, 267, 403, 427)
    assert rows[3].count == 16 and rows[3].nonsplit == 13
    assert rows[3].split_discriminants == (107, 331, 643)
    rows5 = table1(5, 3000)
    assert rows5[5].count == 25
    assert rows5[5].split_discriminants == (347, 443, 739, 1051, 1123, 1723)
    rows7 = table1(7, 6000)
    assert rows7[7].count == 31
    assert rows7[7].split_discriminants == (859, 1163, 2707, 5107)
    _report(1, "table of split fields for h in {2,3,5,7} reproduced exactly")


def test_criterion_2_table1_spot_rows():
    listed = {
        11: {9403, 5179, 2027, 10987, 13267},
        13: {1667, 2963, 11923},
        17: {383, 8539, 16699, 25243},
        19: {4327, 17299, 17539, 17683},
        23: {2411, 9587, 21163},
    }
    bound = 200_000
    rows = table1(23, bound)
    for p, want in listed.items():
        inside = {m for m in want if m <= bound}
        got = set(rows[p].split_discriminants)
        assert got == inside, (p, got, inside)
    _report(2, "split lists for h in {11,13,17,19,23} exact below 200000")


def test_criterion_3_two_family_oracle_equivalence():
    fields = verify.two_family_fields(100_000)
    assert len(fields) > 10_000
    assert verify.two_families(fields) == []
    _report(3, f"family test equals direct mod-8 check on {len(fields)} fields to 1e5")


GRID = {
    (3, "split"): -23,
    (3, "inert"): -7,
    (3, "ramified"): -15,
    (5, "split"): -19,
    (5, "inert"): -23,
    (5, "ramified"): -20,
    (7, "split"): -47,
    (7, "inert"): -4,
    (7, "ramified"): -7,
    (11, "split"): -7,
    (11, "inert"): -15,
    (11, "ramified"): -11,
    (13, "split"): -4,
    (13, "inert"): -8,
    (13, "ramified"): -39,
}


def test_criterion_4_closed_form_vs_generic_engine():
    # the shared suite runs verify.UNITS_PER_CASE random units on every case
    assert verify.UNITS_PER_CASE == 100
    assert {(p, D) for (p, _), D in GRID.items()} <= set(verify.LOCAL_CASES)
    assert verify.local_engines() == []
    rng = random.Random(404)
    for (p, typ), D in GRID.items():
        ctx = build_context(validate(D), p)
        assert ctx.splitting == typ
        if ctx.torsion:
            continue  # delegated case has no closed coordinates
        for _ in range(100):
            a, b = random_local_unit(rng, D, p), random_local_unit(rng, D, p)
            embed = lambda x: ctx.ring.embed(x.u, x.v)  # noqa: E731
            ia, ib = local_unit_image(ctx, embed(a)), local_unit_image(ctx, embed(b))
            iab = local_unit_image(ctx, embed(a.mul(b)))
            assert iab.coords == (
                (ia.coords[0] + ib.coords[0]) % p,
                (ia.coords[1] + ib.coords[1]) % p,
            )
    _report(4, "closed forms match the enumerative engine; coordinates additive")


def test_criterion_5_quotient_size():
    # 10 cases: every splitting type at p <= 7, plus p = 3 ramified with a
    # local cube root of unity (D = -39: D/(-3) = 13 = 1 mod 3)
    cases = [(p, D) for p, D in verify.LOCAL_CASES if p <= verify.INDEX_MAX_P]
    assert len(cases) == 10 and (3, -39) in cases
    assert verify.quotient_index() == []
    _report(5, "torsion-times-p-th-powers has index p^2 in every quotient ring")


def test_criterion_6_generator_recovery():
    rng = random.Random(606)
    pool = []
    for m, h in class_numbers_range(3, 4000):
        for p in (3, 5, 7, 11):
            if h % p == 0:
                pool.append((m, h, p))
    instances = rng.sample(pool, 50)
    for m, h, p in instances:
        d = validate(-m)
        cg = class_group(d, known_h=h)
        if cg.p_rank(p) >= 3:
            continue
        for form in p_torsion_basis(cg, p):
            ideal = form_to_ideal(coprime_representative(form, p))
            target = ideal_power(ideal, p)
            alpha = explicit_power_generator(form, p)
            assert alpha.norm == ideal.norm**p
            assert principal_ideal(alpha) == target
            assert not is_perfect_power(alpha, p), (m, p)
    _report(6, "50 pipeline instances: norms, lattices, and no p-th powers")


def test_criterion_7_genus_two_rank():
    checked = 0
    for m, h in class_numbers_range(3, 10_001):
        d = validate(-m)
        cg = class_group(d, known_h=h)
        assert cg.p_rank(2) == genus_two_rank(d), f"D=-{m}"
        checked += 1
    assert checked > 3000
    _report(7, f"computed 2-rank equals ramified-prime count minus one on {checked} fields")


def test_criterion_8_table2_desk_scale():
    r3 = table3(3, 300, 100_000)
    assert 0.70 <= r3.overall <= 1.25, r3
    r5 = table3(5, 200, 100_000)
    assert 0.6 <= r5.overall <= 1.4, r5
    _report(
        8,
        f"desk-scale splitting fractions 3*f_3={r3.overall:.3f}, "
        f"5*f_5={r5.overall:.3f} inside the configured windows",
    )


def test_criterion_9_worker_determinism(csv_bytes):
    # more |D| than one block holds, so the band is scanned as two or more
    # blocks and the 8-worker scan goes through the process pool
    d_min, d_max = 3, 10_500
    assert d_max - d_min + 1 > BLOCK_SIZE
    cfg1 = SurveyConfig(d_min=d_min, d_max=d_max, primes=(2, 3, 5, 7), workers=1)
    cfg8 = SurveyConfig(d_min=d_min, d_max=d_max, primes=(2, 3, 5, 7), workers=8)
    assert csv_bytes(scan(cfg1)) == csv_bytes(scan(cfg8))
    _report(9, f"scan output byte-identical for 1 and 8 workers on |D| <= {d_max}")


# [3, 20000) holds 6,185 generators (pinned by test_golden), [1e7, 1e7 + 2000) 1,077
@pytest.mark.parametrize("lo, hi", [(3, 20_000), (10**7, 10**7 + 2000)])
def test_criterion_10_compact_generator_images(lo, hi):
    assert verify.generators(lo, hi) == []
    _report(10, f"compact generator images are +-the explicit ones on |D| in [{lo}, {hi})")
