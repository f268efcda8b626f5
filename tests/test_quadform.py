import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqgalois import quadform
from iqgalois.arith import InvariantViolation, small_primes
from iqgalois.discriminant import NotFundamental, NotImaginary, validate
from iqgalois.idealgen import form_to_ideal, ideal_multiply, ideal_to_form
from iqgalois.quadform import (
    CLASS_NUMBER_LIMIT,
    ClassNumberAmbiguous,
    DiscriminantMismatch,
    QuadForm,
    RankOverflow,
    class_group,
    class_number,
    compose,
    compose_unreduced,
    coprime_representative,
    enumerate_reduced_forms,
    inverse,
    p_torsion_basis,
    power,
    prime_form,
    principal_form,
    reduce_form,
)
from iqgalois.survey import fundamental_mask, reduced_form_counts

from _oracles import invariant_factors_by_counting, is_fundamental, lattice_multiply, sl2_orbit


def test_reduce_fixed_point():
    assert reduce_form(QuadForm(1, 1, 6)) == QuadForm(1, 1, 6)


@pytest.mark.parametrize(
    "start,expected",
    [((6, 1, 1), (1, 1, 6)), ((3, -1, 2), (2, 1, 3))],
)
def test_reduce_matches_equivalence_orbit(start, expected):
    got = reduce_form(QuadForm(*start))
    assert (got.a, got.b, got.c) == expected
    # oracle: the expected form must be reachable by generator words
    assert expected in sl2_orbit(start)


def test_reduce_output_is_reduced():
    rng = random.Random(5)
    for D in (-23, -47, -84, -163, -479):
        forms = enumerate_reduced_forms(D)
        for f in forms:
            # scramble with a generator word, then reduce back
            g = (f.a, f.b, f.c)
            for _ in range(6):
                a, b, c = g
                g = random.Random(rng.random()).choice(
                    [(c, -b, a), (a, b + 2 * a, a + b + c), (a, b - 2 * a, a - b + c)]
                )
            back = reduce_form(QuadForm(*g))
            assert back == f and back.is_reduced()


def test_compose_identity_and_inverse():
    one = principal_form(-23)
    f = QuadForm(2, 1, 3)
    assert compose(one, f) == reduce_form(f)
    assert compose(f, inverse(f)) == one


def test_compose_frozen_products_at_minus_23():
    # Cl(-23) has exactly three classes, so (2,1,3)^2 is forced onto (2,-1,3)
    forms = enumerate_reduced_forms(-23)
    assert forms == [QuadForm(1, 1, 6), QuadForm(2, -1, 3), QuadForm(2, 1, 3)]
    f = QuadForm(2, 1, 3)
    assert compose(f, f) == QuadForm(2, -1, 3)
    assert compose(f, QuadForm(2, -1, 3)) == QuadForm(1, 1, 6)
    assert power(f, 3) == principal_form(-23)


def test_compose_discriminant_mismatch():
    with pytest.raises(DiscriminantMismatch):
        compose(QuadForm(1, 1, 6), QuadForm(1, 0, 5))


@pytest.mark.parametrize("D", [-23, -47, -84, -479, -1051])
def test_group_laws_random(D):
    rng = random.Random(D)
    forms = enumerate_reduced_forms(D)
    one = principal_form(D)
    for _ in range(40):
        f, g, k = (rng.choice(forms) for _ in range(3))
        assert compose(f, g) == compose(g, f)
        assert compose(compose(f, g), k) == compose(f, compose(g, k))
        assert compose(f, inverse(f)) == one


@pytest.mark.parametrize("D", [-23, -84, -479])
def test_compose_agrees_with_ideal_multiplication(D):
    # dual route: composition of forms must track multiplication of lattices,
    # and the ideal product (content included) must be the lattice product
    rng = random.Random(D)
    forms = enumerate_reduced_forms(D)
    for _ in range(30):
        f, g = rng.choice(forms), rng.choice(forms)
        i, j = form_to_ideal(f), form_to_ideal(g)
        lattice = lattice_multiply(i, j)
        assert compose(f, g) == ideal_to_form(lattice)
        assert ideal_multiply(i, j) == lattice


@settings(max_examples=60, deadline=None)
@given(m=st.integers(3, 30_000).filter(is_fundamental), data=st.data())
def test_compose_matches_ideal_multiplication_random(m, data):
    forms = enumerate_reduced_forms(-m)
    f = data.draw(st.sampled_from(forms))
    g = data.draw(st.sampled_from(forms))
    i, j = form_to_ideal(f), form_to_ideal(g)
    lattice = lattice_multiply(i, j)
    assert compose(f, g) == ideal_to_form(lattice)
    assert ideal_multiply(i, j) == lattice


# D = -3 and -4 have extra units, -20 and -84 ramified forms, -3299 and
# -4*1009 class groups large enough for every kind of pair
ORACLE_DISCRIMINANTS = (-3, -4, -20, -23, -84, -420, -3299, -4 * 1009)


def _branch(f, g) -> str:
    """Which branch of compose_unreduced the pair takes."""
    if f == g:
        return "square" if math.gcd(f.a, f.b) == 1 else "square, gcd(a, b) > 1"
    return "coprime" if math.gcd(f.a, g.a) == 1 else "general"


def _assert_product_is_lattice_product(f, g):
    D = f.disc
    d, (a3, b3, c3) = compose_unreduced(f, g)
    want = lattice_multiply(form_to_ideal(f), form_to_ideal(g))
    assert (d, a3, b3 % (2 * a3)) == (want.m, want.a, want.b % (2 * want.a)), (f, g)
    assert b3 * b3 - 4 * a3 * c3 == D, (f, g)


def _random_pair(rng, m):
    """A random class f of discriminant -m and a partner: f, its inverse or another class."""
    pool = [reduce_form(f) for q in small_primes()[:30] if (f := prime_form(-m, q))]
    f, other = (power(rng.choice(pool), rng.randrange(1, 60)) for _ in range(2))
    return f, rng.choice([f, inverse(f), other])


def test_compose_unreduced_is_the_lattice_product_on_every_branch():
    branches = set()
    for D in ORACLE_DISCRIMINANTS:
        forms = enumerate_reduced_forms(D)
        for f in forms:
            for g in forms:
                _assert_product_is_lattice_product(f, g)
                branches.add(_branch(f, g))
    rng = random.Random(12)
    fields = [m for m in range(10**7, 10**7 + 10**4) if is_fundamental(m)]
    for _ in range(2000):
        f, g = _random_pair(rng, rng.choice(fields))
        _assert_product_is_lattice_product(f, g)
        branches.add(_branch(f, g))
    assert branches == {"square", "square, gcd(a, b) > 1", "coprime", "general"}


@pytest.mark.parametrize("D", ORACLE_DISCRIMINANTS)
def test_power_is_the_repeated_lattice_product(D):
    for f in enumerate_reduced_forms(D):
        for step, sign in ((form_to_ideal(f), 1), (form_to_ideal(QuadForm(f.a, -f.b, f.c)), -1)):
            ideal = step
            for k in range(1, 41 if sign > 0 else 13):
                assert power(f, sign * k) == reduce_form(ideal.norm_form()), (f, sign * k)
                ideal = lattice_multiply(ideal, step)
        assert power(f, 0) == principal_form(D)


def test_class_group_examples():
    assert class_group(validate(-23)).h == 3
    assert class_group(validate(-23)).invariant_factors == (3,)
    assert class_group(validate(-47)).h == 5
    assert class_group(validate(-47)).invariant_factors == (5,)
    assert class_group(validate(-107)).h == 3


def _torsion_or_overflow(cg, p):
    """p_torsion_basis(cg, p), or None where the p-rank overflows (which must raise)."""
    if cg.p_rank(p) >= 3:
        with pytest.raises(RankOverflow):
            p_torsion_basis(cg, p)
        return None
    return p_torsion_basis(cg, p)


def test_class_group_generator_orders_exact():
    for m in (84, 195, 455, 1155, 3299):
        cg = class_group(validate(-m))
        one = principal_form(-m)
        for p in cg.sylow:
            for f in _torsion_or_overflow(cg, p) or ():
                assert f != one and power(f, p) == one, (m, p, f)


def test_class_group_generators_span_everything():
    # exhaustive coverage for small discriminants: at every p | h the torsion
    # forms span exactly the classes that p kills
    for m in (23, 47, 84, 120, 231, 479, 660):
        cg = class_group(validate(-m))
        one = principal_form(-m)
        forms = enumerate_reduced_forms(-m)
        for p in cg.sylow:
            basis = _torsion_or_overflow(cg, p)
            if basis is None:
                continue
            span = {one}
            for f in basis:
                span = {compose(s, power(f, i)) for s in span for i in range(p)}
            assert span == {f for f in forms if power(f, p) == one}, (m, p)


def test_invariant_factor_chain():
    for m in (84, 420, 660, 840, 3299):
        cg = class_group(validate(-m))
        factors = cg.invariant_factors
        assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
        prod = 1
        for f in factors:
            prod *= f
        assert prod == cg.h


def test_bsgs_matches_enumeration_below_ten_thousand():
    # class_number replaced the BSGS count; the name is kept with the fields
    count = 0
    for m in range(3, 10001):
        try:
            d = validate(-m)
        except (NotFundamental, NotImaginary):
            continue
        count += 1
        assert class_number(-m) == len(enumerate_reduced_forms(-m)), f"D=-{m}"
    assert count > 3000


def test_bsgs_full_structure_agreement_sample():
    # the group of the enumerated forms against class_group(d) from class_number
    for m in (3299, 4027, 9748, 10004, 100003):
        d = validate(-m)
        forms = enumerate_reduced_forms(-m)
        b = class_group(d)
        assert len(forms) == b.h and invariant_factors_by_counting(forms) == b.invariant_factors


@pytest.mark.parametrize("lo,hi", [(3, 20_000), (10**6, 10**6 + 10**4), (10**7, 10**7 + 10**4)])
def test_class_number_matches_survey_sieve(lo, hi):
    counts = reduced_form_counts(lo, hi)
    fields = (np.nonzero(fundamental_mask(lo, hi))[0] + lo).tolist()
    assert len(fields) > 3000
    for m in fields:
        assert class_number(-m) == counts[m - lo], f"D=-{m}"


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize(
    "D,h",
    [
        (-100000007, 7253),
        (-1000000007, 26629),
        (-10000000019, 39809),
        (-100000000003, 31057),
        (-1000000000039, 1113261),
    ],
)
def test_class_number_large_fields(D, h):
    # values agree with the prime-form subgroup count that class_number replaced
    assert class_number(D) == h


@pytest.mark.usefixtures("deadline")
def test_class_number_refuses_huge_discriminants_quickly():
    with pytest.raises(ValueError, match="class-number limit"):
        class_number(-(CLASS_NUMBER_LIMIT + 3))
    with pytest.raises(NotFundamental):
        class_number(-12)


@pytest.mark.usefixtures("deadline")
def test_class_group_wrong_known_h_raises_quickly():
    # Cl(-23) has order 3; a claimed h = 5 leaves a 5-Sylow the forms cannot fill
    with pytest.raises(ClassNumberAmbiguous):
        class_group(validate(-23), known_h=5)


def test_walk_basis_of_wrong_order_raises(monkeypatch):
    # Cl(-3299) = (3, 9) takes the table walk; a Smith form that keeps the
    # generators as the basis gives the order-3 factor a form of order 9
    snf = quadform.smith_normal_form

    def identity_transform(relations):
        diag, _ = snf(relations)
        return diag, [[int(i == j) for j in range(len(diag))] for i in range(len(diag))]

    monkeypatch.setattr(quadform, "smith_normal_form", identity_transform)
    with pytest.raises(InvariantViolation, match=r"^\(3,1,275\) does not have exact order 3$"):
        class_group(validate(-3299))


def test_sylow_orders_must_multiply_to_h(monkeypatch):
    # Cl(-56) = Z/4; a 2-part of order 2 leaves h = 4 unfilled
    def two_part(d, h, e, pool):
        return (2,), None

    monkeypatch.setattr(quadform, "_two_sylow_orders", two_part)
    with pytest.raises(InvariantViolation, match="^Sylow orders do not multiply to h = 4$"):
        class_group(validate(-56))


def test_parity_guard_prime_discriminants():
    for m in (7, 11, 23, 47, 71, 103, 163, 10007):
        d = validate(-m)
        assert class_group(d).h % 2 == 1


def test_prime_form_values():
    f = prime_form(-23, 2)
    assert f is not None and f.disc == -23 and f.a == 2
    assert prime_form(-23, 5) is None  # inert
    g = prime_form(-20, 5)
    assert g is not None and g.a == 5 and g.disc == -20


def test_p_torsion_basis_examples():
    cg23 = class_group(validate(-23))
    basis = p_torsion_basis(cg23, 3)
    assert len(basis) == 1 and basis[0] in (QuadForm(2, 1, 3), QuadForm(2, -1, 3))
    cg20 = class_group(validate(-20))
    assert p_torsion_basis(cg20, 2) == [QuadForm(2, 2, 3)]
    with pytest.raises(ValueError):
        p_torsion_basis(cg23, 5)


def test_p_torsion_basis_rank_overflow():
    # smallest convenient discriminant of 3-rank three (h = 567 by
    # class_number; invariant factors (3, 3, 63))
    d = validate(-3321607)
    assert class_number(-3321607) == 567
    cg = class_group(d, known_h=567)
    assert cg.invariant_factors == (3, 3, 63)
    with pytest.raises(RankOverflow):
        p_torsion_basis(cg, 3)


def test_coprime_representative_examples():
    assert coprime_representative(QuadForm(1, 1, 6), 3) == QuadForm(1, 1, 6)
    out = coprime_representative(QuadForm(3, 1, 2), 3)
    assert out == QuadForm(2, -1, 3)
    with pytest.raises(ValueError):
        coprime_representative(QuadForm(5, 5, 15), 5)


@pytest.mark.parametrize(
    "f, p",
    [
        (QuadForm(3, 1, 6), 3),
        (QuadForm(5, 3, 10), 5),
        (QuadForm(2, 1, 2), 2),
        (QuadForm(9, 7, 3), 3),  # not reduced
    ],
)
def test_coprime_representative_when_p_divides_a_and_c(f, p):
    # f(1, 0) = a and f(0, 1) = c vanish mod p, but f(1, 1) = b mod p does not
    out = coprime_representative(f, p)
    assert out.a == f.a + f.b + f.c
    assert out.disc == f.disc and reduce_form(out) == reduce_form(f)


def test_coprime_representative_properties():
    rng = random.Random(99)
    for D in (-23, -84, -479, -1051):
        forms = enumerate_reduced_forms(D)
        for p in (2, 3, 5, 7, 13):
            for _ in range(10):
                f = rng.choice(forms)
                out = coprime_representative(f, p)
                assert out.a % p != 0
                assert out.disc == D
                assert reduce_form(out) == reduce_form(f)
