import random

import pytest

from iqgalois import idealgen, survey
from iqgalois.arith import InvariantViolation, square_and_multiply
from iqgalois.discriminant import validate
from iqgalois.idealgen import (
    NotPrincipal,
    QuadIdeal,
    QuadraticInteger,
    explicit_power_generator,
    form_to_ideal,
    ideal_multiply,
    ideal_power,
    ideal_to_form,
    principal_generator,
    torsion_power_generator,
    unit_ideal,
)
from iqgalois.localtest import build_context
from iqgalois.quadform import (
    DiscriminantMismatch,
    QuadForm,
    coprime_representative,
    enumerate_reduced_forms,
    power,
)

from _oracles import principal_ideal


def test_quadratic_integer_integrality():
    a = QuadraticInteger(3, 1, -23)
    assert a.norm == 8
    with pytest.raises(ValueError):
        QuadraticInteger(1, 0, -20)  # u must be even for even D
    b = QuadraticInteger(4, 2, -23)
    assert b.conjugate() == QuadraticInteger(4, -2, -23)
    assert a.mul(a.conjugate()) == QuadraticInteger(16, 0, -23)  # = norm 8 as (16+0)/2


def test_form_to_ideal_examples():
    i1 = form_to_ideal(QuadForm(1, 1, 6))
    assert (i1.a, i1.b, i1.m) == (1, 1, 1) and i1.norm == 1
    i2 = form_to_ideal(QuadForm(2, 1, 3))
    assert (i2.a, i2.b, i2.m) == (2, 1, 1) and i2.norm == 2
    i3 = form_to_ideal(QuadForm(2, 2, 3))
    assert (i3.a, i3.b) == (2, 2) and i3.disc == -20


def test_ideal_validates_closure():
    with pytest.raises(ValueError):
        QuadIdeal(3, 0, 1, -23)  # 0^2 - (-23) not divisible by 12


def test_form_ideal_roundtrip():
    for D in (-23, -47, -84, -479):
        for f in enumerate_reduced_forms(D):
            assert ideal_to_form(form_to_ideal(f)) == f


def test_ideal_multiply_examples():
    one20 = unit_ideal(-20)
    p2 = QuadIdeal(2, 2, 1, -20)
    assert ideal_multiply(p2, one20) == p2
    # 2 ramifies at D=-20: the square of the prime above 2 is (2)
    sq = ideal_multiply(p2, p2)
    assert sq == QuadIdeal(1, 0, 2, -20) and sq.norm == 4
    assert sq == principal_ideal(QuadraticInteger(4, 0, -20))
    # conjugate split primes above 3 at D=-23 multiply to (3)
    p3, p3bar = QuadIdeal(3, 1, 1, -23), QuadIdeal(3, -1, 1, -23)
    assert ideal_multiply(p3, p3bar) == principal_ideal(QuadraticInteger(6, 0, -23))


def test_ideal_multiply_norms_and_mismatch():
    rng = random.Random(12)
    for D in (-23, -84, -479):
        forms = enumerate_reduced_forms(D)
        for _ in range(20):
            i, j = (form_to_ideal(rng.choice(forms)) for _ in range(2))
            assert ideal_multiply(i, j).norm == i.norm * j.norm
    with pytest.raises(DiscriminantMismatch):
        ideal_multiply(QuadIdeal(2, 2, 1, -20), QuadIdeal(2, 1, 1, -23))


def test_ideal_power_basics():
    p3 = QuadIdeal(3, 1, 1, -23)
    assert ideal_power(p3, 1) == p3
    assert ideal_power(unit_ideal(-23), 7) == unit_ideal(-23)
    assert ideal_power(QuadIdeal(2, 2, 1, -20), 2) == QuadIdeal(1, 0, 2, -20)
    assert ideal_power(p3, 5).norm == 3**5


def test_principal_generator_examples():
    two = QuadIdeal(1, 0, 2, -20)
    alpha = principal_generator(two)
    assert (alpha.u, alpha.v) == (4, 0)  # alpha = 2
    cube = ideal_power(QuadIdeal(3, 1, 1, -23), 3)
    gen = principal_generator(cube)
    assert (gen.u, gen.v) == (4, -2)  # alpha = 2 - sqrt(-23), norm 27
    assert gen.norm == 27


def test_principal_generator_sign_normalization():
    gen = principal_generator(principal_ideal(QuadraticInteger(-4, 2, -23)))
    assert gen.u > 0 or (gen.u == 0 and gen.v > 0)


def test_principal_generator_not_principal():
    with pytest.raises(NotPrincipal):
        principal_generator(QuadIdeal(3, 1, 1, -23))


def test_principal_generator_rejects_vector_outside_ideal(monkeypatch):
    # reduce the conjugate's lattice: its generator has the right norm, 27,
    # but lies outside the cube, so only the membership check can object
    cube = ideal_power(QuadIdeal(3, 1, 1, -23), 3)
    conj_basis = ideal_power(QuadIdeal(3, -1, 1, -23), 3).basis_vectors()
    monkeypatch.setattr(QuadIdeal, "basis_vectors", lambda self: conj_basis)
    with pytest.raises(NotPrincipal, match="does not lie in"):
        principal_generator(cube)


def test_principal_generator_rejects_extra_units():
    with pytest.raises(ValueError):
        principal_generator(unit_ideal(-4))


def test_generator_pipeline_properties():
    rng = random.Random(31)
    for D in (-23, -47, -71, -479, -1051):
        forms = [f for f in enumerate_reduced_forms(D) if f != QuadForm(1, 1, (1 - D) // 4)]
        for p in (3, 5, 7):
            for _ in range(4):
                f = rng.choice(forms)
                ideal = form_to_ideal(f)
                # pick exponents that trivialize the class: multiples of h work
                h = len(enumerate_reduced_forms(D))
                power_ideal = ideal_power(ideal, h * p)
                alpha = principal_generator(power_ideal)
                assert alpha.norm == ideal.norm ** (h * p)
                assert principal_ideal(alpha) == power_ideal


def test_compact_generator_image_example():
    # D = -23, p = 3: a^3 = ((3 - sqrt(-23))/2), of norm 8, for a = [2, (1 + sqrt(-23))/2]
    ring = build_context(validate(-23), 3).ring
    form = QuadForm(2, 1, 3)
    assert explicit_power_generator(form, 3) == QuadraticInteger(3, -1, -23)
    e = ring.embed(3, -1)
    assert torsion_power_generator(form, 3, ring) in (e, ring.mul(e, ring.minus_one))


def test_state_power_stands_for_the_ideal_power():
    # the state (f', g) of a^n means a^n = gamma * I with I the ideal of f' and
    # g the image of gamma: I is primitive, of norm prime to p and in the
    # class of a^n, and a^n * conj(I) = (gamma * N(I)) recovers g up to sign
    rng = random.Random(34)
    for D in (-23, -47, -479, -1051, -3299):
        forms = enumerate_reduced_forms(D)
        for p in (3, 5, 7):
            ring = build_context(validate(D), p).ring
            f = coprime_representative(rng.choice(forms), p)
            a = form_to_ideal(f)
            for n in range(1, 12):
                state, g = square_and_multiply(
                    (f, ring.one), n, lambda s, t: idealgen._state_product(s, t, ring)
                )
                assert QuadForm(*state).disc == D
                ideal = form_to_ideal(QuadForm(*state))
                assert ideal.m == 1 and ideal.norm % p
                assert ideal_to_form(ideal) == power(f, n)
                conj = QuadIdeal(ideal.a, -ideal.b, 1, D)
                scaled = principal_generator(ideal_multiply(ideal_power(a, n), conj))
                e = ring.mul(ring.embed(scaled.u, scaled.v), (pow(ideal.norm, -1, ring.mod), 0))
                assert g in (e, ring.mul(e, ring.minus_one)), (D, p, f, n)


@pytest.mark.parametrize(
    "D, form, p",
    [
        (-23, (2, 1, 3), 5),
        (-23, (2, 1, 3), 7),
        (-47, (2, 1, 6), 3),
        (-3299, (5, 1, 165), 7),
    ],
)
def test_class_that_is_not_p_torsion_raises_not_principal(D, form, p):
    # h(-23) = 3, h(-47) = 5, and (5, 1, 165) has order 9 in Cl(-3299) = Z/3 x Z/9:
    # a^p is not principal, so the last state product keeps a norm above 1
    ring = build_context(validate(D), p).ring
    with pytest.raises(NotPrincipal, match="is not principal"):
        torsion_power_generator(QuadForm(*form), p, ring)


def test_scan_builds_no_ideal_lattice(monkeypatch):
    # the per-field route closes on its state products: a scan never reaches
    # the ideal lattices, which serve the oracles only
    def unreachable(*args, **kwargs):
        raise AssertionError("the per-field route built an ideal lattice")

    names = ("QuadIdeal", "QuadraticInteger", "ideal_multiply", "ideal_power", "principal_generator")
    for name in names:
        monkeypatch.setattr(idealgen, name, unreachable)
    rows = survey._scan_block((3, 5000, (2, 3, 5, 7)))
    assert len(rows) == 1524
    assert any(p > 2 for row in rows for p, _ in row.record.per_prime)


def test_state_product_rejects_vectors_that_do_not_span(monkeypatch):
    reduced = idealgen.reduced_basis
    doubled = lambda *lattice: tuple((2 * u, 2 * v) for u, v in reduced(*lattice))  # noqa: E731
    monkeypatch.setattr(idealgen, "reduced_basis", doubled)
    ring = build_context(validate(-23), 3).ring
    with pytest.raises(InvariantViolation, match="do not span"):
        torsion_power_generator(QuadForm(2, 1, 3), 3, ring)


def test_state_product_rejects_a_product_that_is_not_an_ideal(monkeypatch):
    # [4, (1 + sqrt(-23))/2] is a lattice but no ideal: 16 does not divide 1 + 23
    monkeypatch.setattr(idealgen, "compose_unreduced", lambda f, g: (1, (4, 1, 6)))
    ring = build_context(validate(-23), 3).ring
    with pytest.raises(InvariantViolation, match="is not an ideal"):
        torsion_power_generator(QuadForm(2, 1, 3), 3, ring)
