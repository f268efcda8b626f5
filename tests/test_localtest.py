import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqgalois.arith import InvariantViolation
from iqgalois.discriminant import NotFundamental, NotImaginary, genus_two_rank, validate
from iqgalois.localtest import (
    GroupTooLarge,
    NotLocalUnit,
    PhiImage,
    _engine_subgroup,
    build_context,
    generic_membership,
    injectivity_test,
    local_unit_image,
    subgroup_index,
    two_classification,
    two_direct_check,
)
from iqgalois.quadform import QuadForm, compose, principal_form, two_torsion_basis

from _oracles import is_fundamental, quotient_trivial_brute, random_local_unit

# one discriminant per (prime, splitting type); all verified fundamental
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


def test_build_context_split_root():
    ctx = build_context(validate(-23), 3)
    assert ctx.splitting == "split"
    assert ctx.root in (2, 7)  # the square roots of -23 = 4 mod 9
    assert (ctx.root**2 + 23) % 9 == 0


def test_build_context_inert_has_no_root():
    ctx = build_context(validate(-23), 5)
    assert ctx.splitting == "inert" and ctx.root is None


def test_build_context_ramified_zeta_flag():
    # D/(-3) = 5 = 2 mod 3: no local cube root of unity
    ctx = build_context(validate(-15), 3)
    assert ctx.splitting == "ramified" and ctx.torsion == ()
    # D/(-3) = 13 = 1 mod 3: the cube root exists and cubes to one
    ctx39 = build_context(validate(-39), 3)
    (zeta,) = ctx39.torsion
    ring = ctx39.ring
    assert ring.pow(zeta, 3) == ring.one
    assert zeta != ring.one


@pytest.mark.parametrize(
    "p, D, kind",
    [
        (3, -23, "sqrt"),  # split
        (5, -23, "sqrt"),  # inert
        (3, -15, "sqrt"),  # ramified
        (2, -15, "omega"),
        (2, -20, "sqrt"),
    ],
)
def test_ring_pow_is_repeated_multiplication(p, D, kind):
    ring = build_context(validate(D), p).ring
    assert ring.kind == kind
    rng = random.Random(p * 1000 - D)
    elts = [ring.one, ring.minus_one, (0, 1)] + [
        (rng.randrange(ring.mod), rng.randrange(ring.mod)) for _ in range(5)
    ]
    for x in elts:
        want = ring.one
        for e in range(41):
            assert ring.pow(x, e) == want, (x, e)
            want = ring.mul(want, x)


def test_ring_pow_rejects_negative_exponent():
    # a negative exponent used to loop forever (-1 >> 1 == -1)
    ring = build_context(validate(-23), 3).ring
    with pytest.raises(ValueError):
        ring.pow((1, 1), -1)


def test_ramified_zeta_never_set_for_p_at_least_5():
    for m in range(3, 2000):
        try:
            d = validate(-m)
        except (NotFundamental, NotImaginary):
            continue
        for p in (5, 7, 11, 13):
            if m % p == 0:
                assert build_context(d, p).torsion == ()


def test_image_of_one_is_trivial():
    for (p, _), D in GRID.items():
        ctx = build_context(validate(D), p)
        img = local_unit_image(ctx, ctx.ring.embed(2, 0))
        assert img.trivial
        if img.coords is not None:
            assert img.coords == (0, 0)


def test_split_coordinates_frozen_values():
    ctx = build_context(validate(-23), 3)
    img = local_unit_image(ctx, ctx.ring.embed(3, 1))
    conj = local_unit_image(ctx, ctx.ring.embed(3, -1))
    assert not img.trivial and not conj.trivial
    # the conjugate swaps the two completion coordinates
    assert {img.coords, conj.coords} == {(2, 1), (1, 2)}


def test_inert_and_ramified_frozen_values():
    ctx = build_context(validate(-47), 5)
    inert = local_unit_image(ctx, ctx.ring.embed(9, 1))
    assert inert.coords == (0, 2) and not inert.trivial
    ctx = build_context(validate(-15), 3)
    ram = local_unit_image(ctx, ctx.ring.embed(1, 1))
    assert ram.coords == (2, 2) and not ram.trivial


def test_not_local_unit_rejected():
    ctx = build_context(validate(-23), 3)
    not_unit = ctx.ring.embed(1, 1)  # norm 6
    with pytest.raises(NotLocalUnit):
        local_unit_image(ctx, not_unit)
    with pytest.raises(NotLocalUnit):
        generic_membership(ctx, not_unit)


def test_generic_membership_constructed_members():
    rng = random.Random(40)
    for (p, _), D in list(GRID.items())[:9]:
        ctx = build_context(validate(D), p)
        ring = ctx.ring
        for _ in range(10):
            beta = random_local_unit(rng, D, p)
            elt = ring.pow(ring.embed(beta.u, beta.v), p)
            for t in ctx.torsion:
                elt = ring.mul(elt, t)
            h = _engine_subgroup(ring, p, ctx.torsion)
            assert elt in h


def test_engines_agree_on_random_units():
    rng = random.Random(41)
    for (p, typ), D in GRID.items():
        ctx = build_context(validate(D), p)
        assert ctx.splitting == typ
        for _ in range(30):
            alpha = random_local_unit(rng, D, p)
            closed = local_unit_image(ctx, ctx.ring.embed(alpha.u, alpha.v))
            brute = generic_membership(ctx, ctx.ring.embed(alpha.u, alpha.v))
            assert closed.trivial == brute.trivial, (p, typ, D, alpha)


# The engine enumerates (O/p^2)^*, about p^4 units, once per (p, D mod p^2):
# about a second at p = 23, so the examples are few and test several units.
# m starts at 3: at D = -3 the local cube root of unity must be in T_p.
@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(3, 10**6).filter(is_fundamental),
    p=st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=23, p=23, seed=0)
@example(m=39, p=3, seed=0)
@example(m=3, p=3, seed=0)
def test_closed_form_matches_engine_random(m, p, seed):
    # mirrors verify.local_engines on random fields instead of LOCAL_CASES
    D = -m
    ctx = build_context(validate(D), p)
    rng = random.Random(seed)
    for _ in range(10):
        alpha = random_local_unit(rng, D, p)
        elt = ctx.ring.embed(alpha.u, alpha.v)
        closed = local_unit_image(ctx, elt)
        assert closed.trivial == generic_membership(ctx, elt).trivial, (p, D, alpha)


# Every context with local p-power torsion goes to the engine, so the closed
# forms cannot check it: p = 3 ramified with a cube root of unity, and p = 2
# at odd D split and inert, D = 4 mod 8 with and without i, and D = 0 mod 8.
TORSION_CASES = [(3, -39), (3, -3), (2, -15), (2, -35), (2, -68), (2, -20), (2, -24)]


@pytest.mark.parametrize("p, D", TORSION_CASES)
def test_engine_matches_brute_search_with_torsion(p, D):
    ctx = build_context(validate(D), p)
    assert ctx.torsion
    rng = random.Random(D * p)
    seen = set()
    for _ in range(60):
        alpha = random_local_unit(rng, D, p)
        elt = ctx.ring.embed(alpha.u, alpha.v)
        trivial = generic_membership(ctx, elt).trivial
        assert trivial == quotient_trivial_brute(ctx.ring, p, ctx.torsion, elt)
        seen.add(trivial)
    assert seen == {True, False}


def test_coordinates_are_additive():
    rng = random.Random(42)
    for (p, typ), D in GRID.items():
        ctx = build_context(validate(D), p)
        if ctx.torsion:
            continue  # no closed coordinates in the delegated case
        for _ in range(25):
            a, b = random_local_unit(rng, D, p), random_local_unit(rng, D, p)
            embed = lambda x: ctx.ring.embed(x.u, x.v)  # noqa: E731
            ia, ib = local_unit_image(ctx, embed(a)), local_unit_image(ctx, embed(b))
            iab = local_unit_image(ctx, embed(a.mul(b)))
            expected = ((ia.coords[0] + ib.coords[0]) % p, (ia.coords[1] + ib.coords[1]) % p)
            assert iab.coords == expected


def test_group_too_large():
    d = validate(-23)
    with pytest.raises(GroupTooLarge):
        ctx = build_context(d, 29)
        generic_membership(ctx, ctx.ring.embed(2, 0))


def test_quotient_index_is_p_squared():
    cases = [(3, -23), (3, -7), (3, -15), (3, -39), (3, -3), (5, -19), (5, -23), (5, -20)]
    for p, D in cases:
        assert subgroup_index(build_context(validate(D), p)) == p * p
    for D in (-15, -20, -24, -35, -68):
        assert subgroup_index(build_context(validate(D), 2)) == 4


def test_injectivity_rank_one_and_determinant():
    ctx = build_context(validate(-19), 5)
    assert injectivity_test(ctx, [PhiImage(False, (1, 0))])
    assert not injectivity_test(ctx, [PhiImage(True, (0, 0))])
    assert not injectivity_test(ctx, [PhiImage(False, (1, 0)), PhiImage(False, (2, 0))])
    assert injectivity_test(ctx, [PhiImage(False, (1, 2)), PhiImage(False, (0, 3))])
    with pytest.raises(ValueError):
        injectivity_test(ctx, [])


def test_injectivity_membership_path():
    # synthetic rank-2 inputs through the enumerative engine
    ctx = build_context(validate(-39), 3)
    ring = ctx.ring
    h = _engine_subgroup(ring, 3, ctx.torsion)
    units = ring.units()
    outside = [u for u in units if u not in h]
    x1 = outside[0]
    dependent = ring.mul(x1, next(iter(h)))
    img_x1 = PhiImage(False, None, x1)
    assert not injectivity_test(ctx, [img_x1, PhiImage(False, None, dependent)])
    independent = None
    for cand in outside:
        cur, ok = cand, True
        xinv = ring.inv(x1)
        for _ in range(3):
            if cur in h:
                ok = False
                break
            cur = ring.mul(cur, xinv)
        if ok:
            independent = cand
            break
    assert independent is not None
    assert injectivity_test(ctx, [img_x1, PhiImage(False, None, independent)])


def test_two_classification_examples():
    assert two_classification(validate(-20), 1) == "injective"
    assert two_classification(validate(-35), 1) == "noninjective"
    assert two_classification(validate(-24), 1) == "injective"
    # 5 = -3 mod 8, so -40 sits in the -8p family (confirmed by the oracle)
    assert two_classification(validate(-40), 1) == "injective"
    assert two_classification(validate(-164), 1) == "noninjective"
    assert two_classification(validate(-7), 0) == "skipped"
    assert two_classification(validate(-84), 2) == "noninjective"


def test_order_two_form():
    assert two_torsion_basis(-20, 1) == [QuadForm(2, 2, 3)]
    (g,) = two_torsion_basis(-35, 1)
    assert g.disc == -35 and compose(g, g) == principal_form(-35) != g
    # Cl(-84) = (2, 2): the forms at 2 and 3 are kept; the one at 7 reduces to the one at 3
    assert two_torsion_basis(-84, 2) == [QuadForm(2, 2, 11), QuadForm(3, 0, 7)]
    with pytest.raises(InvariantViolation, match="2-rank 2, not 1"):
        two_torsion_basis(-84, 1)


def test_two_direct_check_examples():
    assert two_direct_check(validate(-20)) == "injective"
    assert two_direct_check(validate(-35)) == "noninjective"
    assert two_direct_check(validate(-40)) == "injective"
    assert two_direct_check(validate(-164)) == "noninjective"


def test_two_classification_matches_direct_check_small():
    for m in range(3, 3000):
        try:
            d = validate(-m)
        except (NotFundamental, NotImaginary):
            continue
        if d.num_prime_divisors != 2:
            continue
        assert two_classification(d, genus_two_rank(d)) == two_direct_check(d), f"D=-{m}"
