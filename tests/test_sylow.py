"""Class-group Sylow data against the plain subgroup walk.

quadform._sylow_structure returns a Sylow subgroup at once when the first
projected prime form has exact order q^e, and grows every other subgroup by
the walk: both must give exactly what the walk alone gives, and the test
data must reach both.  The 2-orders come from genus theory and the Redei
matrix wherever the 4-rank is at most 2, and from _sylow_structure at
4-rank 3 or more; they must equal the walk's.  An odd q-entry keeps, for
each basis form b of order o, the form b^(o/q); a 2-entry keeps no form,
and the 2-torsion that p_torsion_basis reads from the ramified prime forms
must span the classes of order dividing 2.  The generator that fills a
walked subgroup costs only its power walk, and a wrong h whose last
relative order overshoots still raises.  sylow_subgroup, the p-part alone,
equals class_group's entry, at p = 2 too, and refuses a wrong h as
class_group does.
"""

import collections
import math
import random

import pytest

from iqgalois import lanes, quadform
from iqgalois.arith import InvariantViolation, factorize
from iqgalois.discriminant import validate
from iqgalois.quadform import ClassNumberAmbiguous, compose, power, principal_form
from iqgalois.survey import BLOCK_SIZE, class_numbers_range

from _oracles import invariant_factors_by_counting, sylow_structure_walk

# below this |D| the 2-orders and the 2-torsion span are checked against enumeration
SPAN_LIMIT = 2_000


def _fields():
    small = class_numbers_range(3, 20_000)
    block = class_numbers_range(10**6, 10**6 + BLOCK_SIZE)
    return small + random.Random(5).sample(block, 300)


@pytest.fixture
def routes(monkeypatch):
    """Count the odd-q Sylow subgroups that reach _adjoin (walk) and those that do not."""
    counts = collections.Counter()
    walked = []
    sylow, adjoin = quadform._sylow_structure, quadform._adjoin

    def counting_adjoin(*args):
        walked[-1] = True
        return adjoin(*args)

    def counting_sylow(D, h, q, e, pool):
        walked.append(False)
        out = sylow(D, h, q, e, pool)
        cyclic = "cyclic" if len(out[0]) == 1 else "noncyclic"
        route = "walk " + cyclic if walked.pop() else "shortcut"
        if q != 2:
            counts[route] += 1
        return out

    monkeypatch.setattr(quadform, "_adjoin", counting_adjoin)
    monkeypatch.setattr(quadform, "_sylow_structure", counting_sylow)
    return counts


def test_sylow_matches_walk(routes):
    for m, h in _fields():
        D = -m
        cg = quadform.class_group(validate(D), known_h=h)
        got = cg.sylow
        one = principal_form(D)
        for q, e in factorize(h):
            orders, basis = sylow_structure_walk(D, h, q, e, quadform._prime_form_pool(D))
            if q != 2:
                torsion = tuple(power(b, o // q) for o, b in zip(orders, basis))
                assert got[q] == (orders, torsion), (D, h, q)
                continue
            assert got[2] == (orders, None), (D, h)
            if m < SPAN_LIMIT:
                forms = quadform.enumerate_reduced_forms(D)
                twos = tuple(f & -f for f in invariant_factors_by_counting(forms) if f % 2 == 0)
                assert orders == twos, (D, orders, twos)
                if len(orders) >= 3:
                    continue  # p_torsion_basis overflows
                span = {one}
                for f in quadform.p_torsion_basis(cg, 2):
                    span |= {compose(f, s) for s in span}
                assert span == {f for f in forms if compose(f, f) == one}, D
    # odd q: the shortcut, the walk on a cyclic subgroup whose first projected
    # prime form does not generate it, and the walk on non-cyclic subgroups
    assert routes["shortcut"] and routes["walk cyclic"] and routes["walk noncyclic"], routes


def test_two_sylow_orders_match_walk_at_1e7():
    for m, h in class_numbers_range(10**7, 10**7 + BLOCK_SIZE):
        if h % 2:
            continue
        D = -m
        e = dict(factorize(h))[2]
        got = quadform.class_group(validate(D), known_h=h).sylow[2][0]
        want = sylow_structure_walk(D, h, 2, e, quadform._prime_form_pool(D))[0]
        assert got == want, (D, h)


# Cl(-84) = (2, 2) and Cl(-420) = (2, 2, 2): the pool cannot fill 2^3 or 2^4;
# h(-4036) = 20 and h(-1000011) = 368, so a projection keeps an odd part;
# Cl(-260) = (2, 4): an order-4 form and an order-2 one pass 2^2.
# The third value names the fault in each claim.
@pytest.mark.parametrize(
    "D, h, fault",
    [
        (-84, 8, "pool exhausted"),
        (-420, 16, "pool exhausted"),
        (-4036, 12, "does not divide 2"),
        (-1000011, 64, "does not divide 2"),
        (-260, 4, "exceeds order 2"),
    ],
)
@pytest.mark.usefixtures("deadline")
def test_two_sylow_wrong_known_h_raises_quickly(D, h, fault):
    with pytest.raises(ClassNumberAmbiguous):
        quadform.class_group(validate(D), known_h=h)


def test_redei_four_rank_matches_walk():
    seen = collections.Counter()
    for m, h in class_numbers_range(3, 20_000):
        if h % 2:
            continue
        e = (h & -h).bit_length() - 1
        orders = sylow_structure_walk(-m, h, 2, e, quadform._prime_form_pool(-m))[0]
        r4 = quadform._redei(validate(-m))[2]
        assert r4 == sum(o >= 4 for o in orders), (-m, h, orders, r4)
        seen[r4] += 1
    assert len(seen) >= 3, seen


@pytest.fixture(scope="module")
def four_rank_two():
    """(d, h) of every field with 4-rank 2 in [3, 2e4) and the 1e4-blocks at 1e6 and 1e7."""
    fields = []
    for lo, hi in ((3, 20_000), (10**6, 10**6 + BLOCK_SIZE), (10**7, 10**7 + BLOCK_SIZE)):
        for m, h in class_numbers_range(lo, hi):
            if h % 2 == 0 and quadform._redei(d := validate(-m))[2] == 2:
                fields.append((d, h))
    assert len(fields) == 249
    return fields


def test_four_rank_two_orders_match_walk(four_rank_two):
    for d, h in four_rank_two:
        e = (h & -h).bit_length() - 1
        got = quadform.class_group(d, known_h=h).sylow[2]
        want = sylow_structure_walk(d.value, h, 2, e, quadform._prime_form_pool(d.value))
        assert got == (want[0], None), (d.value, h)


@pytest.mark.parametrize(
    "D, orders",
    [(-503659, (4, 4, 8)), (-550712, (4, 4, 16)), (-568888, (4, 4, 8)), (-863455, (4, 4, 32))],
)
def test_four_rank_three_takes_the_table_walk(D, orders):
    d = validate(D)
    h = quadform.class_number(D)
    e = (h & -h).bit_length() - 1
    assert quadform._redei(d)[2] == 3
    cg = quadform.class_group(d, known_h=h)
    want = sylow_structure_walk(D, h, 2, e, quadform._prime_form_pool(D))
    assert cg.sylow[2] == (want[0], None) and want[0] == orders, (D, cg.sylow[2])


@pytest.mark.usefixtures("deadline")
def test_wrong_two_part_raises_at_four_rank_two(four_rank_two):
    # the claims h/2 and 2h: complete on the genus route, quick to refuse
    for d, h in four_rank_two:
        for claim in (h // 2, 2 * h):
            with pytest.raises(ClassNumberAmbiguous):
                quadform.class_group(d, known_h=claim)


@pytest.mark.usefixtures("deadline")
def test_wrong_odd_part_raises_quickly():
    # a claim 3h leaves a 3-part that the prime forms of norm up to
    # sqrt(|D|/3), which generate the group, cannot fill
    claims = [(validate(-m), 3 * h) for m, h in class_numbers_range(3, 5_000) if h % 3 == 0]
    assert len(claims) == 499
    for d, claim in claims:
        with pytest.raises(ClassNumberAmbiguous):
            quadform.class_group(d, known_h=claim)


def test_wrong_known_h_caught_by_the_walk_still_raises(monkeypatch):
    # claims h/2 and 2h: those the subgroup walk catches, with every 2-part
    # walked, must raise on the genus route too
    fields = [(validate(-m), h) for m, h in class_numbers_range(3, 5_000) if h % 2 == 0]
    claims = [(d, claim) for d, h in fields for claim in (h // 2, 2 * h)]

    def raising() -> set:
        out = set()
        for d, claim in claims:
            try:
                quadform.class_group(d, known_h=claim)
            except ClassNumberAmbiguous:
                out.add((d.value, claim))
        return out

    def walk(d, h, e, pool):
        return sylow_structure_walk(d.value, h, 2, e, pool)

    with monkeypatch.context() as m:
        m.setattr(quadform, "_two_sylow_orders", walk)
        walked = raising()
    assert len(fields) == 1183 and walked
    assert walked <= raising()


def _ambiguous(f) -> bool:
    """A reduced form equal to its inverse's reduced form: its class has order 1 or 2."""
    a, b, c = f
    return b == 0 or b == a or a == c


def test_ambiguous_pool_forms_project_to_the_identity():
    # so the odd-q walk may skip them before asking for their projection
    checked = 0
    for m, h in class_numbers_range(3, 20_000):
        D = -m
        one = principal_form(D)
        cofactors = [h // q**e for q, e in factorize(h) if q != 2]
        for f in filter(_ambiguous, quadform._prime_form_pool(D)):
            assert compose(f, f) == one, (D, f)
            for n in cofactors:
                assert power(f, n) == one, (D, f, n)
                checked += 1
    assert checked > 5_000


@pytest.mark.parametrize("lo, hi", [(3, 20_000), (10**6, 10**6 + BLOCK_SIZE)])
def test_odd_sylow_steps_ask_no_power_of_an_ambiguous_form(lo, hi, monkeypatch):
    asked = collections.Counter()
    odd = False

    def recording(f, n):
        asked[odd, _ambiguous(f)] += 1
        return power(f, n)

    monkeypatch.setattr(quadform, "power", recording)
    for m, h in class_numbers_range(lo, hi):
        d = validate(-m)
        for q, e in quadform._sylow_parts(d, h):
            odd = q != 2
            quadform._sylow_step(d, h, q, e)
    # the 2-parts still ask for the squares of ambiguous forms in their chains
    assert asked[True, True] == 0 and asked[True, False] > 5_000 and asked[False, True] > 0


def test_odd_known_h_with_even_two_rank_raises():
    # genus theory: 2^(t - 1) divides h for t prime divisors of D; an odd
    # claim at t >= 2 is refused before any walk.  h(-104) = 6, and the
    # claim 3 would pass as the group C3 otherwise: the ramified form
    # (2, 0, 13) that refuses it is ambiguous, which the odd walk skips
    fields = [(validate(-m), h) for m, h in class_numbers_range(3, 3_000) if h % 2 == 0]
    claims = [(d, h // (h & -h)) for d, h in fields]
    assert len(claims) > 500
    for d, claim in claims:
        with pytest.raises(ClassNumberAmbiguous, match=f"^odd h={claim} does not fit 2-rank"):
            quadform.class_group(d, known_h=claim)
    groups = lanes.class_groups([(validate(-104), 3)])
    with pytest.raises(ClassNumberAmbiguous, match="^odd h=3 does not fit 2-rank 1$"):
        next(groups)


def test_last_generator_of_a_walk_costs_only_its_power_walk(monkeypatch):
    # _adjoin makes k - 1 products for the walk x, x^2, ..., x^k and (k - 1)
    # (|H| - 1) for the table of <H, x>; the generator that fills q^e builds
    # no table, which nothing reads
    products, adjoined = 0, []
    compose, adjoin = quadform.compose, quadform._adjoin

    def counting_compose(f, g):
        nonlocal products
        products += 1
        return compose(f, g)

    def spying_adjoin(sub, x, limit):
        before = products
        k, vec, grown = adjoin(sub, x, limit)
        adjoined.append((len(sub), k, limit, products - before, grown))
        return k, vec, grown

    monkeypatch.setattr(quadform, "compose", counting_compose)
    monkeypatch.setattr(quadform, "_adjoin", spying_adjoin)
    walks = 0
    for m, h in class_numbers_range(3, 20_000):
        before = len(adjoined)
        quadform.class_group(validate(-m), known_h=h)
        walks += len(adjoined) > before
    last = [(k, cost, grown) for size, k, limit, cost, grown in adjoined if size * k >= limit]
    grew = [(size, k, cost, grown) for size, k, limit, cost, grown in adjoined if size * k < limit]
    # with the exact h each walk ends on the generator that fills q^e
    assert len(last) == walks > 50 and len(grew) > 50
    assert all(cost == k - 1 and grown is None for k, cost, grown in last)
    assert all(cost == (k - 1) * size and len(grown) == size * k for size, k, cost, grown in grew)


def test_wrong_h_whose_last_relative_order_overshoots_raises():
    # h(-15383) = 105 claimed as 35: the 5-walk projects by x^7, its first
    # form has order 3 and the next order 5 modulo that, so <H, x> has 15
    # elements where 5 are claimed; its table is not built, and its size
    # alone refuses the claim
    d = validate(-15383)
    message = r"^prime-form pool exhausted before generating the 5-part of Cl\(-15383\)$"
    with pytest.raises(ClassNumberAmbiguous, match=message):
        quadform.class_group(d, known_h=35)
    with pytest.raises(ClassNumberAmbiguous, match=message):
        next(lanes.class_groups([(d, 35)]))


def _odd_parts():
    """(d, h, p, e) for every fundamental |D| < 2e4 and every odd p^e || h."""
    for m, h in class_numbers_range(3, 20_000):
        d = validate(-m)
        yield from ((d, h, p, e) for p, e in factorize(h) if p != 2)


def _two_parts():
    """(d, h) for every fundamental |D| < 2e4 with even h."""
    for m, h in class_numbers_range(3, 20_000):
        if h % 2 == 0:
            yield validate(-m), h


def test_sylow_subgroup_is_the_p_part_of_the_whole_group():
    checked = 0
    for d, h, p, e in _odd_parts():
        part = quadform.sylow_subgroup(d, h, p)
        orders, _ = entry = quadform.class_group(d).sylow[p]
        assert part.sylow == {p: entry}, (d.value, p)
        assert part.h == p**e == math.prod(orders) and part.invariant_factors == orders
        assert part.discriminant == d.value
        checked += 1
    assert checked == 6_160
    with pytest.raises(ValueError, match="^5 does not divide h = 3$"):
        quadform.sylow_subgroup(validate(-23), 3, 5)


def test_sylow_subgroup_at_2_is_the_2_part_of_the_whole_group():
    # the route of every table at p = 2: the genus and Redei 2-orders alone
    checked = 0
    for d, h in _two_parts():
        part = quadform.sylow_subgroup(d, h, 2)
        orders, _ = entry = quadform.class_group(d, known_h=h).sylow[2]
        assert part.sylow == {2: entry}, d.value
        assert part.h == h & -h == math.prod(orders) and part.invariant_factors == orders
        assert part.discriminant == d.value
        checked += 1
    assert checked == 4_941


def test_sylow_subgroup_refuses_a_wrong_h_as_class_group_does():
    parts = list(_odd_parts())
    prime_discs = [(d, h, p) for d, h, p, _ in parts if d.num_prime_divisors == 1]
    assert len(parts) == 6_160 and len(prime_discs) == 1_607
    for d, h, p in prime_discs:
        # genus parity: an even h at a prime discriminant
        with pytest.raises(InvariantViolation, match="^genus parity violated"):
            quadform.sylow_subgroup(d, 2 * h, p)
    for d, h, p, _ in parts:
        if d.num_prime_divisors > 1:
            # an odd h at two or more primes
            with pytest.raises(ClassNumberAmbiguous, match="does not fit 2-rank"):
                quadform.sylow_subgroup(d, h // (h & -h), p)
        # a p-part larger than the true one, which the prime forms cannot fill
        with pytest.raises(ClassNumberAmbiguous):
            quadform.sylow_subgroup(d, p * h, p)
