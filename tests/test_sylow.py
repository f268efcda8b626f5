"""Class-group Sylow data against the plain subgroup walk.

quadform._sylow_structure returns an odd-q Sylow subgroup at once when the
first projected prime form has exact order q^e, and grows every other odd-q
subgroup by the walk: both must give exactly what the walk alone gives,
and the test data must reach both.
The 2-orders come from the Redei matrix, or from the chain walk
(_two_sylow_structure) where that leaves a choice; they must equal the
walk's.  The chain walk, which builds a 2-basis from independent order-2
tops with no element table, is the oracle for the Redei route: its basis
may differ from the subgroup walk's, its orders may not, each basis form
must have exactly its order, and the basis must span the subgroup.
"""

import collections
import itertools
import math
import random

import pytest

from iqgalois import quadform
from iqgalois.arith import InvariantViolation, factorize, small_primes
from iqgalois.discriminant import validate
from iqgalois.quadform import ClassNumberAmbiguous, compose, power, principal_form
from iqgalois.survey import BLOCK_SIZE, class_numbers_range

from _oracles import invariant_factors_by_counting, sylow_structure_walk

# below this |D| the span of every 2-basis is enumerated
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


@pytest.fixture
def branches(monkeypatch):
    """Count what each _two_insert call did to the chains it was given."""
    counts = collections.Counter()
    insert = quadform._two_insert

    def counting_insert(chains, span, chain, one):
        before = list(chains)
        out = insert(chains, span, chain, one)
        counts["calls"] += 1
        if len(chains) > len(before):
            counts["append"] += 1
        if any(c is chain for c in chains[: len(before)]):
            counts["swap"] += 1
        if len(chains) == len(before) and all(c is b for c, b in zip(chains, before)):
            counts["identity"] += 1
        return out

    monkeypatch.setattr(quadform, "_two_insert", counting_insert)
    return counts


def _span(basis, orders, one) -> set:
    span = {one}
    for b, order in zip(basis, orders):
        span = {compose(s, power(b, i)) for s in span for i in range(order)}
    return span


def test_sylow_matches_walk(routes, branches):
    cyclic_at_once = 0
    for m, h in _fields():
        D = -m
        calls = branches["calls"]
        cg = quadform.class_group(validate(D), known_h=h)
        # the chain walk runs once: in class_group, or in sylow_basis for a Redei entry
        basis = cg.sylow_basis(2) if h % 2 == 0 else ()
        calls = branches["calls"] - calls
        got = cg.sylow
        one = principal_form(D)
        for q, e in factorize(h):
            want = sylow_structure_walk(D, h, q, e, quadform._prime_form_pool(D))
            if q != 2:
                assert got[q] == want, (D, h, q)
                continue
            orders = got[2][0]
            assert orders == want[0], (D, h)
            for b, o in zip(basis, orders):
                assert power(b, o) == one and power(b, o // 2) != one, (D, b, o)
            cyclic_at_once += calls == 1 and orders == (2**e,)
            if m < SPAN_LIMIT:
                span = _span(basis, orders, one)
                assert len(span) == 2**e and all(power(s, 2**e) == one for s in span), D
                forms = quadform.enumerate_reduced_forms(D)
                twos = tuple(f & -f for f in invariant_factors_by_counting(forms) if f % 2 == 0)
                assert orders == twos, (D, orders, twos)
    # odd q: the shortcut, the walk on a cyclic subgroup whose first projected
    # prime form does not generate it, and the walk on non-cyclic subgroups
    assert routes["shortcut"] and routes["walk cyclic"] and routes["walk noncyclic"], routes
    # q = 2: the first projected form of exact order 2^e, an append, a swap
    # with a chain of lower order, and a candidate reduced to the identity
    assert cyclic_at_once and all(branches[k] for k in ("append", "swap", "identity")), branches


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
# Cl(-260) = (2, 4): an order-4 chain joins an order-2 one past 2^2.
# The chain walk gives each its own message; class_group must raise as well.
@pytest.mark.parametrize(
    "D, h, match",
    [
        (-84, 8, "pool exhausted"),
        (-420, 16, "pool exhausted"),
        (-4036, 12, "does not divide 2"),
        (-1000011, 64, "does not divide 2"),
        (-260, 4, "exceeds order 2"),
    ],
)
@pytest.mark.usefixtures("deadline")
def test_two_sylow_wrong_known_h_raises_quickly(D, h, match):
    e = (h & -h).bit_length() - 1
    with pytest.raises(ClassNumberAmbiguous, match=match):
        quadform._two_sylow_structure(D, h, e, quadform._prime_form_pool(D))
    with pytest.raises(ClassNumberAmbiguous):
        quadform.class_group(validate(D), known_h=h)


def test_redei_four_rank_matches_walk():
    seen = collections.Counter()
    for m, h in class_numbers_range(3, 20_000):
        if h % 2:
            continue
        e = (h & -h).bit_length() - 1
        orders = quadform._two_sylow_structure(-m, h, e, quadform._prime_form_pool(-m))[0]
        r4 = quadform._redei(validate(-m))[2]
        assert r4 == sum(o >= 4 for o in orders), (-m, h, orders, r4)
        seen[r4] += 1
    assert len(seen) >= 3, seen


def _generating_pool(D: int):
    """The prime forms of norm up to sqrt(|D|/3).

    They generate Cl(D): every class holds a reduced form (a, b, c) with
    a <= sqrt(|D|/3), a product of prime forms of the primes dividing a.  A
    walk over a generating pool ends as it would over the whole pool, since
    later prime forms project into the subgroup it has already spanned.
    """
    bound = math.isqrt(-D // 3)
    for q in itertools.takewhile(lambda q: q <= bound, small_primes()):
        if (f := quadform.prime_form(D, q)) is not None:
            yield quadform.reduce_form(f)


def test_wrong_known_h_caught_by_the_walk_still_raises(monkeypatch):
    # claims h/2 and 2h: those the chain walk catches, with every 2-part
    # walked, must raise on the Redei route too
    monkeypatch.setattr(quadform, "_prime_form_pool", _generating_pool)
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

    with monkeypatch.context() as m:
        m.setattr(
            quadform,
            "_two_sylow_orders",
            lambda d, h, e, pool: quadform._two_sylow_structure(d.value, h, e, pool),
        )
        walked = raising()
    assert len(fields) == 1183 and walked
    assert walked <= raising()


def test_two_chains_with_one_top_are_dependent():
    # Cl(-4036) = Z/20: a form g of order 4 and g^2 share the top g^2
    D = -4036
    one = principal_form(D)
    g = next(
        x
        for f in itertools.islice(quadform._prime_form_pool(D), 20)
        if (x := power(f, 5)) != one and power(x, 2) != one
    )
    chain = quadform._two_chain(g, one, 2)
    assert len(chain) == 2
    assert len(quadform._top_span([chain], one)) == 2
    with pytest.raises(InvariantViolation, match="not independent"):
        quadform._top_span([chain, chain[1:]], one)
