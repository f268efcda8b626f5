"""The lock-step power kernel and class_groups against the scalar power and class_group.

lanes.class_groups runs the Sylow parts of many fields side by side on
array lanes and answers their power requests with one numpy kernel per
round; class_group runs the Sylow parts of one field after another on the
scalar power, and is the oracle here.  Every power that class_group takes
over two census windows must give the same form both ways, with power's
count of products, a scan block must give the same CSV bytes as
classifying its fields one by one, the block must leave the garbage
collector as it found it, the kernel's checks must raise also under python
-O, an exponent below 1 must be refused, also by the loop of all three
lane kernels before its first product, errors must surface at the field
that raised them, and a field past the kernel's int64 bound, or with a
claimed h past 2^53, must take class_group whole.  The odd array lanes
must take the first non-ambiguous forms of each pool as candidates, give
class_group's groups at every exit of the array route (a field that leaves
the lanes takes class_group whole), and end a wrong class number the way
class_group ends it.  So must the 2-parts of 4-rank 0 or 1, whose 4-rank
and candidate, computed in numpy, must be those of the scalar genus route.
A walk of two generators must start with the exact order of its first
generator.
"""

import collections
import gc
import itertools
import random

import numpy as np
import pytest

from iqgalois import lanes, quadform, survey
from iqgalois.arith import InvariantViolation, is_prime, small_primes
from iqgalois.discriminant import validate
from iqgalois.lanes import LANE_LIMIT, WHOLE, class_groups
from iqgalois.quadform import ClassGroupStructure, ClassNumberAmbiguous, QuadForm, class_group
from iqgalois.quadform import power, prime_form, principal_form, reduce_form
from iqgalois.survey import class_numbers_range

from _oracles import rows_one_by_one


def _requests(lo: int, hi: int) -> list:
    """Every (form, n >= 1) that class_group asks of power at the fundamental |D| in [lo, hi)."""
    out = []

    def recording(f, n):
        if n >= 1:
            out.append((f, n))
        return power(f, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadform, "power", recording)
        for m, h in class_numbers_range(lo, hi):
            class_group(validate(-m), known_h=h)
    return out


def _kernel(forms, exponents) -> tuple:
    """_power_lanes on the rows of the forms, one lane per form and exponent."""
    a, b, c = np.array(forms, dtype=np.int64).T
    return lanes._power_lanes(a, b, c, np.array(exponents, dtype=np.int64))


@pytest.mark.parametrize("lo", [10**6, 10**7])
def test_kernel_replays_every_class_group_power(lo, monkeypatch):
    requests = _requests(lo, lo + 2500)
    assert len(requests) > 4000 and max(n for _, n in requests) > 2**10
    products = 0
    compose = lanes._compose_lanes

    def counting(f, g):
        nonlocal products
        products += f[0].size
        return compose(f, g)

    monkeypatch.setattr(lanes, "_compose_lanes", counting)
    forms, exponents = zip(*requests)
    got = np.stack(_kernel(forms, exponents)).T.tolist()
    assert got == [list(power(f, n)) for f, n in requests]
    # square_and_multiply's count per lane: bit_length - 1 squarings, popcount - 1 products
    assert products == sum(n.bit_length() - 1 + n.bit_count() - 1 for n in exponents)


def test_kernel_refuses_exponents_below_one(deadline):
    f, g = list(quadform._prime_form_pool(-1000003))[1:3]
    with pytest.raises(ValueError, match="exponent 0 "):
        _kernel([f, g], [3, 0])
    with pytest.raises(ValueError, match="exponent -1 "):
        _kernel([f], [-1])
    # past 2^53 np.frexp may round n up to the next power of 2, a wrong top bit
    with pytest.raises(ValueError, match="exponent 9007199254740992 "):
        _kernel([f], [2**53])
    # _square_and_multiply_lanes, the loop of all three lane kernels, refuses
    # them before its first product
    calls = []

    def recording(t, u):  # products of integers mod 1009, one row
        calls.append(("square" if u is t else "product", t.shape[1]))
        return t * u % 1009

    def powers(exponents):
        n = np.array(exponents, dtype=np.int64)
        return lanes._square_and_multiply_lanes(np.full((1, n.size), 7), n, recording)[0]

    for exponents, shown in (([3, 0], "0"), ([-1, 5], "-1"), ([2, 2**53], "9007199254740992")):
        with pytest.raises(ValueError, match=f"^exponent {shown} is not in"):
            powers(exponents)
    assert calls == []
    # a lane at n = 1 takes no product; the rest square_and_multiply's count
    exponents = [1, 2, 13, 2**52 + 1]
    assert powers(exponents).tolist() == [pow(7, n, 1009) for n in exponents]
    assert sum(k for kind, k in calls if kind == "square") == 0 + 1 + 3 + 52
    assert sum(k for kind, k in calls if kind == "product") == 0 + 0 + 2 + 1


def test_scan_block_matches_fields_one_by_one(csv_bytes):
    lo, hi, primes = 10**6, 10**6 + survey.BLOCK_SIZE, (2, 3, 5, 7)
    rows = rows_one_by_one(lo, hi, primes)
    assert csv_bytes(survey._scan_block((lo, hi, primes))) == csv_bytes(rows)


def test_scan_block_restores_the_collector(monkeypatch):
    # the block pauses the cyclic collector and leaves it as it found it,
    # also when the block raises
    block = (3, 200, (2, 3))
    survey._scan_block(block)
    assert gc.isenabled()
    gc.disable()
    try:
        survey._scan_block(block)
        assert not gc.isenabled()
    finally:
        gc.enable()

    def failing(fields):
        raise ClassNumberAmbiguous("injected")
        yield

    monkeypatch.setattr(survey, "class_groups", failing)
    with pytest.raises(ClassNumberAmbiguous, match="injected"):
        survey._scan_block(block)
    assert gc.isenabled()


# two lanes of forms from the prime-form pools of -1000003 and -1000011
KERNEL_SETUP = """
import numpy as np
from iqgalois import lanes, quadform
pool = list(quadform._prime_form_pool(-1000003))
f, g, other = pool[1], pool[2], next(quadform._prime_form_pool(-1000011))
from iqgalois.arith import InvariantViolation
rows = lambda *forms: tuple(np.array(x, dtype=np.int64) for x in zip(*forms))
"""


@pytest.mark.parametrize(
    "call, message",
    [
        # lane 1 composes forms of discriminants -1000003 and -1000011
        (
            "lanes._compose_lanes(rows(f, f), rows(g, other))",
            "lane 1: (19,9,13159) and (3,3,83335) have different discriminants",
        ),
        # a Bezout coefficient off by one gives a b3 whose c3 is not an integer
        (
            "xgcd = lanes._xgcd_lanes\n"
            "lanes._xgcd_lanes = lambda x, m: (lambda g, s: (g, s + 1))(*xgcd(x, m))\n"
            "lanes._power_lanes(*rows(f, g), np.array([5, 6]))",
            "lane 0: 4*361 does not divide 427^2 - (-1000003)",
        ),
    ],
)
def test_kernel_checks_raise_under_optimize(call, message, run_optimized):
    body = "".join(f"    {line}\n" for line in call.splitlines())
    script = KERNEL_SETUP + f"try:\n{body}except InvariantViolation as exc:\n    print(exc)\n"
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == message + "\n"


def _outcome(fn):
    """The type and text of what fn() raises."""
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError("no exception")


def test_wrong_known_h_raises_at_its_field():
    fields = [(validate(-m), h) for m, h in class_numbers_range(3, 3000)]
    # at field 400 a 3-part that the prime forms cannot fill; at field 700,
    # h(-1000011) = 368 claimed as 192, a 2-part whose chain does not close
    # and a 3-part that cannot fill: class_group, walking q upwards, raises
    # the 2-part's
    d, h = fields[400]
    fields[400] = (d, 3 * h)
    d2 = validate(-1000011)
    fields[700] = (d2, 192)
    two_part = _outcome(lambda: class_group(d2, known_h=192))
    assert "does not divide 2^6" in two_part[1]
    assert "3-part" in _outcome(lambda: class_group(d2, known_h=3 * 368))[1]
    got = []
    groups = class_groups(fields)
    kind, text = _outcome(lambda: got.extend(groups))
    assert (kind, text) == _outcome(lambda: class_group(d, known_h=3 * h))
    assert kind is ClassNumberAmbiguous
    assert got == [class_group(d, known_h=h) for d, h in fields[:400]]
    got = []
    groups = class_groups(fields[401:])
    assert _outcome(lambda: got.extend(groups)) == two_part
    assert len(got) == 299


def test_genus_parity_raises_at_its_field():
    # -23 is a prime discriminant, so its h is odd: h = 2 fails genus parity
    # in _sylow_parts, before any power, and class_groups keeps it at admission
    fields = [(validate(-m), h) for m, h in class_numbers_range(3, 200)]
    k = next(i for i, (d, _) in enumerate(fields) if d.value == -23)
    fields[k] = (fields[k][0], 2)
    parity = _outcome(lambda: class_group(validate(-23), known_h=2))
    message = "genus parity violated: prime discriminant -23 with even h=2"
    assert parity == (InvariantViolation, message)
    got = []
    groups = class_groups(fields)
    assert _outcome(lambda: got.extend(groups)) == parity
    assert got == [class_group(d, known_h=h) for d, h in fields[:k]]


def _first_fundamental(m: int, step: int):
    """The first fundamental discriminant -m, -(m + step), ..."""
    while True:
        try:
            return validate(-m)
        except ValueError:
            m += step


def test_lane_bound_routes_past_it_to_scalar_power(monkeypatch):
    # b3 < 2*a3 <= 2|D|/3, so b3^2 - D stays below 2^63 up to the bound
    assert 4 * LANE_LIMIT**2 // 9 + LANE_LIMIT < 2**63
    asked = []
    kernel = lanes._power_lanes

    def recording(a, b, c, n):
        asked.append(4 * a * c - b * b)
        return kernel(a, b, c, n)

    monkeypatch.setattr(lanes, "_power_lanes", recording)
    # the fields past the bound take class_group whole, at their turn
    scalar_groups = []

    def scalar(d, **kwargs):
        scalar_groups.append(d.value)
        return class_group(d, **kwargs)

    monkeypatch.setattr(lanes, "class_group", scalar)
    past, within = _first_fundamental(LANE_LIMIT + 1, 1), _first_fundamental(LANE_LIMIT, -1)
    assert -past.value == 4_500_000_003 and -within.value == 4_499_999_999
    # one call, small fields around both sides of the bound, in field order
    discs = (validate(-3299), past, within, validate(-23))
    fields = [(d, quadform.class_number(d.value)) for d in discs]
    assert list(class_groups(fields)) == [class_group(d, known_h=h) for d, h in fields]
    assert np.unique(np.concatenate(asked)).tolist() == [23, 3299, -within.value]
    # h(-4500000003) = 9,772 claimed as 4,886: 2^1 does not fit its 4-rank 1;
    # the scalar route raises it at that field, after the group before it
    assert fields[1][1] == 9772
    fields[1] = (past, 4886)
    got = []
    groups = class_groups(fields)
    assert _outcome(lambda: got.extend(groups)) == _outcome(lambda: class_group(past, known_h=4886))
    assert got == [class_group(discs[0], known_h=fields[0][1])]
    assert scalar_groups == [past.value, past.value]


def test_claimed_h_past_2_53_raises_at_its_field():
    # h(-1000003) = 105 claimed as 105 * 3^33 (past 2^53) and 105 * 3^40
    # (past 2^63): neither fits the kernel, so the field takes class_group
    # whole, which raises at it, after the group of -23 (h = 3)
    assert 2**53 < 105 * 3**33 < 2**63 < 105 * 3**40
    d, small = validate(-1000003), validate(-23)
    for claim in (105 * 3**33, 105 * 3**40):
        want = _outcome(lambda: class_group(d, known_h=claim))
        assert want[0] is ClassNumberAmbiguous
        got = []
        groups = class_groups([(small, 3), (d, claim)])
        assert _outcome(lambda: got.extend(groups)) == want
        assert got == [class_group(small, known_h=3)]


def _ambiguous(f) -> bool:
    a, b, c = f
    return b == 0 or b == a or a == c


def _pool_heads(D: int, k: int) -> list:
    """The first k forms of _prime_form_pool(D) that are not ambiguous, at primes below 2^10."""
    heads = []
    for q in small_primes():
        if q > 2**10 or 3 * q * q > -D or len(heads) == k:
            break
        if (f := prime_form(D, q)) is not None and not _ambiguous(f := reduce_form(f)):
            heads.append(f)
    pool = filter(lambda f: not _ambiguous(f), quadform._prime_form_pool(D))
    assert heads == list(itertools.islice(pool, len(heads))), D
    return heads


def _array_heads(discs: list, k: int) -> list:
    D = np.array(discs, dtype=np.int64)
    seek, ones = np.zeros(D.size, dtype=bool), np.ones((1, D.size), dtype=np.int64)
    forms, count, _ = lanes._pool_lanes(D, k, seek, ones, 0 * ones)
    return [list(map(QuadForm._make, forms[:, j, :n].T.tolist())) for j, n in enumerate(count)]


def test_array_candidates_are_the_pools_first_forms():
    mask = survey.fundamental_mask(LANE_LIMIT - 2000, LANE_LIMIT + 1)
    top = [-m for m in range(LANE_LIMIT - 2000, LANE_LIMIT + 1) if mask[m - LANE_LIMIT + 2000]]
    past = _first_fundamental(LANE_LIMIT + 1, 1).value
    sizes = collections.Counter()
    for lo, hi in ((3, 20_000), (10**6, 10**6 + survey.BLOCK_SIZE)):
        discs = [-m for m, _ in class_numbers_range(lo, hi)]
        heads = _array_heads(discs, 4)
        assert heads == [_pool_heads(D, 4) for D in discs]
        sizes.update(map(len, heads))
    assert len(top) > 500
    assert _array_heads(top + [past], 4) == [_pool_heads(D, 4) for D in top] + [[]]
    # at small |D| the pool ends before four forms
    assert sorted(sizes) == [0, 1, 2, 3, 4] and sizes[3] > 10


@pytest.fixture
def whole(monkeypatch):
    """The (D, reason) of every field that class_groups hands to class_group whole."""
    seen, calls = [], []
    lane_sylow = lanes._lane_sylow

    def recording(fields):
        calls.append(len(fields))
        out = lane_sylow(fields)
        seen.extend((d.value, WHOLE[code]) for (d, _), code in zip(fields, out[1]) if code)
        return out

    monkeypatch.setattr(lanes, "_lane_sylow", recording)
    yield seen
    assert calls, "class_groups never reached the patched _lane_sylow"


def test_array_lanes_restart_at_each_exit(whole):
    # a field whose odd lane leaves the arrays restarts whole on class_group
    fields = [(validate(-m), h) for m, h in class_numbers_range(3, 5000)]
    fields += [(validate(-m), h) for m, h in class_numbers_range(792_100, 792_200)]
    got = list(class_groups(fields))
    assert got == [class_group(d, known_h=h) for d, h in fields]
    groups, reasons = {cg.discriminant: cg for cg in got}, dict(whole)
    # rank 2: the first projection x that is not 1 has order below 3^e, and
    # the walk of two generators ends on the arrays
    for D, orders in ((-4027, (3, 3)), (-3299, (3, 9)), (-3896, (3, 3))):
        assert groups[D].sylow[3][0] == orders and D not in reasons
    # h(-792115) = 132: its four candidates all project by 44 to the identity
    D = -792115
    heads = _array_heads([D], 4)[0]
    assert len(heads) == 4 and all(power(f, 44) == principal_form(D) for f in heads)
    assert groups[D].sylow[3][0] == (3,) and reasons[D] == "ran out"
    # every other odd part ends on the arrays; the 2-parts of 4-rank 2 and
    # h = 1 take class_group whole too
    odd = sum(q != 2 for cg in got for q in cg.sylow)
    counts = collections.Counter(reasons.values())
    assert counts == {"2-part": 3, "h = 1": 9, "ran out": 1} and odd == 1340
    # h(-23) = 3 claimed as 15: the one candidate (2, 1, 3) projects by 3 to
    # the identity, so the 5-lane runs out where the pool does
    whole.clear()
    wrong = [(validate(-23), 15)]
    assert _array_heads([-23], 4) == [[(2, 1, 3)]]
    outcome = _outcome(lambda: list(class_groups(wrong)))
    assert whole == [(-23, "ran out")]
    assert outcome == _outcome(lambda: class_group(validate(-23), known_h=15))
    assert outcome[0] is ClassNumberAmbiguous and "pool exhausted" in outcome[1]


def _claims() -> list:
    """Wrong class numbers 3h, 5h, 7h, 9h, h/3 and h/5 over two windows."""
    claims = []
    for m, h in class_numbers_range(3, 6000) + class_numbers_range(10**6, 10**6 + 1000):
        claims += [(m, k * h) for k in (3, 5, 7, 9)] + [(m, h // k) for k in (3, 5) if h % k == 0]
    return claims


def test_wrong_claims_give_the_same_outcome_on_both_routes():
    # a seeded sample of the claims; the whole sweep is slow
    claims = _claims()
    assert len(claims) == 9674
    kinds = collections.Counter()
    for m, claim in random.Random(1).sample(claims, 500):
        d = validate(-m)
        try:
            want = ("group", class_group(d, known_h=claim))
        except Exception as exc:
            want = (type(exc), str(exc))
        try:
            got = ("group", *class_groups([(d, claim)]))
        except Exception as exc:
            got = (type(exc), str(exc))
        assert got == want, (m, claim)
        kinds[want[0]] += 1
    # a wrong claim mostly raises, but an odd part that is too small can pass
    assert kinds == {ClassNumberAmbiguous: 489, "group": 11}


def _both_routes(fields: list) -> tuple[list, list]:
    """The groups of class_groups and of a loop of class_group, each ended by what it raises."""
    results = []
    for run in (class_groups, lambda fields: (class_group(d, known_h=h) for d, h in fields)):
        got = []
        try:
            got.extend(run(fields))
        except Exception as exc:
            got.append((type(exc), str(exc)))
        results.append(got)
    return tuple(results)


def test_wrong_claims_at_two_generator_fields_give_the_same_outcome(whole, monkeypatch):
    # Cl(-4027) = (3, 3), Cl(-3299) = (3, 9) and Cl(-1607) = (27,), whose
    # first projection has order 9: with the exact h each takes a walk of
    # two generators.  A wrong claim must end as class_group ends it, at the
    # same field, after the group of -23 before it
    walked = []
    start = lanes._Walks.start

    def starting(self, rows):
        walked.extend(rows[0].tolist())
        return start(self, rows)

    monkeypatch.setattr(lanes._Walks, "start", starting)
    small = validate(-23)
    first = class_group(small, known_h=3)
    raised = collections.Counter()
    for D, orders in ((-4027, (3, 3)), (-3299, (3, 9)), (-1607, (27,))):
        d, h = validate(D), quadform.class_number(D)
        assert class_group(d, known_h=h).sylow[3][0] == orders
        for claim in (h, 3 * h, 9 * h, h // 3, h // 9, 5 * h):
            walked.clear()
            arrays, scalar = _both_routes([(small, 3), (d, claim)])
            assert arrays == scalar and arrays[0] == first, (D, claim)
            raised[not isinstance(arrays[1], ClassGroupStructure)] += 1
            if claim == h:
                assert walked == [1] and arrays[1].sylow[3][0] == orders
    # seven groups: the exact h, h/3 and -4027 at h = 1; a wrong odd part
    # that is too small can pass
    assert raised == {False: 7, True: 11}
    reasons = collections.Counter(reason for _, reason in whole)
    assert reasons == {"third generator": 6, "ran out": 3, "failed test": 2, "h = 1": 1}
    # a Smith basis that is off by a factor 3: b^(dj/q) is 1, and the walk
    # leaves its field to class_group, which raises on the same basis
    smith = quadform.smith_normal_form

    def scaled(rows):
        diag, w = smith(rows)
        return diag, [[3 * x for x in row] for row in w]

    monkeypatch.setattr(quadform, "smith_normal_form", scaled)
    monkeypatch.setattr(lanes, "smith_normal_form", scaled)
    whole.clear()
    arrays, scalar = _both_routes([(small, 3), (validate(-4027), 9)])
    broken = (InvariantViolation, "(1,1,1007) does not have exact order 3")
    assert arrays == scalar == [first, broken]
    assert whole == [(-4027, "failed test")]


def test_large_wrong_claims_ask_only_for_the_true_order_of_x1(whole, monkeypatch):
    # Cl(-3299) = (3, 9) claimed as 3^18 and h(-1000003) = 105 claimed as
    # 105 * 3^28: each starts a walk whose x1 has order 3 or 9, far below the
    # claimed 3^17 and 3^28, so its rungs and table stay a few lanes, and the
    # field raises class_group's exception after the group of -23
    walked, bounds, spans = [], [], lanes._spans

    def starting(self, rows):
        walked.extend(rows[0].tolist())
        return start(self, rows)

    def bounded(counts):
        assert counts.sum() < 1000  # lanes of one request kind, in one round
        bounds.append(counts.size)
        return spans(counts)

    start = lanes._Walks.start
    monkeypatch.setattr(lanes._Walks, "start", starting)
    monkeypatch.setattr(lanes, "_spans", bounded)
    small = validate(-23)
    for D, claim in ((-3299, 3**18), (-1000003, 105 * 3**28)):
        assert claim < 2**53
        walked.clear()
        arrays, scalar = _both_routes([(small, 3), (validate(D), claim)])
        assert arrays == scalar and arrays[0] == class_group(small, known_h=3)
        assert arrays[1][0] is ClassNumberAmbiguous and walked == [1], D
    assert whole == [(-3299, "third generator"), (-1000003, "ran out")]
    assert bounds


# (D, h) of fields whose claim allows the first generator x1 of a walk an
# order q^(e-1) of 125, 243 or 729
WIDE_WALKS = (
    (-1019119, 729),
    (-1025119, 729),
    (-1042991, 1458),
    (-1047511, 729),
    (-1069207, 625),
    (-10004759, 3750),
    (-100002523, 1458),
    (-100003399, 7290),
    (-100008011, 4374),
    (-1000002687, 18954),
    (-1000003147, 5000),
    (-1000003811, 11250),
    (-1000006932, 5832),
    (-1000007887, 10935),
)


def test_walks_start_with_the_exact_order_of_x1(whole, monkeypatch):
    # one call over the fields of WIDE_WALKS: each starts a walk at such a
    # q-part (-1000003811 walks at 3 too), whose x1 has the order k1 it
    # starts with, and every group is class_group's
    walked = []
    start = lanes._Walks.start

    def starting(self, rows):
        walked.extend(rows.T.tolist())
        return start(self, rows)

    monkeypatch.setattr(lanes._Walks, "start", starting)
    fields = [(validate(D), h) for D, h in WIDE_WALKS]
    assert list(class_groups(fields)) == [class_group(d, known_h=h) for d, h in fields]
    assert sorted(row[0] for row in walked) == sorted([*range(len(fields)), 11])
    assert {i for i, q, e, *_ in walked if q ** (e - 1) > 81} == set(range(len(fields)))
    for i, q, e, _, k1, *x1 in walked:
        one, x1 = principal_form(fields[i][0].value), QuadForm(*x1)
        assert k1 < q**e and power(x1, k1) == one and power(x1, k1 // q) != one
    reasons = [(-1042991, "third generator"), (-1069207, "third generator")]
    assert whole == reasons + [(-1000002687, "third generator")]


class _Asked(Exception):
    """The first power a route asks for, raised in place of its answer."""


def _scalar_genus(d) -> tuple:
    """_redei's 4-rank of d and, at 4-rank 0 or 1, the form _two_sylow_orders projects first.

    The form is None where its prime is not below 2^10.  At one prime, D is
    its own prime discriminant, so every split q has the genus vector 0 and
    there is no form; the loop would walk every prime below 2^16.
    """
    r4 = quadform._redei(d)[2]
    if r4 > 1 or d.num_prime_divisors == 1:
        return r4, None
    e = d.num_prime_divisors - 1 + r4  # a 2^e || h that passes the rank checks

    def first(f, n):
        raise _Asked(f, n)

    with pytest.MonkeyPatch.context() as patch, pytest.raises(_Asked) as asked:
        patch.setattr(quadform, "power", first)
        quadform._two_sylow_orders(d, 2**e, e, iter(()))
    f, n = asked.value.args
    assert n == 1
    return r4, tuple(f) if f.a < 2**10 else None


def _array_genus(ds: list) -> list:
    """The 4-rank and the 2-candidate of each d from _redei_lanes and _pool_lanes."""
    D = np.array([d.value for d in ds], dtype=np.int64)
    discs, rows, r4 = lanes._redei_lanes(D, lanes._prime_rows(ds))
    _, _, two = lanes._pool_lanes(D, 4, r4 <= 1, discs, np.where(r4 == 1, rows, 0))
    return [(k, tuple(f) if f[0] else None) for k, f in zip(r4.tolist(), two.T.tolist())]


def test_genus_step_matches_the_scalar_route():
    # the Jacobi symbol takes no products, so it is exact past 2^31.5, where
    # Euler's power would overflow int64
    n = np.array([4_499_999_989, 3_037_000_507, 1_000_003, 7, 1], dtype=np.int64)
    a = np.array([2_000_000_011, 1_234_567_891, 999_999, 3, 5], dtype=np.int64)
    assert all(is_prime(int(p)) for p in n[:4])
    want = [quadform.kronecker(int(x), int(p)) for x, p in zip(a[:4], n[:4])] + [1]
    assert lanes._jacobi_lanes(a, n).tolist() == want
    lo = LANE_LIMIT - 2000
    mask = survey.fundamental_mask(lo, LANE_LIMIT + 1)
    top = [validate(-m) for m in range(lo, LANE_LIMIT + 1) if mask[m - lo]]
    ranks = collections.Counter()
    width = survey.BLOCK_SIZE
    for lo, hi in ((3, 20_000), (10**6, 10**6 + width), (10**7, 10**7 + width)):
        ds = [validate(-m) for m, _ in class_numbers_range(lo, hi)]
        got = _array_genus(ds)
        assert got == [_scalar_genus(d) for d in ds]
        ranks.update(r4 for r4, _ in got)
    # the prime factors of the top |D| pass 2^31, past 3e9 at one prime; the
    # four fields of 4-rank 3 of test_sylow
    assert max(p for d in top for p, _ in d.prime_factors) > 3 * 10**9
    top += [validate(D) for D in (-503659, -550712, -568888, -863455)]
    got = _array_genus(top)
    assert got == [_scalar_genus(d) for d in top]
    ranks.update(r4 for r4, _ in got)
    assert ranks == {0: 7166, 1: 5334, 2: 274, 3: 4}


def test_two_lanes_restart_at_each_exit(whole, monkeypatch):
    # with the exact h, a 2-part at 4-rank 0 or 1 ends on the array lanes,
    # and the field of every other one takes class_group whole
    fields = [(validate(-m), h) for m, h in class_numbers_range(3, 6000)]
    want = [class_group(d, known_h=h) for d, h in fields]
    assert list(class_groups(fields)) == want
    generators = [d.value for d, h in fields if h % 2 == 0 and quadform._redei(d)[2] >= 2]
    assert [D for D, reason in whole if reason == "2-part"] == generators == [-2379, -4895, -5795]
    # order below 2^n: h(-56) = 4, Cl = Z/4 at 2-rank 1 and 4-rank 1; claimed
    # as 8, the lane checks for order 8
    # y^2 != 1: h(-164) = 8, Cl = Z/8; claimed as 4, the lane checks for order 4
    one = {D: principal_form(D) for D in (-56, -164)}
    x = {D: power(f, 1) for D, f in ((-56, prime_form(-56, 3)), (-164, prime_form(-164, 3)))}
    assert _array_genus([validate(-56), validate(-164)]) == [(1, (3, 2, 5)), (1, (3, 2, 14))]
    assert power(x[-56], 4) == one[-56] and power(x[-164], 4) != one[-164]
    for D, claim in ((-56, 8), (-164, 4)):
        want = _outcome(lambda: class_group(validate(D), known_h=claim))
        whole.clear()
        assert _outcome(lambda: list(class_groups([(validate(D), claim)]))) == want
        assert whole == [(D, "failed test")] and want[0] is ClassNumberAmbiguous
    # x = 1 cannot happen with a genus-chosen candidate, whose 2-part is not
    # a square; a principal candidate takes that exit, with h(-56) = 4
    pool = lanes._pool_lanes

    def principal(*args):
        forms, count, two = pool(*args)
        two[:, two[0] != 0] = np.array(one[-56])[:, None]
        return forms, count, two

    monkeypatch.setattr(lanes, "_pool_lanes", principal)
    want = [class_group(validate(-56), known_h=4)]
    whole.clear()
    assert list(class_groups([(validate(-56), 4)])) == want
    assert whole == [(-56, "failed test")]


def test_wrong_two_parts_give_the_same_outcome_on_both_routes():
    claims = []
    for m, h in class_numbers_range(3, 6000) + class_numbers_range(10**6, 10**6 + 1000):
        claims += [(m, 2 * h), (m, 4 * h)] + [(m, h // 2)] * (h % 4 == 0)
    assert len(claims) == 5468
    kinds = collections.Counter()
    for m, claim in claims:
        d = validate(-m)
        try:
            want = ("group", class_group(d, known_h=claim))
        except Exception as exc:
            want = (type(exc), str(exc))
        try:
            got = ("group", *class_groups([(d, claim)]))
        except Exception as exc:
            got = (type(exc), str(exc))
        assert got == want, (m, claim)
        kinds[want[0]] += 1
    # every claim raises: a wrong 2-part never passes where the 4-rank is at most 2
    assert kinds == {ClassNumberAmbiguous: 4598, InvariantViolation: 870}
