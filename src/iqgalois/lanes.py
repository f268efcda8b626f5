"""The int64 lane kernels and block routes of a survey block.

Everything here runs many fields side by side on int64 numpy arrays, and
each route has a scalar oracle in the per-field modules, which never
import this one: class_groups is quadform.class_group for each field,
_generator_lanes is idealgen.torsion_power_generator for each job,
_injective_lanes is localtest's closed forms and injectivity_test, and
lane_statuses is classify.status_at_odd_prime for each test.  A scalar
function named bare below is the one of those modules.

class_groups, the route of a survey block, runs the Sylow parts of many
fields side by side as int64 array lanes.  An odd one asks at once for the
rungs f^(h/q^e * q^s), s < e, of its candidate f (the first prime forms
that are not ambiguous), whose first 1 gives the projection x its exact
order.  Order q^e takes the cyclic shortcut once x^(q^e) = 1, and a lower
one walks on to a second generator, with the table of <x>, their relations
and their Smith basis (_Walks).  A 2-part of 4-rank 0 or 1 projects the
one prime form that its genus characters choose and checks the one chain
length that the ranks leave.  Their forms, the Redei rows and the 4-ranks
are built in numpy once per block (_redei_lanes, _pool_lanes), with a
Jacobi symbol that takes no products.  Each round, the requests of every
lane take one lock-step numpy kernel on int64 lanes (_power_lanes: Shanks
composition from lock-step extended gcds and a masked reduction loop),
which keeps both checks of quadform.compose_unreduced; the groups are
yielded in field order once every round is done.  A field whose parts all
ended on the arrays as cyclic factors takes its invariant factors straight
from h and its 2-rank, after one numpy check over the block of what
quadform._check_structure checks; one with an odd part of rank 2 takes
quadform._assemble, the assembly of class_group.  Any other outcome of a
lane, and a field the lanes cannot take (past LANE_LIMIT = 4.5e9, where
int64 stops being exact, or with h past 2^53 or h = 1), hands the field to
class_group whole (WHOLE).  _square_and_multiply_lanes is
square_and_multiply on every lane at once, from each lane's top bit down,
under the product its caller passes: the one loop of _power_lanes and of
the generator and local-unit kernels.

_generator_lanes runs the products of idealgen._state_product for the jobs
of a whole survey block side by side, one lock-step step per bit of p on
int64 lanes (_power_states on _square_and_multiply_lanes; _state_lanes,
_basis_lanes, with _compose_lanes), with every check of _state_product,
and returns the images as int64 rows; the states are not reduced, so a
product runs on a lane only while its norm a1*a2 keeps int64 exact
(_fits), and a job past that is left to torsion_power_generator, the
oracle.  _injective_lanes runs localtest's closed forms and
injectivity_test on int64 lanes, every (field, p) of a survey block at
once (lane_statuses), its unit power by _square_and_multiply_lanes.
"""

import itertools
import math
from typing import Iterable, Iterator

import numpy as np

from .arith import InvariantViolation, factorize, small_primes, smith_normal_form
from .classify import INJECTIVE, NONINJECTIVE, status_at_odd_prime
from .discriminant import FundamentalDiscriminant
from .idealgen import _ring_mul
from .localtest import NotLocalUnit
from .quadform import ClassGroupStructure, QuadForm, _assemble, class_group

# Largest |D| whose forms the lane kernel takes.  Reduced inputs have a1, a2 <=
# sqrt(|D|/3), so a3 <= |D|/3 and b3 < 2*a3; then b3^2 - D < 4|D|^2/9 + |D| < 2^63,
# and every other product of the kernel is smaller.
LANE_LIMIT = 4_500_000_000
# Candidates of an odd array lane in class_groups, before its field takes
# class_group whole.  Per 1e4-block at 1e6 / 1e7, 0 / 3 steps ran out of 4
# before their first generator; at 2, 83 / 102 did, and at 8 none, but the
# candidates take twice as long to build (2.8 -> 5.7 ms at 1e6).
_CANDIDATES = 4
# Why class_groups hands a field to class_group whole: code k > 0 is
# WHOLE[k], and a field whose parts leave the lanes for several takes the
# largest.  The first four keep the field off the lanes; a 2-part is off
# them at 4-rank >= 2, at ranks that fail the checks of _two_sylow_orders,
# or with no candidate below 2^10; the last three are exits of a lane.
WHOLE = (
    "",
    "past LANE_LIMIT",
    "h past 2^53",
    "h = 1",
    "admission",  # _sylow_parts raises: genus parity, or an h below 1
    "2-part",
    "ran out",  # an odd part's candidates run out before its generator
    "third generator",  # x2 has order below q^e / k1 modulo <x1>
    "failed test",  # an order past its claim, or a basis form that fails _q_torsion
)
_PAST_LIMIT, _PAST_53, _H_ONE, _ADMISSION, _TWO_PART, _RAN_OUT, _THIRD, _FAILED = range(1, 9)


def _xgcd_lanes(x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g, s) with g = gcd(x, m) and s*x = g (mod m), lane by lane, for 1 <= m < 2^53.

    Euclid's steps on all lanes at once, on the rows (r, s) of two
    remainders r = s*x (mod m).  The two rows are reduced in turn, so no
    lane swaps them, and a lane whose remainder reached 0 takes the
    quotient 0 from then on.  The steps run in float64, which divides
    faster than int64 and is exact here: every value is at most m, and the
    floor of a float64 quotient of integers below 2^53 is the integer
    quotient.  Its callers stay far below: m is a leading coefficient of
    _compose_lanes, below sqrt(LANE_LIMIT/3) < 2^16 for reduced forms and
    at most 2^29 for the states of _generator_lanes, or a modulus
    p^2 < 2^31 there.
    """
    one, two = np.zeros((2, m.size)), np.zeros((2, m.size))
    one[0], two[0], two[1] = m, x % m, 1
    q = np.empty(m.size)
    live = two[0] != 0
    while live.any():
        for this, other in ((one, two), (two, one)):
            q.fill(0)
            np.floor(np.divide(this[0], other[0], out=q, where=live), out=q)
            this -= q * other
            np.logical_and(live, this[0], out=live)
            if not live.any():
                break
    last = one[0] == 0  # lanes whose last nonzero remainder is in two
    return tuple(np.where(last, b, a).astype(np.int64) for a, b in zip(one, two))


def _compose_lanes(
    f: tuple[np.ndarray, ...], g: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """compose_unreduced lane by lane on int64 arrays, with both of its checks: (d1, (a3, b3, c3)).

    Shanks's form of Dirichlet composition (H. Cohen, GTM 138, Algorithms
    5.4.7 and, for g is f, 5.4.8): with s = (b1 + b2)/2 and n = (b2 - b1)/2,
    d = gcd(a1, a2) = y1*a2 (mod a1) and d1 = gcd(s, d) = x2*s - y2*d;
    r = (y1*y2*n - x2*c2) mod a1/d1, a3 = a1*a2/d1^2 and b3 = b2 + 2*(a2/d1)*r,
    taken mod 2*a3.  d1 is the content d of compose_unreduced.  A square
    has d = a1 and n = 0, so it skips the first gcd.  Lanes whose forms
    differ in discriminant, or whose c3 = (b3^2 - D)/(4*a3) leaves a
    remainder, raise InvariantViolation.
    Every product stays in int64, and the gcds exact in float64, for the
    reduced forms of _power_lanes (see LANE_LIMIT) and for the unreduced
    states of _generator_lanes: there a1*a2 <= 2^29, so b3^2 < 2^60,
    and the states have b^2 <= 3|D| and a*c <= |D| (_fits).
    """
    a1, b1, c1 = f
    a2, b2, c2 = g
    D = b1 * b1 - 4 * a1 * c1
    if g is not f and (bad := D != b2 * b2 - 4 * a2 * c2).any():
        i = int(np.flatnonzero(bad)[0])
        raise InvariantViolation(
            f"lane {i}: ({a1[i]},{b1[i]},{c1[i]}) and ({a2[i]},{b2[i]},{c2[i]}) "
            "have different discriminants"
        )
    s = b1 + b2
    s //= 2
    if g is f:
        d1, r = _xgcd_lanes(s, a1)
        v1 = a1 // d1
        r *= c2
        np.negative(r, out=r)
    else:
        d, y1 = _xgcd_lanes(a2, a1)
        d1, x2 = _xgcd_lanes(s, d)
        r = x2 * s  # y2 = (x2*s - d1)/d, then y1*y2 mod v1 times (b2 - s), less x2*c2
        r -= d1
        r //= d
        v1 = a1 // d1
        r *= y1
        r %= v1
        np.subtract(b2, s, out=s)
        r *= s
        x2 *= c2
        r -= x2
        del d, y1, x2
    del s
    r %= v1
    v2 = a2 // d1
    a3 = v1 * v2
    del v1
    r *= 2 * v2
    r += b2
    b3 = np.remainder(r, 2 * a3, out=r)
    c3 = b3 * b3
    c3 -= D
    c3, rem = np.divmod(c3, 4 * a3)
    if (bad := rem != 0).any():
        i = int(np.flatnonzero(bad)[0])
        raise InvariantViolation(f"lane {i}: 4*{a3[i]} does not divide {b3[i]}^2 - ({D[i]})")
    return d1, (a3, b3, c3)


def _reduce_lanes(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """_reduce lane by lane on positive definite int64 forms; a lane leaves the loop reduced."""
    r = (a - b) // (2 * a)
    b, c = b + 2 * r * a, (a * r + b) * r + c
    a = a.copy()
    live = np.flatnonzero(a > c)
    while live.size:
        x, y, z = a[live], b[live], c[live]
        r = (z + y) // (2 * z)
        a[live], b[live], c[live] = z, 2 * r * z - y, (z * r - y) * r + x
        live = live[a[live] > c[live]]
    b[(a == c) & (b < 0)] *= -1
    return a, b, c


def _square_and_multiply_lanes(s: np.ndarray, n: np.ndarray, mul) -> np.ndarray:
    """arith.square_and_multiply on every column of the int64 rows s at once, for 1 <= n < 2^53.

    Column j is the state of lane j, raised to n[j] from the top bit of
    n[j] (np.frexp, exact below 2^53) down: bit_length(n) - 1 squarings and
    popcount(n) - 1 products by the lane's first state, its column of s.
    mul(t, u) returns the rows of the products of the columns of t by those
    of u, u is t for a square, and may write them into t.  Each step
    squares every live lane and multiplies those whose bit is set.  A lane
    leaves after its last bit, its final state written into its column of
    s, which is returned.  Any other n raises ValueError before mul runs.
    """
    if (bad := (n < 1) | (n >= 2**53)).any():
        raise ValueError(f"exponent {n[bad][0]} is not in [1, 2^53)")
    acc, live = s.copy(), np.arange(n.size)
    left = np.frexp(n)[1] - 1  # bits of n below those acc holds
    while live.size:
        if (done := left == 0).any():
            s[:, live[done]] = acc[:, done]
            go = ~done
            live, n, left, acc = live[go], n[go], left[go], acc[:, go]
            continue
        left -= 1
        acc = mul(acc, acc)
        if (bit := n >> left & 1 == 1).any():
            acc[:, bit] = mul(acc[:, bit], s[:, live[bit]])
    return s


def _power_lanes(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, ...]:
    """power(f, n) lane by lane, for 1 <= n < 2^53 and |D| <= LANE_LIMIT: the lock-step kernel.

    _square_and_multiply_lanes on the reduced f, each product a
    _compose_lanes and a _reduce_lanes, as power makes them.  Any other n
    raises ValueError before any composition.
    """

    def product(t, u):
        f = tuple(t)
        return np.stack(_reduce_lanes(*_compose_lanes(f, f if u is t else tuple(u))[1]))

    return tuple(_square_and_multiply_lanes(np.stack(_reduce_lanes(a, b, c)), n, product))


def _jacobi_lanes(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The Jacobi symbol (a/n) lane by lane, for a >= 0 and odd n >= 1 in int64.

    The binary algorithm on all lanes at once: strip the twos of a, each
    flipping the sign at n = 3, 5 mod 8, swap a and n by reciprocity,
    flipping it when both are 3 mod 4, and take n mod a, until a is 0; the
    symbol is the sign where n ended at 1, else 0.  It takes remainders,
    shifts and sign flips only, no product of two lane values, so it is
    exact for any int64 lane, where Euler's power would overflow once n
    passes 2^31.5.
    """
    a, n = a % n, n.copy()
    t = np.ones_like(n)
    live = np.flatnonzero(a)
    while live.size:
        x, m = a[live], n[live]
        z = np.frexp(x & -x)[1] - 1  # the twos of x, exact below 2^53
        x >>= z
        flip = (z & 1 == 1) & ((m & 7 == 3) | (m & 7 == 5))
        flip ^= (x & 3 == 3) & (m & 3 == 3)
        t[live[flip]] *= -1
        a[live], n[live] = m % x, x
        live = live[a[live] != 0]
    return np.where(n == 1, t, 0)


def _spans(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, offset) of every position of runs of the given lengths, laid end to end."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _prime_rows(ds: list[FundamentalDiscriminant]) -> np.ndarray:
    """The primes of each d in its column, ascending, the columns padded by 1."""
    t = np.array([d.num_prime_divisors for d in ds], dtype=np.int64)
    flat = np.array([p for d in ds for p, _ in d.prime_factors], dtype=np.int64)
    rows = np.ones((t.max(initial=1), t.size), dtype=np.int64)
    col, row = _spans(t)
    rows[row, col] = flat
    return rows


def _span_reduce(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v reduced by the F_2 basis on every lane, 0 exactly where v is in its span.

    Row k of basis holds the basis vector whose leading bit is k, or 0;
    from the top row down, v = min(v, v ^ row) clears bit k wherever the
    row is there, as _span_insert does.
    """
    for row in basis[::-1]:
        v = np.minimum(v, v ^ row)
    return v


def _redei_lanes(D: np.ndarray, primes: np.ndarray) -> tuple[np.ndarray, ...]:
    """_redei on every column: the prime discriminants, a basis of the Redei rows and the 4-rank.

    primes holds the primes of D[j] in column j as _prime_rows gives them;
    a padding 1 has the prime discriminant 1.  The entries (d_j / p_i),
    i != j, come from _jacobi_lanes at odd p_i and from d_j mod 8 at 2
    (d_j = 1 mod 4 there), and each row takes the diagonal bit that makes
    its sum even.  Lock-step elimination on the rows' bit masks keeps the
    basis by leading bit, as _span_reduce reads it.
    """
    T, N = primes.shape
    discs = np.where(primes % 4 == 1, primes, -primes)
    discs[primes == 2] = 1
    discs = np.where(primes == 2, D // discs.prod(axis=0), discs)
    i, j, col = np.nonzero((primes[:, None] > 1) & (primes > 1) & ~np.eye(T, dtype=bool)[..., None])
    p, d = primes[i, col], discs[j, col]
    neg = np.zeros((T, T, N), dtype=bool)
    at_two = p == 2
    neg[i[at_two], j[at_two], col[at_two]] = d[at_two] % 8 == 5
    odd = ~at_two
    neg[i[odd], j[odd], col[odd]] = _jacobi_lanes(d[odd] % p[odd], p[odd]) == -1
    bits = 1 << np.arange(T, dtype=np.int64)
    rows = (neg * bits[:, None]).sum(axis=1) | (neg.sum(axis=1) & 1) * bits[:, None]
    basis = np.zeros((T, N), dtype=np.int64)
    for row in rows:
        v = _span_reduce(basis, row)
        k = np.flatnonzero(v)
        basis[np.frexp(v[k])[1] - 1, k] = v[k]
    return discs, basis, (primes > 1).sum(axis=0) - 1 - (basis != 0).sum(axis=0)


def _pool_lanes(
    D: np.ndarray, k: int, seek: np.ndarray, discs: np.ndarray, span: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Per D of the int64 array, the first non-ambiguous forms of its pool, and a 2-candidate.

    The forms are those of _prime_form_pool(D).  Returns their rows a, b, c,
    of shape (3, len(D), k), and their count per D: k, or fewer where the
    pool ends first or the primes below 2^10 run out, and none past
    LANE_LIMIT.  The forms are prime_form's, reduced by _reduce_lanes.  At
    an odd prime l, b is the root of b^2 = D (mod l) in [0, l] with the
    parity of D; the roots r and l - r differ in parity, so a table of
    squares mod l gives the b that prime_form makes from sqrt_mod_prime's
    root (l at a ramified l of odd D).  At 2, b is 0, 1 or 2 by D mod 8.
    The same primes and tables give, for each D where seek is set, the
    candidate of _two_sylow_orders at r4 <= 1: prime_form(D, q), unreduced,
    at the first split q whose genus vector over the prime discriminants
    discs (_redei_lanes) is outside span, a row basis as _span_reduce reads
    it (0 at r4 = 0, so any nonzero vector).  The symbol (d_j / q) is -1
    where d_j mod q is not a square; at q = 2 the table of D mod 8 gives it
    too, as every d_j of an odd D is 1 mod 4.  The third array holds its
    rows a, b, c, of shape (3, len(D)), and a = 0 where none is found below
    2^10 or past LANE_LIMIT.
    """
    forms = np.zeros((3, D.size, k), dtype=np.int64)
    count = np.zeros(D.size, dtype=np.int64)
    two = np.zeros((3, D.size), dtype=np.int64)
    live = np.flatnonzero(D >= -LANE_LIMIT)
    hunt = live[seek[live]]
    for l in small_primes():
        live = live[(count[live] < k) & (3 * l * l <= -D[live])]  # l <= isqrt(|D|/3)
        hunt = hunt[two[0, hunt] == 0]
        if l > 2**10 or not (live.size or hunt.size):
            break
        if l == 2:
            roots, m = np.array([0, 1, -1, -1, 2, -1, -1, -1]), 8
        else:
            roots, m = np.full(l, -1), l
            roots[np.arange(l) ** 2 % l] = np.arange(l)
        if live.size:
            d = D[live]
            b = roots[d % m]
            split = b >= 0
            b = np.where((b - d) % 2 == 0, b, l - b)
            c, r = np.divmod(b * b - d, 4 * l)
            split &= r == 0
            a, b, c = _reduce_lanes(np.full(split.sum(), l), b[split], c[split])
            keep = (b != 0) & (b != a) & (a != c)
            i = live[split][keep]
            forms[:, i, count[i]] = a[keep], b[keep], c[keep]
            count[i] += 1
        if hunt.size:
            d = D[hunt]
            b = roots[d % m]
            vector = ((roots[discs[:, hunt] % m] < 0) << np.arange(len(discs))[:, None]).sum(axis=0)
            found = (b >= 0) & (d % l != 0) & (_span_reduce(span[:, hunt], vector) != 0)
            d, b = d[found], b[found]
            b = np.where((b - d) % 2 == 0, b, l - b)
            two[:, hunt[found]] = np.full_like(b, l), b, (b * b - d) // (4 * l)
    return forms, count, two


def _lane_candidates(
    fields: list[tuple[FundamentalDiscriminant, int]], D: np.ndarray, hs: np.ndarray
) -> tuple[np.ndarray, ...]:
    """_pool_lanes of the fields, seeking a 2-candidate where the 2-part fits 4-rank 0 or 1.

    D and hs hold the fields' discriminants and class numbers as int64.
    The 2-candidate is sought where h is even and the 2-rank r, the 4-rank
    r4 of _redei_lanes and 2^e || h pass the checks of _two_sylow_orders at
    r4 <= 1: e >= r + r4, and e = r at r4 = 0.  The 2-ranks r follow _pool_lanes's three arrays.
    """
    e = np.frexp(hs & -hs)[1] - 1  # 2^e || h, and -1 at h = 0
    discs, rows, r4 = _redei_lanes(D, _prime_rows([d for d, _ in fields]))
    r = (discs != 1).sum(axis=0) - 1
    seek = (e >= 1) & (r4 <= 1) & (e >= r + r4) & ((r4 == 1) | (e == r))
    return *_pool_lanes(D, _CANDIDATES, seek, discs, np.where(r4 == 1, rows, 0)), r


def class_groups(
    fields: Iterable[tuple[FundamentalDiscriminant, int]],
) -> Iterator[ClassGroupStructure]:
    """class_group(d, known_h=h) for each (d, h) in fields, in order, their powers in lock-step.

    _lane_sylow runs the Sylow parts of all fields on int64 array lanes.
    Then the groups are yielded in field order, each field's entries
    released as it goes.  A field whose parts all ended on the lanes, each
    as one cyclic factor, takes its invariant factors from (h, r):
    (2,)*(r-1) + (h >> (r-1),) at an even h, (h,) at an odd one, once one
    numpy pass over the block (_array_entries) has checked
    _check_structure's two conditions on them: the orders of its entries
    multiply to h, and the factors divide each other.  A field whose parts
    all ended on the lanes otherwise (an odd part of rank 2, or a failed
    check) takes _assemble, the assembly of class_group.  Every other field
    takes class_group(d, known_h=h) whole at its turn, WHOLE naming why, so
    every exception is raised at its own field, after the groups before it,
    with class_group's type and message.  An InvariantViolation of the
    kernel, a broken product, is raised at once.  A caller with thousands
    of fields pauses the cyclic collector, as _scan_block does.
    """
    fields = list(fields)
    entries, whole, bulk, ranks = _lane_sylow(fields)
    for i, (d, h) in enumerate(fields):
        sylow, entries[i] = entries[i], None
        if whole[i]:
            yield class_group(d, known_h=h)
        elif bulk[i]:
            twos = ranks[i] - 1
            factors = (h,) if h % 2 else (2,) * twos + (h >> twos,)
            yield ClassGroupStructure(h, factors, sylow, d.value)
        else:
            yield _assemble(d.value, h, sylow)


def _rungs(forms: np.ndarray, n: np.ndarray, count: np.ndarray, q: np.ndarray) -> tuple:
    """Rows a, b, c, exponent of f^(n * q^s), 0 <= s < count, per column f of forms; column, s."""
    owner, s = _spans(count)
    return np.vstack((forms[:, owner], n[owner] * q[owner] ** s)), owner, s


def _lane_sylow(fields: list) -> tuple[list, list, list, list]:
    """The Sylow entries of class_groups from the array lanes: entries, whole, bulk, ranks.

    Per field: entries is its dict of Sylow entries by q, whole the code of
    WHOLE that sends it to class_group (0 for none), bulk the verdict of
    _array_entries and ranks its 2-rank r.  A field past LANE_LIMIT, with h
    past 2^53, so that every exponent of its lanes stays below the kernel's
    bound and within int64, or with h = 1 starts no lane, nor does one where
    _sylow_parts would raise (code admission): genus parity fails for the
    2-rank r of _lane_candidates, or h is below 1.  The others factor each
    distinct h once, and the (field, q, e) of every part are arrays.  An odd
    q starts as an array lane: one column of int64 rows that runs
    _sylow_structure up to its cyclic shortcut on the first _CANDIDATES
    forms of _pool_lanes, built once for all fields.  Phase 0 asks for the
    rungs f^(h/q^e * q^s), s < e, of candidate f (_rungs), from x at s = 0
    to y = x^(q^(e-1)); every rung above a 1 (a = 1, the forms being
    reduced) is 1, so x has order q^j for the j rungs that are not.  j = 0
    takes the next candidate, 0 < j < e hands x to _Walks with k1 = q^j, and
    at j = e phase 1 asks for y^q: y^q = 1 ends the lane with the shortcut's
    entry ((q^e,), (y,)).  The 2-part of a field whose ranks pass the checks
    of _two_sylow_orders at 4-rank r4 <= 1 (_lane_candidates) runs the same
    phases with q = 2 on its one candidate: at r4 <= 1 that entry needs x of
    order exactly 2^n, n = e - r + 1 for 2^e || h and the 2-rank r, so the
    lane takes n in place of e, its one rung is y = f^(h >> r), and it ends
    with ((2,)*(r-1) + (2^n,), None).  A 2-part without such a candidate is
    code 2-part, odd candidates that run out (or none) code ran out, and
    every other exit code failed test.  Each round drops the lanes of the
    fields that took a code, and one _power_lanes call answers the requests
    of every lane.
    """
    nfields = len(fields)
    D = np.fromiter((d.value for d, _ in fields), np.int64, nfields)
    hs = np.fromiter((min(h, 2**53) if h > 0 else 0 for _, h in fields), np.int64, nfields)
    heads, count, two, r = _lane_candidates(fields, D, hs)
    # _sylow_parts raises (genus parity, or h below 1) where the 2-rank r does not fit h
    refused = (hs < 1) | ((r == 0) == (hs % 2 == 0))
    whole = np.select(
        [D < -LANE_LIMIT, hs == 2**53, hs == 1, refused],
        [_PAST_LIMIT, _PAST_53, _H_ONE, _ADMISSION],
    )
    # the parts of each distinct h, factored once: 773 h for the 3,043 fields at 1e6
    on = np.flatnonzero(whole == 0)
    distinct = np.sort(hs[on])
    distinct = distinct[np.diff(distinct, prepend=0) != 0]
    which = np.searchsorted(distinct, hs[on])
    factors = list(map(factorize, distinct.tolist()))
    keys = [[q for q, _ in parts] for parts in factors]
    entries: list = [None] * nfields  # per field on the lanes: its Sylow entries by q
    for j, k in zip(on.tolist(), which.tolist()):
        entries[j] = dict.fromkeys(keys[k])
    sizes = np.array(list(map(len, factors)), dtype=np.int64)
    flat = np.array([qe for parts in factors for qe in parts], dtype=np.int64).reshape(-1, 2)
    size = np.full(nfields, -1)  # per field on the lanes: its number of parts
    size[on] = sizes[which]
    owner, offset = _spans(sizes[which])
    i = on[owner]
    q, e = flat[(np.cumsum(sizes) - sizes)[which[owner]] + offset].T
    off = np.where(q == 2, two[0, i] == 0, count[i] == 0)  # the parts that start no lane
    np.maximum.at(whole, i[off], np.where(q[off] == 2, _TWO_PART, _RAN_OUT))
    go = whole[i] == 0
    i, q, e = i[go], q[go], e[go]
    at_two, zero = q == 2, np.zeros_like(i)
    # array lanes, one per column: a, b, c (the candidate, then y), field,
    # candidate, phase, e (n at q = 2), q
    arrays = np.stack(
        [*np.where(at_two, two[:, i], heads[:, i, 0]), i, zero, zero]
        + [np.where(at_two, e - r[i] + 1, e), q]
    )
    ended = [np.zeros((6, 0), np.int64)]  # per lane: field, q, e (n at q = 2), y
    walks = _Walks(D, heads, count, hs, whole, entries, ended)
    while arrays.size or walks.live():
        arrays = arrays[:, whole[arrays[3]] == 0]
        i, k, phase, e, q = arrays[3:]
        first, odd = phase == 0, q != 2
        # phase 0: the rungs of the candidate, or the one rung y of a 2-lane;
        # phase 1: y^q, the one rung of y with exponent q
        rungs = np.where(first & odd, e, 1)
        n = np.where(first, np.where(odd, hs[i] // q**e, hs[i] >> r[i]), q)
        asks, owner, _ = _rungs(arrays[:3], n, rungs, q)
        asks = np.concatenate((asks, walks.asks()), axis=1)
        powers = np.stack(_power_lanes(*asks)) if asks.size else asks[:3]
        walks.take(powers[:, owner.size :])
        # per lane, its rungs that are not 1: x has order q^j
        j = np.bincount(owner[powers[0, : owner.size] != 1], minlength=i.size)
        last = np.cumsum(rungs) - 1  # the column of each lane's top rung
        skip = first & (j == 0)  # x = 1 (y = 1 at q = 2): the next candidate; a 2-lane has one
        k[skip] += 1
        ran_out = skip & odd & (k == count[i])
        failed = skip & ~odd | ~first & (j > 0)  # a 2-lane's y = 1, or y^q != 1
        np.maximum.at(whole, i[ran_out], _RAN_OUT)
        np.maximum.at(whole, i[failed], _FAILED)
        skip &= odd & ~ran_out
        arrays[:3, skip] = heads[:, i[skip], k[skip]]
        below = first & (j > 0) & (j < rungs)  # x has order q^j below q^e: x1 of a walk
        x1 = powers[:3, (last - rungs + 1)[below]]
        walks.start(np.vstack((arrays[[3, 7, 6, 4]][:, below], q[below] ** j[below], x1)))
        climb = first & (j == rungs)  # no rung is 1: y is the top one
        arrays[:3, climb] = powers[:3, last[climb]]
        phase[climb] = 1
        done = ~first & (j == 0)  # y != 1 and y^q = 1: x has order q^e
        ended.append(arrays[[3, 7, 6, 0, 1, 2]][:, done])
        arrays = arrays[:, ~(done | below | ran_out | failed)]
    bulk = _array_entries(entries, np.concatenate(ended, axis=1), r, hs, size)
    return entries, whole.tolist(), bulk, r.tolist()


def _principal_lanes(D: np.ndarray) -> np.ndarray:
    """The rows a, b, c of principal_form(D) for each D of the int64 array."""
    b = D & 1
    return np.stack([np.ones_like(D), b, (b - D) // 4])


class _Walks:
    """_sylow_structure's walk of two generators, on int64 lanes: the odd parts past the shortcut.

    A walk starts where an odd lane of _lane_sylow has its first projection
    x1 that is not 1, with the exact order k1 = q^j below q^e that the
    lane's rungs gave it.  Its first round asks for the table of <x1>, x1^t
    for 2 <= t <= (k1 - 1)/2, so a wrong h asks for no more lanes than the
    true order of x1.  The table holds for t > k1/2 the inverse (a, -b, c)
    of x1^(k1-t), reduced, as no class of odd order but 1 is ambiguous.
    Every round, the first one too, asks for the rungs of its next
    candidate, as the lane asked for those of x1 (_rungs): the projection x2
    and x2^(q^s), s < e.  While x2 is in the table, the next candidate
    follows, as _sylow_structure skips it (none left: ran out).  Otherwise
    x2 must have order k2 = q^e/k1 modulo <x1>, the one size at which
    _sylow_structure stops at two generators: x2^(k2/q) is not in <x1> (else
    third generator) and x2^k2 = x1^v (else failed test).  Its relations are
    then [[k1, 0], [-v, k2]], and one smith_normal_form per distinct matrix
    gives the orders dj > 1 and the basis forms b = x1^w0 x2^w1.  The next
    round raises b^(dj/q) and b^dj, _q_torsion's two tests, as x1^(w0 m mod
    k1) from the table times x2^(w1 m mod q^e) from the lanes (a slot, one
    per m); a test that fails is failed test.  An entry of one order ends as
    a row (field, q, e, y) in ended, as the shortcut's do; one of two orders
    is written into entries.  Reduced forms are unique per class, so every
    entry is _sylow_structure's.
    """

    def __init__(self, D, heads, count, hs, whole, entries, ended):
        self.D, self.heads, self.count, self.hs, self.whole = D, heads, count, hs, whole
        self.entries, self.ended = entries, ended
        self.walks = np.zeros((9, 0), np.int64)  # field, q, e, candidate, k1, id, x1
        self.slots = np.zeros((13, 0), np.int64)  # field, q, e, id, dj, test, m2, x2, x1^m1
        self.forms = np.zeros((3, 0), np.int64)  # the tables: x1^0 .. x1^(k1-1) of each walk
        self.base = np.zeros(0, np.int64)  # per walk id: the column of x1^0 in forms, -1 before
        self.keys, self.exps = np.zeros(0, np.int64), np.zeros(0, np.int64)  # sorted, and their t
        self.smith: dict = {}
        self.asked: tuple = ()

    def live(self) -> bool:
        return bool(self.walks.size or self.slots.size)

    def start(self, rows: np.ndarray) -> None:
        """Walks of the lanes rows (field, q, e, candidate of x1, k1, x1), from the next candidate."""
        i, k = rows[0], rows[3] + 1
        out = k == self.count[i]
        np.maximum.at(self.whole, i[out], _RAN_OUT)
        ids = self.base.size + np.arange(i.size)
        self.base = np.concatenate((self.base, np.full_like(ids, -1)))
        new = np.vstack((rows[:3], k, rows[4], ids, rows[5:]))[:, ~out]
        self.walks = np.concatenate((self.walks, new), axis=1)

    def asks(self) -> np.ndarray:
        """The rows a, b, c, n of this round's requests: tables, the rungs of x2, then slots."""
        w = self.walks = self.walks[:, self.whole[self.walks[0]] == 0]
        s = self.slots = self.slots[:, self.whole[self.slots[0]] == 0]
        i, q, e, k, k1, ids = w[:6]
        fresh = self.base[ids] < 0  # started last round: no table yet
        tw, t = _spans(np.where(fresh, (k1 - 1) // 2 - 1, 0))
        t += 2
        rungs, lw, ls = _rungs(self.heads[:, i, k], self.hs[i] // q**e, e, q)
        sw = np.flatnonzero(s[6] > 0)  # a slot at m2 = 0 takes x2^0 = 1
        self.asked = np.flatnonzero(fresh), tw, lw, ls, sw
        return np.concatenate(
            (np.vstack((w[6:, tw], t)), rungs, np.vstack((s[7:10, sw], s[6, sw]))), axis=1
        )

    def take(self, powers: np.ndarray) -> None:
        """Answer the requests of asks: end the slots, then step the walks."""
        fresh, tw, lw, ls, sw = self.asked
        table, rungs, raised = np.split(powers, np.cumsum([tw.size, lw.size]), axis=1)
        self._torsion(raised, sw)
        w = self.walks
        if not w.size:
            return
        i, q, e, k, k1, ids = w[:6]
        if fresh.size:
            self._tables(fresh, table, np.searchsorted(tw, fresh))
        x2 = rungs[:, ls == 0]
        inside = self._find(ids, x2)[0]
        k[inside] += 1
        out = inside & (k == self.count[i])
        np.maximum.at(self.whole, i[out], _RAN_OUT)
        k2 = q**e // k1
        scale = q[lw] ** ls  # x2^scale in each column of rungs
        below = self._find(ids, rungs[:, scale == (k2 // q)[lw]])[0] & ~inside
        closed, v = self._find(ids, rungs[:, scale == k2[lw]])
        np.maximum.at(self.whole, i[below], _THIRD)
        failed = ~inside & ~below & ~closed
        np.maximum.at(self.whole, i[failed], _FAILED)
        two = ~inside & ~below & closed
        self._basis(w[:, two], k2[two], v[two], x2[:, two])
        self.walks = w[:, inside & ~out]

    @staticmethod
    def _key(ids: np.ndarray, forms: np.ndarray) -> np.ndarray:
        # a < 2^16 and |b| <= a within LANE_LIMIT, so (id, a, b) fits int64
        return (ids << 34) + (forms[0] << 17) + forms[1] + 2**16

    def _find(self, ids: np.ndarray, forms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per column: whether the form is in the table of walk id, and its exponent t there."""
        key = self._key(ids, forms)
        at = np.minimum(np.searchsorted(self.keys, key), self.keys.size - 1)
        return self.keys[at] == key, self.exps[at]

    def _tables(self, fresh: np.ndarray, table: np.ndarray, starts: np.ndarray) -> None:
        """Add the tables of the walks fresh, whose x1^t (t >= 2) start at starts in table."""
        w = self.walks[:, fresh]
        owner, t = _spans(w[4])
        s = np.minimum(t, w[4, owner] - t)  # x1^t is x1^s, or the inverse of x1^s
        src = np.concatenate((_principal_lanes(self.D[w[0]]), w[6:], table), axis=1)
        m = fresh.size
        forms = src[:, np.where(s < 2, s * m + owner, 2 * m + starts[owner] + s - 2)]
        forms[1, t > s] *= -1
        self.base[w[5]] = self.forms.shape[1] + np.cumsum(w[4]) - w[4]
        self.forms = np.concatenate((self.forms, forms), axis=1)
        keys = np.concatenate((self.keys, self._key(w[5, owner], forms)))
        order = np.argsort(keys)
        self.keys, self.exps = keys[order], np.concatenate((self.exps, t))[order]

    def _basis(self, w: np.ndarray, k2s: np.ndarray, vs: np.ndarray, x2: np.ndarray) -> None:
        """The slots of the walks w, whose x2 has order k2 modulo <x1> with x2^k2 = x1^v."""
        cols, rows = [], []
        walks = zip(*w[[1, 2, 4]].tolist(), k2s.tolist(), vs.tolist())
        for col, (q, e, k1, k2, v) in enumerate(walks):
            if (basis := self.smith.get((k1, v, k2))) is None:
                diag, u = smith_normal_form([[k1, 0], [-v, k2]])
                basis = [(dj, u[0][j], u[1][j]) for j, dj in enumerate(diag) if dj > 1]
                self.smith[k1, v, k2] = basis
            for dj, w0, w1 in basis:
                for test, m in enumerate((dj // q, dj)):
                    cols.append(col)
                    rows.append((dj, test, w1 * m % q**e, w0 * m % k1))
        cols = np.array(cols, dtype=np.int64)
        dj, test, m2, m1 = np.array(rows, dtype=np.int64).reshape(-1, 4).T
        x1 = self.forms[:, self.base[w[5, cols]] + m1]
        self.slots = np.vstack((w[[0, 1, 2, 5]][:, cols], dj, test, m2, x2[:, cols], x1))

    def _torsion(self, raised: np.ndarray, sw: np.ndarray) -> None:
        """End the slots: y = b^(dj/q) != 1 and y^q = b^dj = 1 for each basis form b of a walk."""
        s = self.slots
        if not s.size:
            return
        i, q, e, ids, dj, test = s[:6]
        x2 = _principal_lanes(self.D[i])
        x2[:, sw] = raised
        y = np.stack(_reduce_lanes(*_compose_lanes(tuple(s[10:]), tuple(x2))[1]))
        passed = np.where(test == 0, y[0] != 1, y[0] == 1)
        first = np.flatnonzero(np.diff(ids, prepend=-1))  # the slots of a walk are contiguous
        ok = np.logical_and.reduceat(passed, first)
        rank = np.diff(first, append=ids.size) // 2  # two slots per basis form
        np.maximum.at(self.whole, i[first[~ok]], _FAILED)
        one = first[ok & (rank == 1)]
        self.ended.append(np.vstack((s[:3, one], y[:, one])))
        for j in first[ok & (rank == 2)].tolist():
            f, g = (QuadForm._make(y[:, c].tolist()) for c in (j, j + 2))
            self.entries[int(i[j])][int(q[j])] = (int(dj[j]), int(dj[j + 2])), (f, g)
        self.slots = np.zeros((13, 0), np.int64)


def _array_entries(
    entries: list, ended: np.ndarray, r: np.ndarray, hs: np.ndarray, size: np.ndarray
) -> list[bool]:
    """Write the entry of each lane that ended into its field's entries; which fields take the bulk.

    ended holds per lane its field, q, e (the chain length n at q = 2) and
    y.  A 2-lane's entry is _two_sylow_orders's at 4-rank r4 <= 1,
    ((2,)*(r-1) + (2^n,), None), of order 2^(r-1+n) for the 2-rank r; an
    odd lane's is the shortcut's, ((q^e,), (y,)), also at the end of a walk
    of two generators whose group is cyclic (_Walks).  Per field of
    _lane_sylow, the result is True where its size parts all ended here and
    _check_structure's two conditions hold, checked in one numpy pass over
    the block: the orders multiply to h, and (2,)*(r-1) + (h >> (r-1),) is
    a divisibility chain, the invariant factors it then takes from (h, r).
    """
    i, q, e, *y = ended
    at_two, ranks = q == 2, r.tolist()
    order = np.where(at_two, 1 << (e + r[i] - 1), q**e)
    for j, n in zip(i[at_two].tolist(), e[at_two].tolist()):
        entries[j][2] = (2,) * (ranks[j] - 1) + (1 << n,), None
    odd = ~at_two
    forms = map(QuadForm._make, np.stack(y)[:, odd].T.tolist())
    for j, p, o, f in zip(i[odd].tolist(), q[odd].tolist(), order[odd].tolist(), forms):
        entries[j][p] = (o,), (f,)
    product = np.ones_like(hs)
    np.multiply.at(product, i, order)
    divides = (r <= 1) | (hs >> np.maximum(r - 1, 0) & 1 == 0)
    complete = np.bincount(i, minlength=hs.size) == size
    return (complete & (product == hs) & divides).tolist()


# A product of states on lanes runs only while N*(4N + |D|) <= _STATE_BOUND for
# the norm N = a1*a2 of its J (_fits); a lane past it takes the scalar route.
_STATE_BOUND = 2**60
# The p^2 of a lane stays below this: the ring product adds two products of
# residues mod p^2, each below 2^62.
_RING_LIMIT = 2**31


def _generator_lanes(jobs: Iterable[tuple[QuadForm, int]]) -> np.ndarray:
    """The jobs answered on int64 lanes, as rows: job, x, y, p and D mod p^2.

    job is the index in jobs, ascending, and (x, y) the image in O/p^2 of
    torsion_power_generator.  Each job is a lane whose state (f, g) starts
    at f = coprime_representative(form, p) and g = 1, that form chosen for
    all jobs at once in numpy (_lanes); every lane runs square_and_multiply
    from the top bit of its p at once, one round per bit, each a lock-step
    product of states (_power_states) with every check of _state_product,
    whose InvariantViolation is raised at once.  A job is left out, for the
    scalar route to run from its start, when coprime_representative raises,
    p^2 reaches _RING_LIMIT, a product would fail _fits, or the final state
    has norm a != 1, for which torsion_power_generator raises NotPrincipal.
    """
    lanes = _lanes(jobs)
    if not lanes.shape[1]:
        return np.zeros((5, 0), np.int64)
    job, final = lanes[0], _power_states(lanes[1:])
    p, done = final[7], (final[0] == 1) & (final[5] == 1)
    return np.stack([job, final[3], final[4], p, -final[6] % (p * p)])[:, done]


def _lanes(jobs: Iterable[tuple[QuadForm, int]]) -> np.ndarray:
    """The job and the first state rows of _power_states of each job that starts on a lane.

    The state is (f, 1) with f = (a, b, c) = coprime_representative(form, p),
    chosen as it chooses, on every job at once: of a primitive form, the
    first of f, (c, -b, a) and (a + b + c, -2a - b, a) whose leading
    coefficient is coprime to p, kept where it has the discriminant of
    form.  A job that is not primitive, that has no such form (where
    coprime_representative raises) or whose p^2 reaches _RING_LIMIT is left
    out.  The jobs' forms are reduced, of |D| at most
    quadform.CLASS_NUMBER_LIMIT, so every value here is far inside int64.
    """
    rows = itertools.chain.from_iterable((*form, p) for form, p in jobs)
    a, b, c, p = np.fromiter(rows, np.int64).reshape(-1, 4).T
    s = a + b + c
    on_a, on_c = np.gcd(a, p) == 1, np.gcd(c, p) == 1
    keep = (np.gcd(np.gcd(a, b), c) == 1) & (on_a | on_c | (np.gcd(s, p) == 1))
    f = np.where(on_a, (a, b, c), np.where(on_c, (c, -b, a), (s, -2 * a - b, a)))
    w = 4 * a * c - b * b
    keep &= (4 * f[0] * f[2] - f[1] * f[1] == w) & (np.abs(p) <= math.isqrt(_RING_LIMIT - 1))
    one, zero = np.ones_like(a), np.zeros_like(a)
    return np.stack([np.arange(a.size), *f, one, zero, one, w, p])[:, keep]


def _fits(a1: np.ndarray, a2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The lanes whose product of states stays inside int64: N*(4N + w) <= _STATE_BOUND.

    N = a1*a2 is the norm of J = d*[a3, (b3 + sqrt D)/2], w = |D|.  The
    reduced basis starts from (2*a3*d, 0) and (b3*d, d), b3 in (-a3, a3], of
    lengths u^2 + w*v^2 at most 4*a3*N <= 4N^2 and a3*N + d^2*w <= N^2 + N*w.
    Each Lagrange-Gauss step shortens the vector it moves, and the
    numerator 2*<u, x> + |u|^2 of its nearest-integer quotient is at most
    three times the longer length (Cauchy-Schwarz).  The reduced v1, v2
    have lengths at least 4N, every norm in J being a multiple of N, and
    product at most (16/3)*w*N^2, so v1 + v2, the longest candidate, and U
    of conj(mu)*w stay below 4*N*w.  All are at most 3 * 2^60 < 2^63, as
    N*w <= _STATE_BOUND.  The states stay small whatever a alone reaches:
    a and c are the norms of mu and w over N, so a*c <= |D| and
    b^2 = 4ac - |D| <= 3|D|.  No limit on |D| alone does it: over
    [9.99e6, 1e7) a3 reaches 2.2e10 and the first basis vector 1.9e21.
    The test runs in float64, whose rounding is far inside the factor
    between _STATE_BOUND and 2^63/3.
    """
    n = a1 * a2.astype(np.float64)
    return n * (4 * n + w) <= _STATE_BOUND


def _power_states(s: np.ndarray) -> np.ndarray:
    """square_and_multiply((f, 1), p, _state_product) on every column of s, in place.

    The rows of s are a lane's state, f = (a, b, c) and g = (g0, g1), its
    fits, |D| and the exponent p.  _square_and_multiply_lanes
    makes bit_length(p) - 1 squarings and popcount(p) - 1 products per
    lane, as torsion_power_generator does.  Before each product, a lane
    that fails _fits gets fits = 0, and its state stays as it was from then
    on.
    """

    def product(t, u):
        fits = t[5] == 1
        fits &= _fits(t[0], u[0], t[6])
        t[5] = fits
        one = t if fits.all() else t[:, fits]
        two = one if u is t else u if fits.all() else u[:, fits]
        f1, g1 = tuple(one[:3]), tuple(one[3:5])
        f2, g2 = (f1, g1) if two is one else (tuple(two[:3]), tuple(two[3:5]))
        f, g = _state_lanes(f1, g1, f2, g2, *one[6:])
        for row, y in zip(t, f + g):
            row[fits] = y
        return t

    return _square_and_multiply_lanes(s, s[7], product)


def _state_lanes(f1, g1, f2, g2, w, p) -> tuple[tuple, tuple]:
    """_state_product lane by lane, with its four checks (_ideal_lanes); f2 is f1 for a square.

    w = |D|, and the ring is O/m for m = p^2, with par = D mod m.  The
    ring product reduces mod m between factors: p^6 passes 2^63 from
    p = 1,449 on, and p reaches 4,937 below |D| = 1e7.
    """
    f, (mu0, mu1) = _ideal_lanes(f1, f2, w, p)
    m = p * p
    par = -w % m
    k = _xgcd_lanes(f[0], m)[1] * ((m + 1) // 2) % m  # the image of mu / a: 1/(2a) times (u, v)
    e = (mu0 % m * k % m, mu1 % m * k % m)
    return f, _ring_mul(_ring_mul(g1, g2, m, par), e, m, par)


def _ideal_lanes(f1, f2, w, p) -> tuple[tuple, tuple]:
    """The states' part of _state_lanes: the form (a, b, c) of I' and mu, with every check.

    Apart from _state_lanes, so that its int64 temporaries, tens of kB each
    on a block's lanes, are freed before the ring part runs.
    """
    d, (a3, b3, _) = _compose_lanes(f1, f2)
    np.subtract(a3, b3, out=b3)  # into (-a3, a3], as in QuadIdeal: a3 - (a3 - b3) mod 2*a3
    b3 %= 2 * a3
    np.subtract(a3, b3, out=b3)
    n = d * d
    n *= a3
    v1, v2 = _basis_lanes((2 * a3 * d, np.zeros_like(d)), (b3 * d, d.copy()), w)
    v3 = (v1[0] + v2[0], v1[1] + v2[1])
    four_n = 4 * n
    prime = [(u * u + w * v * v) // four_n % p != 0 for u, v in (v1, v2, v3)]
    if (bad := ~(prime[0] | prime[1] | prime[2])).any():
        i = int(np.flatnonzero(bad)[0])
        raise InvariantViolation(
            f"lane {i}: no basis vector of {d[i]}*[{a3[i]}, {b3[i]}] has norm prime to {p[i]}"
        )

    def pick(*choices):  # of v1, v2, v1 + v2, the first whose norm is prime to p
        return np.select(prime, choices)

    mu0, mu1 = pick(v1[0], v2[0], v3[0]), pick(v1[1], v2[1], v3[1])
    w0, w1 = pick(v2[0], v1[0], v1[0]), pick(v2[1], v1[1], v1[1])
    del v1, v2, v3
    # conj(mu) * w = (U + V*sqrt(D))/2 with V = +-N(J), since {mu, w} is a basis of J
    U = mu0 * w0
    U += w * mu1 * w1
    U //= 2
    V = mu0 * w1
    V -= mu1 * w0
    V //= 2
    if (bad := np.abs(V) != n).any() or (bad := U % V != 0).any():
        i = int(np.flatnonzero(bad)[0])
        raise InvariantViolation(
            f"lane {i}: ({mu0[i]}, {mu1[i]}) and ({w0[i]}, {w1[i]}) "
            f"do not span {d[i]}*[{a3[i]}, {b3[i]}]"
        )
    b = U // V
    a, r = np.divmod(mu0 * mu0 + w * mu1 * mu1, four_n)
    c, s = np.divmod(b * b + w, 4 * a)
    if (bad := (r != 0) | (s != 0)).any():  # N(J) divides N(mu), and I' is closed
        i = int(np.flatnonzero(bad)[0])
        raise InvariantViolation(
            f"lane {i}: {d[i]}*[{a3[i]}, {b3[i]}] is not an ideal: it gives ({a[i]}, {b[i]})"
        )
    if (bad := n != f1[0] * f2[0]).any():  # N(J) = N(I1) * N(I2): a wrong content d fails here
        i = int(np.flatnonzero(bad)[0])
        raise InvariantViolation(
            f"lane {i}: {d[i]}*[{a3[i]}, {b3[i]}] has norm {n[i]}, not {f1[0][i]}*{f2[0][i]}"
        )
    return (a, b, c), (mu0, mu1)



def _basis_lanes(first, second, w) -> tuple[tuple, tuple]:
    """reduced_basis lane by lane: its Lagrange-Gauss steps on the lanes not yet reduced.

    The basis is built in the four arrays of first and second, which it overwrites.
    """
    (u, v), (x, y) = first, second
    q1, q2 = u * u + w * v * v, x * x + w * y * y
    swap = q1 > q2
    for one, two in ((u, x), (v, y)):
        one[swap], two[swap] = two[swap], one[swap]
    np.minimum(q1, q2, out=q1)
    del q2, swap
    live = np.arange(u.size)
    while live.size:
        cu, cv, cx, cy, cq, cw = u[live], v[live], x[live], y[live], q1[live], w[live]
        # nearest-integer reduction of (x, y) against (u, v)
        t = cu * cx
        t += cw * cv * cy
        t *= 2
        t += cq
        t //= 2 * cq
        cx -= t * cu
        cy -= t * cv
        del t
        q = cx * cx
        q += cw * cy * cy
        done = q >= cq
        go = ~done
        x[live], y[live] = np.where(done, cx, cu), np.where(done, cy, cv)
        u[live[go]], v[live[go]], q1[live[go]] = cx[go], cy[go], q[go]
        live = live[go]
    return (u, v), (x, y)


def _injective_lanes(x, y, p, par, first, second) -> np.ndarray:
    """injectivity_test on local_unit_image's closed forms, lane by lane: one bool per test.

    A lane is the image (x, y) in O/p^2, basis {1, sqrt D}, of a generator
    at an odd p whose completion has no local p-power torsion, with
    par = D mod p^2 (the ring of idealgen._ring_mul).  A test is the lanes
    first and second of one torsion basis, second = first at rank 1: rank
    1 is injective when the image is nontrivial, rank 2 when both are and
    their 2x2 determinant is nonzero mod p.  Every lane raises at once,
    also under python -O: NotLocalUnit when N(g) = 0 mod p, and
    InvariantViolation when beta = g^e is not 1 mod p (mod pi where p
    ramifies), as in local_unit_image.  e is p^2 - 1 where p is unramified
    and p - 1 where it ramifies; beta comes from
    _square_and_multiply_lanes, whose state rows are the image
    (x, y) and the ring's p^2 and D mod p^2.

    Unramified p: u = ((X - 1)/p, Y/p) mod p for beta = (X, Y), which are
    local_unit_image's coordinates at inert p.  At split p, with r^2 = D
    mod p^2, (x, y) -> (x + y*r, x - y*r) is a ring isomorphism of O/p^2
    onto (Z/p^2)^2.  It sends beta to (c1^(p^2-1), c2^(p^2-1)), and
    c^(p^2-1) = (1 + p*q)^(p+1) = 1 + p*q mod p^2 for the Fermat quotient q
    of c.  So the Fermat quotients are (q1, q2) = (u0 + u1*r, u0 - u1*r)
    mod p, an invertible linear image of u (determinant -2r, prime to p):
    u = 0 exactly when they vanish, and for two images their determinant is
    -2r times that of the u, so both verdicts agree.  Ramified p: local_unit_image's
    expansion along 1 + pi, 1 + pi^2, with the inverse of
    delta = (D mod p^2)/p mod p from _xgcd_lanes.
    """
    m = p * p
    if (bad := (x * x - y * y % m * par) % p == 0).any():
        i = int(np.flatnonzero(bad)[0])
        raise NotLocalUnit(f"lane {i}: ({x[i]}, {y[i]}) has norm divisible by {p[i]}")
    ramified = par % p == 0
    e = np.where(ramified, p - 1, m - 1)

    def product(t, u):
        t[0], t[1] = _ring_mul(t, u, t[2], t[3])
        return t

    X, Y = _square_and_multiply_lanes(np.stack([x, y, m, par]), e, product)[:2]
    if (bad := ((X - 1) % p != 0) | (~ramified & (Y % p != 0))).any():
        i = int(np.flatnonzero(bad)[0])
        raise InvariantViolation(
            f"lane {i}: ({x[i]}, {y[i]})^{e[i]} = ({X[i]}, {Y[i]}) "
            f"is not 1 mod {'pi' if ramified[i] else p[i]}"
        )
    u = np.stack([(X - 1) // p % p, Y // p % p])
    if (r := np.flatnonzero(ramified)).size:  # discrete log against {1 + pi, 1 + pi^2}
        q = p[r]
        c1 = Y[r] % q
        c2 = (X[r] - 1) // q * (_xgcd_lanes(par[r] // q, q)[1] % q) % q
        u[:, r] = c1, (c2 - c1 * (c1 - 1) // 2) % q
    one, two = u[:, first], u[:, second]
    det = one[0] * two[1] - one[1] * two[0]
    return one.any(0) & two.any(0) & ((first == second) | (det % p[first] != 0))


def lane_statuses(
    tests: list[tuple[FundamentalDiscriminant, ClassGroupStructure, int, list[QuadForm]]],
) -> list[str | None]:
    """status_at_odd_prime(d, cg, p) for each (d, cg, p, basis) of tests, or None.

    basis is p_torsion_basis(cg, p), of rank 1 or 2.  The generator images
    of every basis form come from one _generator_lanes call, and
    the local test of every (d, p) from one _injective_lanes call
    on its output arrays; both raise their checks at once.  A p = 3 that
    ramifies with a local cube root of unity (D = 6 mod 9, the torsion of
    build_context) takes status_at_odd_prime on its lane images, so
    generic_membership decides it.  None marks a test with an image the
    lanes left, for status_at_odd_prime to run from its start at its field.
    """
    rank = np.array([len(basis) for *_, basis in tests], dtype=np.int64)
    first = np.cumsum(rank) - rank
    job, x, y, p, par = _generator_lanes((f, p) for _, _, p, basis in tests for f in basis)
    lane = np.full(int(rank.sum()), -1)  # per job: its lane, or -1
    lane[job] = np.arange(job.size)
    one, two = lane[first], lane[first + rank - 1]
    done = (one >= 0) & (two >= 0)
    injective = np.zeros(len(tests), bool)
    injective[done] = _injective_lanes(x, y, p, par, one[done], two[done])
    out: list[str | None] = []
    for (d, cg, q, _), ok, i, j, inj in zip(
        tests, done.tolist(), one.tolist(), two.tolist(), injective.tolist()
    ):
        if not ok:
            out.append(None)
        elif q == 3 and d.value % 9 == 6:
            images = [(int(x[k]), int(y[k])) for k in range(i, j + 1)]
            out.append(status_at_odd_prime(d, cg, q, images))
        else:
            out.append(INJECTIVE if inj else NONINJECTIVE)
    return out
