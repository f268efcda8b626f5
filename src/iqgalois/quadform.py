"""Binary quadratic form arithmetic and class group structure.

Forms (a, b, c) are positive definite and primitive with b^2 - 4ac = D < 0,
stored as named int tuples; the reduced representative (|b| <= a <= c,
b >= 0 on the boundary) is the canonical identifier of an ideal class.
compose_unreduced is the one Dirichlet composition formula, its Bezout
data taken from builtin gcds and modular inverses (one inverse for squares
and for coprime leading coefficients, two for any other pair), with an
exact, checked division for c3.  compose reduces its result, and idealgen
multiplies ideals with it, keeping the content d that the class drops;
power raises a class by arith.square_and_multiply on plain int triples,
reduced by the one loop that reduce_form also runs.
The class number is exact: a count of the roots of b^2 = D (mod 4a),
checked by the enumeration oracle, or the value a caller vouches for.
The 2-orders come from genus theory: the 2-rank t - 1, the 4-rank r4 from
the Redei matrix of Kronecker symbols between the prime discriminants of D,
and 2^e || h.  Prime forms chosen by their genus characters are projected
into the 2-Sylow subgroup and squared to their chains x, x^2, x^4, ...; at
r4 <= 1 one of them has the largest 2-order, and at r4 = 2 the larger of
two and the order of the other modulo its cyclic group give the two orders
of at least 4.  Their orders must multiply to 2^e, which holds the 2-part
of h to the group wherever r4 <= 2.  Every other Sylow subgroup (odd q, and
q = 2 at r4 >= 3) takes one walk over the prime forms of norm up to
sqrt(|D|/3) and below 2^16, which generate the group (past |D| = 3 * 65521^2
a pool that falls short makes the walk raise; _prime_form_pool).  At odd
q the walk skips the ambiguous forms (b = 0, b = a or a = c): their classes
have order 1 or 2, and h is even wherever one is not principal, so their
projection is the identity, which the walk would discard.  A subgroup
whose first projected prime form has exact order q^e is cyclic with that
form as its basis; any other is grown as an explicit table of
classes, and its Smith normal form gives the invariant factors and a
basis.  Of each basis form x of order o it keeps y = x^(o/q), which spans
Cl[q] with the others and is x's one exact-order test (_q_torsion).
Cl[2] comes from the ramified prime forms.
class_group runs these Sylow parts one by one on the scalar power: the
oracle, which classify, tables, verify and table3 take.  class_groups, the
route of a survey block, runs the Sylow parts of many fields side by side
as int64 array lanes instead.  An odd one asks at once for the rungs
f^(h/q^e * q^s), s < e, of its candidate f (the first prime forms that are
not ambiguous), whose first 1 gives the projection x its exact order.
Order q^e takes the cyclic shortcut once x^(q^e) = 1, and a lower one
walks on to a second generator, with the table of <x>, their relations and
their Smith basis (_Walks).  A 2-part of 4-rank 0 or 1 projects the one
prime form that its genus characters choose and checks the one chain
length that the ranks leave.  Their forms, the Redei rows and the 4-ranks
are built in numpy once per block (_redei_lanes, _pool_lanes), with a
Jacobi symbol that takes no products.  Each round, the requests of every
lane take one lock-step numpy kernel on int64 lanes (_power_lanes: Shanks
composition from lock-step extended gcds and a masked reduction loop),
which keeps both checks of compose_unreduced; the groups are yielded in
field order once every round is done.  A field whose parts all ended on
the arrays as cyclic factors takes its invariant factors straight from h
and its 2-rank, after one numpy check over the block of what
_check_structure checks; one with an odd part of rank 2 takes _assemble,
the assembly of class_group.  Any other outcome of a lane, and a field the
lanes cannot take (past LANE_LIMIT = 4.5e9, where int64 stops being exact,
or with h past 2^53 or h = 1), hands the field to class_group whole
(WHOLE).  _square_and_multiply_lanes is square_and_multiply on every lane
at once, from each lane's top bit down, under the product its caller
passes: the one loop of _power_lanes and of the generator and local-unit
kernels of idealgen and localtest.
"""

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .arith import InvariantViolation, factorize, kronecker, small_primes, smith_normal_form
from .arith import sqrt_mod_prime, sqrt_mod_prime_power, square_and_multiply
from .discriminant import FundamentalDiscriminant, genus_two_rank, validate

# largest |D| for class_number, whose tables grow like sqrt|D| (70 MB at 10^13)
CLASS_NUMBER_LIMIT = 10**13


class DiscriminantMismatch(ValueError):
    """Raised when composing forms of different discriminants."""


class RankOverflow(ValueError):
    """Raised when a p-torsion basis would need three or more generators."""


class ClassNumberAmbiguous(RuntimeError):
    """Prime forms did not fill a group of the given class number.

    Raised for a wrong known_h, or when the prime-form pool is exhausted
    before it generates a Sylow subgroup.
    """


class QuadForm(NamedTuple):
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    def is_reduced(self) -> bool:
        a, b, c = self
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def __repr__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def principal_form(D: int) -> QuadForm:
    if D % 2 == 0:
        return QuadForm(1, 0, -D // 4)
    return QuadForm(1, 1, (1 - D) // 4)


def _reduce(f: tuple[int, int, int]) -> tuple[int, int, int]:
    """The reduction loop on a plain int triple: reduce_form without the QuadForm."""
    a, b, c = f
    if a <= 0 or b * b - 4 * a * c >= 0:
        raise ValueError(f"({a},{b},{c}) is not positive definite")
    # shift b into (-a, a]
    r = (a - b) // (2 * a)
    b, c = b + 2 * r * a, a * r * r + b * r + c
    while a > c:
        # (a, b, c) -> (c, -b, a), then shift b again
        r = (c + b) // (2 * c)
        a, b, c = c, 2 * r * c - b, c * r * r - b * r + a
    if a == c and b < 0:
        b = -b
    return a, b, c


def reduce_form(f: tuple[int, int, int]) -> QuadForm:
    """The unique reduced form properly equivalent to f, any (a, b, c) triple."""
    return QuadForm._make(_reduce(f))


def inverse(f: QuadForm) -> QuadForm:
    return reduce_form((f.a, -f.b, f.c))


def compose_unreduced(
    f: tuple[int, int, int], g: tuple[int, int, int]
) -> tuple[int, tuple[int, int, int]]:
    """Dirichlet composition of two primitive forms, before reduction: (d, (a3, b3, c3)).

    d = gcd(a1, a2, (b1 + b2)/2) is the content of the ideal product:
    [a1, (b1 + sqrt D)/2] * [a2, (b2 + sqrt D)/2] = d * [a3, (b3 + sqrt D)/2],
    with a3 = a1*a2/d^2 and b3 the root of b3^2 = D (mod 4*a3) that is b1 mod
    2*a1/d and b2 mod 2*a2/d, returned in [0, 2*a3).  Three branches find it:

    - squares, f = g: d = gcd(a, b), b3 = b - 2*(a/d)*t*c with t the inverse
      of b/d mod a/d;
    - coprime a1, a2: d = 1, b3 = b2 + a2*v*(b1 - b2) with v the inverse of
      a2 mod a1;
    - any other pair: with k = gcd(a1, a2) and s = (b1 + b2)/2, d = gcd(k, s),
      v the inverse of a2/k mod a1/k, t the inverse of s/d mod k/d and
      w0 = (d - t*s)/k, so that d = w0*u*a1 + w0*v*a2 + t*s for some u;
      b3 = b2 + 2*(a2/d)*(w0*v*(b1 - b2)/2 - t*c2).

    c3 = (b3^2 - D)/(4*a3) is an exact division; a remainder raises
    InvariantViolation, so a broken product fails where it is made.
    """
    a1, b1, c1 = f
    a2, b2, c2 = g
    D = b1 * b1 - 4 * a1 * c1
    if D != b2 * b2 - 4 * a2 * c2:
        raise DiscriminantMismatch(f"{f} and {g} have different discriminants")
    if a1 == a2 and b1 == b2:
        d = math.gcd(a1, b1)
        m = a1 // d
        a3 = m * m
        b3 = (b1 - 2 * m * pow(b1 // d, -1, m) * c1) % (2 * a3)
    elif (k := math.gcd(a1, a2)) == 1:
        d, a3 = 1, a1 * a2
        b3 = (b2 + a2 * pow(a2, -1, a1) * (b1 - b2)) % (2 * a3)
    else:
        s = (b1 + b2) // 2
        d = math.gcd(k, s)
        v = pow(a2 // k, -1, a1 // k)
        t = pow(s // d, -1, k // d)
        w0 = (d - t * s) // k
        a3 = a1 * a2 // (d * d)
        b3 = (b2 + 2 * (a2 // d) * (w0 * v * ((b1 - b2) // 2) - t * c2)) % (2 * a3)
    c3, r = divmod(b3 * b3 - D, 4 * a3)
    if r:
        raise InvariantViolation(f"{f} * {g}: 4*{a3} does not divide {b3}^2 - ({D})")
    return d, (a3, b3, c3)


def _reduced_product(f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
    return _reduce(compose_unreduced(f, g)[1])


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Dirichlet composition, returned reduced."""
    return QuadForm._make(_reduced_product(f, g))


def power(f: QuadForm, n: int) -> QuadForm:
    """n-th composition power of the class of f (n may be negative).

    arith.square_and_multiply on |n|: bit_length(n) - 1 squarings and
    popcount(n) - 1 products, each one call of the module global
    compose_unreduced and one pass of the reduction loop, on plain int
    triples; only the result is a QuadForm.  f is reduced first, so an
    invalid f raises ValueError also for n = 0.
    """
    a, b, c = f
    if n < 0:
        b, n = -b, -n
    base = _reduce((a, b, c))
    if n == 0:
        return principal_form(b * b - 4 * a * c)
    return QuadForm._make(square_and_multiply(base, n, _reduced_product))


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
    at most 2^29 for the states of idealgen._generator_lanes, or a modulus
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
    states of idealgen._generator_lanes: there a1*a2 <= 2^29, so b3^2 < 2^60,
    and the states have b^2 <= 3|D| and a*c <= |D| (idealgen._fits).
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


def enumerate_reduced_forms(D: int) -> list[QuadForm]:
    """All primitive reduced forms of discriminant D < 0, sorted."""
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative discriminant")
    forms = []
    amax = math.isqrt(-D // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b - D) % 2 != 0:
                continue
            num = b * b - D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            forms.append(QuadForm(a, b, c))
    return sorted(forms, key=lambda f: (f.a, f.b, f.c))


def prime_form(D: int, q: int) -> QuadForm | None:
    """A form (q, b, *) of discriminant D with q prime, if q is not inert."""
    if q == 2:
        if D % 2 == 0:
            b = 0 if D % 8 == 0 else 2
        elif D % 8 == 1:
            b = 1
        else:
            return None  # inert
    else:
        if D % q == 0:
            b = q if D % 2 == 1 else 0
        else:
            r = sqrt_mod_prime(D % q, q)
            if r is None:
                return None
            b = r if (r - D) % 2 == 0 else q - r
    if (b * b - D) % (4 * q) != 0:
        return None
    return QuadForm(q, b, (b * b - D) // (4 * q))


def _prime_form_pool(D: int) -> Iterator[QuadForm]:
    """The reduced prime forms of norm up to sqrt(|D|/3) and below 2^16, in ascending norm.

    Up to sqrt(|D|/3) they generate Cl(D): every class holds a reduced form
    (a, b, c) with a <= sqrt(|D|/3), a product of prime forms at the primes
    of a.  The pool ends at 65521, the last prime of small_primes, which is
    short of sqrt(|D|/3) for |D| > 3 * 65521^2 (about 1.29e10).  No verdict
    can be wrong there: with the exact h, a walk whose forms fall short of a
    part of h raises ClassNumberAmbiguous (exit 3), never a smaller group.
    Under GRH the primes up to 6 ln^2 |D| already generate the group, about
    5,400 at |D| = 1e13 (E. Bach, Math. Comp. 55 (1990)).  A walk with a
    correct h stops on the same form as over all primes below 2^16.
    """
    bound = math.isqrt(-D // 3)
    for q in small_primes():
        if q > bound:
            return
        f = prime_form(D, q)
        if f is not None:
            yield reduce_form(f)


_Table = dict[QuadForm, tuple[int, ...]]
_Sylow = tuple[tuple[int, ...], tuple[QuadForm, ...] | None]


@dataclass(frozen=True)
class ClassGroupStructure:
    """Invariant factors and, for each prime q | h, the q-Sylow subgroup.

    sylow[q] = (orders, torsion): the ascending orders of its cyclic factors
    and, at odd q, one form of order q per factor (_sylow_structure), which
    together span Cl[q].  At q = 2 torsion is None: the verdict at p = 2
    reads no form, and p_torsion_basis(cg, 2) takes the ramified prime
    forms.  The keys are the primes of h in ascending order, the order in
    which classify tests them.
    """

    h: int
    invariant_factors: tuple[int, ...]
    sylow: dict[int, _Sylow]
    discriminant: int

    def p_rank(self, p: int) -> int:
        return len(self.sylow[p][0]) if p in self.sylow else 0


def _adjoin(sub: _Table, x: QuadForm, limit: int) -> tuple[int, tuple[int, ...], _Table | None]:
    """Grow the explicit subgroup table sub by the class of x.

    sub maps every class of a subgroup H to its exponent vector over the
    generators adjoined so far.  Walks x, x^2, ... up to the first power
    x^k in H, so k is the order of x modulo H.  Returns k, the vector of
    x^k and the table of <H, x>, whose vectors end in the exponent of x.
    Raises ClassNumberAmbiguous once k would exceed limit.  When |H| * k
    reaches limit, the walk that called it stops, and reads only the size
    |H| * k of <H, x> (its cosets of H are distinct): the table is None.
    """
    powers = [x]
    while powers[-1] not in sub:
        if len(powers) >= limit:
            raise ClassNumberAmbiguous(f"relative order of {x} exceeds {limit}")
        powers.append(compose(powers[-1], x))
    if len(sub) * len(powers) >= limit:
        return len(powers), sub[powers[-1]], None
    one = principal_form(x.disc)
    grown = {elt: vec + (0,) for elt, vec in sub.items()}
    for i, xi in enumerate(powers[:-1], 1):
        for elt, vec in sub.items():
            grown[xi if elt == one else compose(elt, xi)] = vec + (i,)
    return len(powers), sub[powers[-1]], grown


def _two_chain(x: tuple[int, int, int], one: QuadForm, e: int) -> list:
    """x, x^2, x^4, ... up to the last power that is not the identity.

    x has order 2^len(chain), and chain[-1] is its top, of order 2.  Each
    square is power(y, 2).  Raises ClassNumberAmbiguous when x^(2^e) is not
    the identity.
    """
    chain, y = [], x
    while y != one:
        if len(chain) == e:
            raise ClassNumberAmbiguous(f"order of {x} does not divide 2^{e}")
        chain.append(y)
        y = power(y, 2)
    return chain


def _genus_vector(discs: list[int], q: int) -> int:
    """Bit j set when the Kronecker symbol (d_j / q) is -1, for the prime discriminants d_j."""
    v = 0
    for j, dj in enumerate(discs):
        if kronecker(dj, q) == -1:
            v |= 1 << j
    return v


def _span_insert(basis: list[int], v: int) -> bool:
    """Add the F_2 vector v to basis, kept descending with distinct leading bits.

    Returns False, leaving basis as it was, when v is in its span.
    """
    for b in basis:
        v = min(v, v ^ b)
    if v:
        basis.append(v)
        basis.sort(reverse=True)
    return v != 0


def _redei(d: FundamentalDiscriminant) -> tuple[list[int], list[int], int]:
    """Prime discriminants of D, a basis of the Redei matrix's row space, and the 4-rank.

    D is the product of the prime discriminants d_j of its t primes p_j:
    p* = (-1)^((p-1)/2) p at odd p, and D over their product at 2.  The
    Redei matrix has the entry (i, j), i != j, equal to 1 when (d_j / p_i)
    is -1, and the diagonal entry that makes each row sum 0.  Its rows are
    the genus vectors of the ramified prime forms, which span the image of
    Cl[2] in Cl/Cl^2, and the 4-rank is t - 1 minus its rank over F_2
    (L. Redei and H. Reichardt, J. reine angew. Math. 170 (1934);
    P. Stevenhagen, "Redei matrices and applications", LMS Lecture Notes
    215 (1995)).
    """
    primes = [p for p, _ in d.prime_factors]
    odd = math.prod(p if p % 4 == 1 else -p for p in primes if p != 2)
    discs = [d.value // odd if p == 2 else p if p % 4 == 1 else -p for p in primes]
    rows: list[int] = []
    for i, p in enumerate(primes):
        v = _genus_vector(discs, p)
        _span_insert(rows, v | (v.bit_count() & 1) << i)
    return discs, rows, len(primes) - 1 - len(rows)


def _two_sylow_orders(d: FundamentalDiscriminant, h: int, e: int, pool) -> _Sylow:
    """The 2-Sylow subgroup, 2^e || h, from genus theory and the Redei matrix.

    With r = t - 1 and the 4-rank r4, an e below r + r4, or r4 = 0 with
    e != r, raises ClassNumberAmbiguous.  r4 >= 3 (no field of |D| < 3e5)
    takes the orders of _sylow_structure on pool.  The entry carries no
    forms: p_torsion_basis reads Cl[2] from the ramified prime forms.
    A class's genus vector, its characters at the d_j, is its image in
    Cl/Cl^2, and the Redei rows span the image of Cl[2].  The first r4
    prime forms whose vectors are independent modulo the rows map onto
    Cl/(Cl[2] Cl^2) = (Z/2)^r4; at r4 = 0 the first with a nonzero vector
    is outside Cl^2.  Each is projected to x = f^(h / 2^e) and squared to
    its chain (_two_chain), whose length n gives its order 2^n:
    - r4 <= 1: the one x has an odd coordinate in the largest cyclic
      factor, so the orders are (2,)*(r - 1) + (2^n,);
    - r4 = 2: the larger x, of order 2^k, has an odd coordinate in a factor
      of the largest order, so it spans a direct summand; modulo it the
      other has an odd coordinate in the one remaining factor of order at
      least 4, and its order 2^a modulo <x> is that factor's.  The orders
      are (2,)*(r - 2) + (2^a, 2^k).
    The orders must multiply to 2^e, and at r4 = 2 each x must have order
    at least 4 and a >= 2; anything else, or the primes below 2^16 running
    out first, raises ClassNumberAmbiguous.  So for r4 <= 2 this checks the
    2-part of h completely; a projection that keeps an odd part raises too.
    """
    D = d.value
    discs, rows, r4 = _redei(d)
    r = genus_two_rank(d)
    if e < r + r4 or (r4 == 0 and e != r):
        raise ClassNumberAmbiguous(
            f"2^{e} || h does not fit 2-rank {r} and 4-rank {r4} of Cl({D})"
        )
    if r4 > 2:
        return _sylow_structure(D, h, 2, e, pool)[0], None
    one, span, chains = principal_form(D), list(rows) if r4 else [], []
    for q in small_primes():
        # for q not dividing D, (D/q) is the product of the (d_j/q)
        if kronecker(D, q) != 1 or not _span_insert(span, _genus_vector(discs, q)):
            continue  # q is not split, or the vector of its forms is in the span
        chains.append(_two_chain(power(prime_form(D, q), h >> e), one, e))
        if len(chains) == max(r4, 1):
            break
    else:
        raise ClassNumberAmbiguous(f"primes exhausted before the 2-orders of Cl({D})")
    chains.sort(key=len)
    if r4 == 2:
        low, top = chains
        if len(low) < 2:
            raise ClassNumberAmbiguous(f"a projected prime form has order below 4 in Cl({D})")
        # x / top^(2^(k - m)), with 2^m the order of x, shares its coset and its
        # top; the product has a lower order, until the tops differ
        while low and low[-1] == top[-1]:
            a, b, c = top[len(top) - len(low)]
            low = _two_chain(_reduced_product(low[0], (a, -b, c)), one, len(low) - 1)
        if len(low) < 2:
            raise ClassNumberAmbiguous(f"2-orders of Cl({D}) do not fit 4-rank 2")
        chains[0] = low
    if r - len(chains) + sum(map(len, chains)) != e:
        raise ClassNumberAmbiguous(f"projected prime forms do not fill 2^{e} in Cl({D})")
    return (2,) * (r - len(chains)) + tuple(1 << len(c) for c in chains), None


def _q_torsion(x: QuadForm, q: int, o: int, one: QuadForm) -> QuadForm | None:
    """y = x^(o/q) if y != 1 and y^q = 1, so x has exact order o (a power of q); else None.

    x is reduced, so at o = q, y is x itself.
    """
    y = x if o == q else power(x, o // q)
    return y if y != one and power(y, q) == one else None


def _sylow_structure(D: int, h: int, q: int, e: int, pool) -> _Sylow:
    """Orders and q-torsion forms of the q-Sylow subgroup, q^e || h, for any prime q.

    The 2-part takes it at 4-rank 3 or more; every other 2-part is
    _two_sylow_orders.  Walks the candidate pool, projecting each class into
    the Sylow subgroup.  At odd q a reduced candidate with b = 0, b = a or
    a = c is skipped before its power is asked for: it is ambiguous, of
    order 1 or 2, and _sylow_parts has checked that h is even wherever such
    a class is not principal, so its projection is the identity, which the
    walk discards anyway.  q = 2 keeps every candidate: its walk needs the
    classes of order 2.  When the first projection x that is not the
    identity has exact order q^e (_q_torsion), the subgroup is cyclic and
    generated by x, returned as x^(q^(e-1)) without listing its q^e
    elements.  Otherwise an explicit element table is grown with one
    relation per generator; the generator that fills q^e adds its relation
    and the size of the group, not its table (_adjoin), which nothing would
    read.  The relation matrix is diagonalized, and each basis form of its
    Smith normal form that fails _q_torsion raises InvariantViolation.  The
    shortcut's test is x's only one, and needs both halves: with
    x^(q^(e-1)) != 1 alone, a wrong h could pass unseen, where the walk
    raises ClassNumberAmbiguous.
    """
    one = principal_form(D)
    target = q**e
    cofactor = h // target
    sub: _Table | None = {one: ()}
    size = 1  # |sub|, also once the last generator leaves no table
    gens: list[QuadForm] = []
    relations: list[list[int]] = []
    for cand in pool:
        if size >= target:
            break
        a, b, c = cand
        if q != 2 and (b == 0 or b == a or a == c):
            continue  # ambiguous, of order 1 or 2: its projection is the identity
        if (x := power(cand, cofactor)) in sub:
            continue
        if not gens and (y := _q_torsion(x, q, target, one)) is not None:
            return (target,), (y,)
        k, vec, sub = _adjoin(sub, x, target)
        size *= k
        # x^k = prod g_i^{v_i} becomes the relation row (-v_1, ..., -v_m, k)
        relations = [row + [0] for row in relations]
        relations.append([-v for v in vec] + [k])
        gens.append(x)
    if size != target:
        raise ClassNumberAmbiguous(
            f"prime-form pool exhausted before generating the {q}-part of Cl({D})"
        )
    # relations are lower triangular with the relative orders on the diagonal
    diag, w = smith_normal_form(relations)
    orders, torsion = [], []
    for j, dj in enumerate(diag):
        if dj > 1:
            orders.append(dj)
            terms = [power(gi, w[i][j]) for i, gi in enumerate(gens) if w[i][j]]
            b = functools.reduce(compose, terms)
            if (y := _q_torsion(b, q, dj, one)) is None:
                raise InvariantViolation(f"{b} does not have exact order {dj}")
            torsion.append(y)
    return tuple(orders), tuple(torsion)


def _check_structure(cg: ClassGroupStructure) -> None:
    """The shape of the group: the Sylow orders multiply to h, the invariant factors divide.

    Each basis form's exact order is tested once, by _sylow_structure, which builds it.
    """
    if math.prod(math.prod(orders) for orders, _ in cg.sylow.values()) != cg.h:
        raise InvariantViolation(f"Sylow orders do not multiply to h = {cg.h}")
    factors = cg.invariant_factors
    if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
        raise InvariantViolation(f"invariant factors {factors} are not a divisibility chain")


def class_number(D: int) -> int:
    """Class number of the fundamental discriminant D < 0, by counting reduced forms.

    Those with first coefficient a are the roots b in (-a, a] of b^2 = D (mod
    4a) with c = (b^2 - D)/4a >= a, and b >= 0 if c = a.  While 4a^2 < |D|
    every root counts, and the root count N(a) is multiplicative: N(q^k) =
    1 + chi_D(q) for q not dividing D, else N(q) = 1 and N(q^k) = 0 (k >= 2).
    The tail builds its roots by CRT.  |D| > CLASS_NUMBER_LIMIT is refused.
    """
    if D < -CLASS_NUMBER_LIMIT:
        raise ValueError(f"|D| = {-D} exceeds the class-number limit {CLASS_NUMBER_LIMIT}")
    validate(D)
    n, amax = -D, math.isqrt(-D // 3)
    spf = np.zeros(amax + 1, dtype=np.int64)  # smallest prime factor
    for q in range(2, math.isqrt(amax) + 1):
        if spf[q] == 0:
            multiples = spf[q * q :: q]
            multiples[multiples == 0] = q
    primes = np.nonzero(spf == 0)[0][2:]
    spf[primes] = primes
    roots = np.ones(amax + 1, dtype=np.int32)  # N(a)
    for q in primes.tolist():
        # chi_D(q) by Euler's criterion: 1 split, 0 ramified, else inert
        chi = pow(D, (q - 1) // 2, q) if q > 2 else kronecker(D, 2)
        if chi == 1:
            roots[q::q] *= 2
        elif chi == 0:
            roots[q * q :: q * q] = 0
        else:
            roots[q::q] = 0
    head = math.isqrt((n - 1) // 4)  # the largest a with 4a^2 < |D|
    h = int(roots[1 : head + 1].sum(dtype=np.int64))
    tail = (np.nonzero(roots[head + 1 :])[0] + head + 1).tolist()
    spf = spf.tolist()
    odd_roots: dict[int, list[int]] = {}
    for a in tail:
        # roots b mod 2^(e+1) of b^2 = D (mod 2^(e+2)) for 2^e || a by a scan,
        # 2^e steps but about 10 per a over the whole tail; then CRT
        e = (a & -a).bit_length() - 1
        mod = 2 << e
        res = [b for b in range(D % 2, mod, 2) if (b * b - D) % (2 * mod) == 0]
        m = a >> e
        while m > 1:
            q, qk, k = spf[m], 1, 0
            while m % q == 0:
                m, qk, k = m // q, qk * q, k + 1
            if qk not in odd_roots:
                s = 0 if D % q == 0 else sqrt_mod_prime_power(D % qk, q, k)
                odd_roots[qk] = [s, qk - s] if s else [0]
            inv = pow(mod, -1, qk)
            res = [x + mod * ((y - x) * inv % qk) for x in res for y in odd_roots[qk]]
            mod *= qk
        floor = 4 * a * a - n  # c >= a means b^2 >= floor
        for b in res:
            b = b - 2 * a if b > a else b
            h += b * b > floor or (b * b == floor and b >= 0)
    return h


# perfbench/tracer.py counts the route to h under this name
class_number_bsgs = class_number


def _sylow_parts(d: FundamentalDiscriminant, h: int) -> list[tuple[int, int]]:
    """(q, e) for each prime power q^e || h, ascending, once h passes genus parity.

    The 2-rank of Cl(D) is t - 1 for the t primes of D, so h is even exactly
    when t >= 2: an even h at t = 1 raises InvariantViolation and an odd h
    at t >= 2 ClassNumberAmbiguous, before any power.
    """
    D, t = d.value, d.num_prime_divisors
    if t == 1 and h % 2 == 0:
        raise InvariantViolation(f"genus parity violated: prime discriminant {D} with even h={h}")
    if t > 1 and h % 2:
        raise ClassNumberAmbiguous(f"odd h={h} does not fit 2-rank {t - 1}")
    return factorize(h)


def _sylow_step(d: FundamentalDiscriminant, h: int, q: int, e: int) -> _Sylow:
    """The entry sylow[q], q^e || h, on a _prime_form_pool of its own: the parts share no state."""
    pool = _prime_form_pool(d.value)
    return _two_sylow_orders(d, h, e, pool) if q == 2 else _sylow_structure(d.value, h, q, e, pool)


def _assemble(D: int, h: int, sylow: dict[int, _Sylow]) -> ClassGroupStructure:
    """The ClassGroupStructure of h and its Sylow entries, checked by _check_structure.

    The scalar route: class_group's assembly, and class_groups' for every
    field that its bulk pass does not take, so also the oracle of that pass.
    """
    rank = max((len(orders) for orders, _ in sylow.values()), default=0)
    # align largest q-power factors with the largest invariant factor
    padded = [(1,) * (rank - len(orders)) + orders for orders, _ in sylow.values()]
    cg = ClassGroupStructure(h, tuple(map(math.prod, zip(*padded))), sylow, D)
    _check_structure(cg)
    return cg


def class_group(d: FundamentalDiscriminant, *, known_h: int | None = None) -> ClassGroupStructure:
    """Invariant factors, Sylow orders and odd q-torsion forms of the class group.

    h is the exact count of class_number, or known_h.  known_h must be the
    exact class number, which the caller vouches for (the survey passes its
    sieve's count of reduced forms); it is not proven.  A wrong known_h
    raises ClassNumberAmbiguous where it shows: a q-part the prime forms of
    _prime_form_pool cannot fill, a 2-part that contradicts the genus
    and Redei ranks, or projected prime forms whose 2-orders do not
    multiply to the 2-part of h.  Wherever the 4-rank is at most 2, a wrong
    2-part always raises, and so does an odd h for a D of two or more
    primes; an odd q-part that is too small can pass unseen, and so can a
    2-part that is too small at 4-rank 3 or more.  Odd Sylow subgroups come
    from the prime forms that are not ambiguous (_sylow_structure), the
    2-orders from _two_sylow_orders.
    With the exact h the same raise marks a pool that falls short, which can
    happen only past |D| = 3 * 65521^2 (_prime_form_pool), never a wrong group.
    Its parts run in ascending q, each on the scalar power: the oracle of
    class_groups.
    """
    h = class_number(d.value) if known_h is None else known_h
    return _assemble(d.value, h, {q: _sylow_step(d, h, q, e) for q, e in _sylow_parts(d, h)})


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


def two_torsion_basis(D: int, rank: int) -> list[QuadForm]:
    """Forms of order 2 spanning Cl(D)[2], of 2-rank rank: ramified prime forms.

    They generate Cl[2] for D < 0 (genus theory; H. Cohen, GTM 138, 5.6).
    Each reduced one outside the span of those kept, in ascending prime
    order, is kept.  A kept form whose square is not 1, or a count other
    than rank, raises InvariantViolation.
    """
    one = principal_form(D)
    basis, span = [], {one}
    for q, _ in factorize(-D):
        f = reduce_form(prime_form(D, q))
        if f in span:
            continue
        if compose(f, f) != one:
            raise InvariantViolation(f"ramified prime form {f} does not have order 2")
        basis.append(f)
        span |= {compose(f, g) for g in span}
    if len(basis) != rank:
        raise InvariantViolation(f"ramified prime forms span 2-rank {len(basis)}, not {rank}")
    return basis


def p_torsion_basis(cg: ClassGroupStructure, p: int) -> list[QuadForm]:
    """Forms of order p spanning Cl[p]: class_group's at odd p, two_torsion_basis at 2."""
    if cg.h % p != 0:
        raise ValueError(f"{p} does not divide h = {cg.h}")
    orders, torsion = cg.sylow[p]
    if len(orders) >= 3:
        raise RankOverflow(f"p-rank {len(orders)} at p={p} for D={cg.discriminant}")
    return two_torsion_basis(cg.discriminant, len(orders)) if p == 2 else list(torsion)


def coprime_representative(f: QuadForm, p: int) -> QuadForm:
    """An equivalent form whose leading coefficient is coprime to p.

    One of a = f(1,0), c = f(0,1), a + b + c = f(1,1) is coprime to p for a
    primitive form: if p divides a and c, then f(1,1) = b mod p, and p does
    not divide b.  The determinant-one substitutions sending (1,0) to (0,1)
    and to (1,1) give the forms (c, -b, a) and (a + b + c, -2a - b, a) of
    the same class.
    """
    if not f.is_primitive():
        raise ValueError(f"{f} is not primitive")
    a, b, c = f
    for out in (f, QuadForm(c, -b, a), QuadForm(a + b + c, -2 * a - b, a)):
        if math.gcd(out.a, p) == 1:
            break
    else:
        raise InvariantViolation(f"no coprime value found for {f} at {p}")
    if out.disc != f.disc:
        raise InvariantViolation(f"{out} is not equivalent to {f}")
    return out
