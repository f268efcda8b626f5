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
oracle, which classify, verify and the fields a survey block's lanes hand
on whole take; sylow_subgroup runs only the p-part, the route of all three
tables.  lanes.class_groups, the route of a survey block, runs the Sylow
parts of many fields side by side as int64 array lanes instead.
"""

import functools
import math
from typing import Iterator, NamedTuple

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


class ClassGroupStructure(NamedTuple):
    """Invariant factors and, for each prime q | h, the q-Sylow subgroup.

    h is the group's order: the class number for class_group, and p^e for
    sylow_subgroup, whose one entry is the p-Sylow subgroup.
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


def sylow_subgroup(d: FundamentalDiscriminant, h: int, p: int) -> ClassGroupStructure:
    """The p-Sylow subgroup of Cl(D), for a prime p | h, as a group of order p^e || h.

    h is the exact class number, which the caller vouches for, as known_h
    of class_group.  Its genus parity is checked before any power
    (_sylow_parts), and the p-part raises as class_group's does: a p-part
    larger than the true one raises ClassNumberAmbiguous.  The other parts
    are never walked, so a wrong h that only they would show passes here;
    the tables pass the sieve's exact count.  The entry sylow[p] is
    class_group(d, known_h=h).sylow[p], since each part runs on its own pool
    (_sylow_step); h of the result is p^e, what p_torsion_basis reads.
    """
    e = dict(_sylow_parts(d, h)).get(p)
    if e is None:
        raise ValueError(f"{p} does not divide h = {h}")
    return _assemble(d.value, p**e, {p: _sylow_step(d, h, p, e)})


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
    """Forms of order p spanning Cl[p]: class_group's at odd p, two_torsion_basis at 2.

    It reads only h, sylow[p] and the discriminant of cg, so cg may be the
    p-part alone (sylow_subgroup).
    """
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
