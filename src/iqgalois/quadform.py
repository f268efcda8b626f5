"""Binary quadratic form arithmetic and class group structure.

Forms (a, b, c) are positive definite and primitive with b^2 - 4ac = D < 0,
stored as named int tuples; the reduced representative (|b| <= a <= c,
b >= 0 on the boundary) is the canonical identifier of an ideal class.  The
class number comes from exhaustive reduced-form enumeration (the oracle,
for small |D|), from a caller that already knows it, or from growing the
subgroup generated by prime forms until its order is pinned by the analytic
estimate (for large |D|).  A q-Sylow subgroup whose first projected prime
form has exact order q^e is cyclic with that form as its basis; any other
is grown as an explicit table of classes with the same walk, and its Smith
normal form gives the invariant factors and the p-torsion bases.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .arith import InvariantViolation
from .arith import factorize, kronecker, small_primes, smith_normal_form, sqrt_mod_prime, xgcd
from .discriminant import FundamentalDiscriminant


class DiscriminantMismatch(ValueError):
    """Raised when composing forms of different discriminants."""


class RankOverflow(ValueError):
    """Raised when a p-torsion basis would need three or more generators."""


class ClassNumberAmbiguous(RuntimeError):
    """Prime forms did not fill a group of the estimated or the given class number."""


class QuadForm(NamedTuple):
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

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


def reduce_form(f: QuadForm) -> QuadForm:
    """The unique reduced form properly equivalent to f, any (a, b, c) triple."""
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
    return QuadForm(a, b, c)


def inverse(f: QuadForm) -> QuadForm:
    return reduce_form((f.a, -f.b, f.c))


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Dirichlet composition, returned reduced."""
    a1, b1, c1 = f
    a2, b2, c2 = g
    D = b1 * b1 - 4 * a1 * c1
    if D != b2 * b2 - 4 * a2 * c2:
        raise DiscriminantMismatch(f"{f} and {g} have different discriminants")
    s = (b1 + b2) // 2
    g0, u, v = xgcd(a1, a2)
    d1, w0, t = xgcd(g0, s)
    # d1 = w0*u*a1 + w0*v*a2 + t*s
    a3 = a1 * a2 // (d1 * d1)
    # congruence solution for the middle coefficient
    b3 = (b2 + 2 * (a2 // d1) * ((w0 * v) * ((b1 - b2) // 2) - t * c2)) % (2 * a3)
    c3 = (b3 * b3 - D) // (4 * a3)
    return reduce_form((a3, b3, c3))


def power(f: QuadForm, n: int) -> QuadForm:
    """n-th composition power of the class of f (n may be negative).

    Square-and-multiply from the top set bit of |n| down: no step composes
    with the identity and none squares past the last bit, so n > 0 costs
    bit_length(n) - 1 squarings and popcount(n) - 1 products.  f is reduced
    first, so an invalid f raises ValueError also for n = 0.
    """
    if n < 0:
        f, n = inverse(f), -n
    base = reduce_form(f)
    if n == 0:
        return principal_form(base.disc)
    result = base
    for bit in bin(n)[3:]:
        result = compose(result, result)
        if bit == "1":
            result = compose(result, base)
    return result


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
    for q in small_primes():
        f = prime_form(D, q)
        if f is not None:
            yield reduce_form(f)


_Table = dict[QuadForm, tuple[int, ...]]
_Sylow = tuple[tuple[int, ...], tuple[QuadForm, ...]]


@dataclass(frozen=True)
class ClassGroupStructure:
    """Invariant factors and, for each prime q | h, the q-Sylow subgroup.

    sylow[q] = (orders, basis): the ascending orders of its Smith normal form
    and forms of exactly those orders that generate it.
    """

    h: int
    invariant_factors: tuple[int, ...]
    sylow: dict[int, _Sylow]
    discriminant: int

    def p_rank(self, p: int) -> int:
        return len(self.sylow[p][0]) if p in self.sylow else 0


def _adjoin(sub: _Table, x: QuadForm, limit: int) -> tuple[int, tuple[int, ...], _Table]:
    """Grow the explicit subgroup table sub by the class of x.

    sub maps every class of a subgroup H to its exponent vector over the
    generators adjoined so far.  Walks x, x^2, ... up to the first power
    x^k in H, so k is the order of x modulo H.  Returns k, the vector of
    x^k and the table of <H, x>, whose vectors end in the exponent of x.
    Raises ClassNumberAmbiguous once k would exceed limit.
    """
    powers = [x]
    while powers[-1] not in sub:
        if len(powers) >= limit:
            raise ClassNumberAmbiguous(f"relative order of {x} exceeds {limit}")
        powers.append(compose(powers[-1], x))
    one = principal_form(x.disc)
    grown = {elt: vec + (0,) for elt, vec in sub.items()}
    for i, xi in enumerate(powers[:-1], 1):
        for elt, vec in sub.items():
            grown[xi if elt == one else compose(elt, xi)] = vec + (i,)
    return len(powers), sub[powers[-1]], grown


def _sylow_structure(D: int, h: int, q: int, e: int, pool) -> _Sylow:
    """Orders and basis of the q-Sylow subgroup, q^e || h.

    Walks the candidate pool, projecting each class into the Sylow subgroup.
    When the first projection x that is not the identity has exact order
    q^e (x^(q^(e-1)) is not the identity but its q-th power is), the
    subgroup is cyclic and generated by x: that is the walk's own result
    for x, returned without listing its q^e elements.  Otherwise an explicit
    element table is grown with one relation per generator, and the
    relation matrix is then diagonalized.  The shortcut needs both halves
    of the exact-order test: with x^(q^(e-1)) != 1 alone, a wrong h would
    pass here and fail later as InvariantViolation, where the walk raises
    ClassNumberAmbiguous.
    """
    one = principal_form(D)
    target = q**e
    cofactor = h // target
    sub: _Table = {one: ()}
    gens: list[QuadForm] = []
    relations: list[list[int]] = []
    for cand in pool:
        if len(sub) >= target:
            break
        x = power(cand, cofactor)
        if x in sub:
            continue
        if not gens:
            y = power(x, target // q)
            if y != one and power(y, q) == one:
                return (target,), (x,)
        k, vec, sub = _adjoin(sub, x, target)
        # x^k = prod g_i^{v_i} becomes the relation row (-v_1, ..., -v_m, k)
        relations = [row + [0] for row in relations]
        relations.append([-v for v in vec] + [k])
        gens.append(x)
    if len(sub) != target:
        raise ClassNumberAmbiguous(
            f"prime-form pool exhausted before generating the {q}-part of Cl({D})"
        )
    # relations are lower triangular with the relative orders on the diagonal
    diag, w = smith_normal_form(relations)
    orders, basis = [], []
    for j, dj in enumerate(diag):
        if dj > 1:
            orders.append(dj)
            terms = [power(gi, w[i][j]) for i, gi in enumerate(gens) if w[i][j]]
            basis.append(functools.reduce(compose, terms))
    return tuple(orders), tuple(basis)


def _assemble_structure(D: int, h: int, pool) -> ClassGroupStructure:
    if h == 1:
        return ClassGroupStructure(1, (), {}, D)
    primes = factorize(h)
    sylow = {
        q: _sylow_structure(D, h, q, e, view)
        for (q, e), view in zip(primes, itertools.tee(pool, len(primes)))
    }
    rank = max(len(orders) for orders, _ in sylow.values())
    # align largest q-power factors with the largest invariant factor
    padded = [(1,) * (rank - len(orders)) + orders for orders, _ in sylow.values()]
    cg = ClassGroupStructure(h, tuple(map(math.prod, zip(*padded))), sylow, D)
    _check_structure(cg)
    return cg


def _check_structure(cg: ClassGroupStructure) -> None:
    """Exact order of every Sylow basis form, and the shape of the group."""
    one = principal_form(cg.discriminant)
    prod = 1
    for q, (orders, basis) in cg.sylow.items():
        for o, b in zip(orders, basis):
            prod *= o
            if power(b, o) != one or power(b, o // q) == one:
                raise InvariantViolation(f"{b} does not have exact order {o}")
    if prod != cg.h:
        raise InvariantViolation(f"Sylow orders do not multiply to h = {cg.h}")
    factors = cg.invariant_factors
    if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
        raise InvariantViolation(f"invariant factors {factors} are not a divisibility chain")


def _analytic_class_number(D: int, terms: int) -> float:
    # truncated Euler product for sqrt(|D|)/pi * L(1, chi_D)
    log_l = 0.0
    for q in small_primes()[:terms]:
        chi = kronecker(D, q)
        if chi:
            log_l -= math.log1p(-chi / q)
    return math.sqrt(-D) / math.pi * math.exp(log_l)


def class_number_bsgs(D: int) -> int:
    """Class number as the order of the subgroup that prime forms generate.

    Prime forms are adjoined until the order lies in the window of the
    truncated Euler product, which is heuristic, and a dozen more fall inside
    the subgroup.  The enumeration backend stays the unconditional oracle.
    """
    if D >= -64:
        return len(enumerate_reduced_forms(D))
    for terms in (1800, 6000, len(small_primes())):
        hstar = _analytic_class_number(D, terms)
        try:
            h = _bsgs_pin(D, hstar)
        except ClassNumberAmbiguous:
            continue
        if h is not None:
            return h
    raise ClassNumberAmbiguous(f"cannot pin the class number of {D}")


def _bsgs_pin(D: int, hstar: float) -> int | None:
    sub: _Table = {principal_form(D): ()}
    bound = int(1.6 * hstar) + 16
    confirmations = 0
    for cand in _prime_form_pool(D):
        if cand in sub:
            # inside the window every further prime form must already lie in
            # the subgroup; a dozen confirmations guard the heuristic pin
            if 0.8 * hstar < len(sub) < 1.25 * hstar:
                confirmations += 1
                if confirmations >= 12:
                    return len(sub)
            continue
        confirmations = 0
        _, _, sub = _adjoin(sub, cand, bound)
        if len(sub) >= 1.25 * hstar:
            raise ClassNumberAmbiguous("subgroup outgrew the analytic window")
    if 0.8 * hstar < len(sub) < 1.25 * hstar:
        return len(sub)
    return None


def class_group(
    d: FundamentalDiscriminant, backend: str = "auto", known_h: int | None = None
) -> ClassGroupStructure:
    """Invariant factors and Sylow bases of the class group.

    backend 'enumerate' counts reduced forms (exact, quadratic in sqrt|D|),
    'bsgs' grows the subgroup of prime forms against the analytic estimate,
    'auto' picks by size.  A caller who already knows h (e.g. from a bulk
    survey sieve) can pass it to skip recomputation.
    """
    D = d.value
    if backend == "auto":
        backend = "enumerate" if -D <= 200_000 else "bsgs"
    if known_h is not None:
        h = known_h
        pool = _prime_form_pool(D)
    elif backend == "enumerate":
        forms = enumerate_reduced_forms(D)
        h = len(forms)
        pool = iter(forms)
    elif backend == "bsgs":
        h = class_number_bsgs(D)
        pool = _prime_form_pool(D)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if d.num_prime_divisors == 1 and h % 2 == 0:
        raise InvariantViolation(f"genus parity violated: prime discriminant {D} with even h={h}")
    return _assemble_structure(D, h, pool)


def p_torsion_basis(cg: ClassGroupStructure, p: int) -> list[QuadForm]:
    """Forms of exact order p spanning the p-torsion of the class group."""
    if cg.h % p != 0:
        raise ValueError(f"{p} does not divide h = {cg.h}")
    orders, basis = cg.sylow[p]
    if len(basis) >= 3:
        raise RankOverflow(f"p-rank {len(basis)} at p={p} for D={cg.discriminant}")
    return [power(b, o // p) for o, b in zip(orders, basis)]


def coprime_representative(f: QuadForm, p: int) -> QuadForm:
    """An equivalent form whose leading coefficient is coprime to p.

    One of (1,0), (0,1), (1,1) always evaluates coprime to p for a
    primitive form; the unimodular change of variables sending (1,0) there
    preserves the class.
    """
    if not f.is_primitive():
        raise ValueError(f"{f} is not primitive")
    for x, y in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)):
        if math.gcd(f.value(x, y), p) == 1:
            break
    else:
        raise InvariantViolation(f"no coprime value found for {f} at {p}")
    if (x, y) == (1, 0):
        return f
    # complete (x, y) to a determinant-one matrix [[x, u], [y, w]]
    _, w, t = xgcd(x, y)
    u = -t
    a2 = f.value(x, y)
    b2 = 2 * (f.a * x * u + f.c * y * w) + f.b * (x * w + y * u)
    c2 = f.value(u, w)
    out = QuadForm(a2, b2, c2)
    if out.disc != f.disc:
        raise InvariantViolation(f"{out} is not equivalent to {f}")
    return out
