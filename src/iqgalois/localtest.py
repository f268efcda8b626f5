"""Local unit computations deciding injectivity of the splitting obstruction map.

For each prime p dividing the class number, a p-torsion ideal class maps to
the class of a generator of its p-th power inside O_p^* / T_p (O_p^*)^p, a
two-dimensional F_p-vector space.  Working modulo p^2 for odd p (modulo 8
for p = 2) loses nothing: one-units at depth beyond the stored precision
are already p-th powers, so membership in the finite quotient ring decides
membership in the full local group.  The entry points take that image, a
ring element, as idealgen.torsion_power_generator returns it for +-alpha:
at odd p, -1 = (-1)^p is a p-th power, so the sign moves no class.

Closed coordinate forms cover the three splitting types at odd p when the
local torsion T_p is trivial.  A brute-force subgroup engine over the
finite quotient ring is an independent oracle for p <= 23, and the
production path for every context with local p-power torsion: p = 2, and
p = 3 ramified with a local cube root of unity.  lanes._injective_lanes
runs the closed forms and injectivity_test for a survey block;
build_context, local_unit_image and injectivity_test stay the oracle and
the route of everything else.
"""

from functools import lru_cache
from typing import NamedTuple

from .arith import InvariantViolation, sqrt_mod_2k, sqrt_mod_prime_power, square_and_multiply
from .discriminant import INERT, RAMIFIED, SPLIT, FundamentalDiscriminant, kronecker_at
from .idealgen import _ring_mul, explicit_power_generator
from .quadform import two_torsion_basis


class NotLocalUnit(InvariantViolation):
    """The element is not a unit above p: an upstream coprimality bug."""


class GroupTooLarge(ValueError):
    """The enumerative engine is capped at p <= 23."""


Elt = tuple[int, int]


class LocalRing(NamedTuple):
    """(Z/mod)[s] with s^2 = par ('sqrt' kind) or s^2 = s - par ('omega' kind).

    For odd p this is the ring of integers modulo p^2 in the basis {1, sqrt D};
    at p = 2 the integral basis {1, (1+sqrt D)/2} (odd D) or {1, sqrt(D/4)}
    (even D) is needed because 2 is not invertible.
    """

    kind: str
    mod: int
    par: int
    p: int

    @property
    def one(self) -> Elt:
        return (1, 0)

    @property
    def minus_one(self) -> Elt:
        return (self.mod - 1, 0)

    def mul(self, x: Elt, y: Elt) -> Elt:
        m = self.mod
        if self.kind == "sqrt":
            return _ring_mul(x, y, m, self.par)
        cross = x[0] * y[1] + x[1] * y[0] + x[1] * y[1]
        return ((x[0] * y[0] - self.par * x[1] * y[1]) % m, cross % m)

    def pow(self, x: Elt, e: int) -> Elt:
        """x^e for e >= 0, by arith.square_and_multiply with mul."""
        return square_and_multiply(x, e, self.mul) if e else self.one

    def norm(self, x: Elt) -> int:
        if self.kind == "sqrt":
            return (x[0] * x[0] - self.par * x[1] * x[1]) % self.mod
        return (x[0] * x[0] + x[0] * x[1] + self.par * x[1] * x[1]) % self.mod

    def is_unit(self, x: Elt) -> bool:
        return self.norm(x) % self.p != 0

    def inv(self, x: Elt) -> Elt:
        n = pow(self.norm(x), -1, self.mod)
        if self.kind == "sqrt":
            return (x[0] * n % self.mod, -x[1] * n % self.mod)
        # conjugate of x + y*omega is (x + y) - y*omega
        return ((x[0] + x[1]) * n % self.mod, -x[1] * n % self.mod)

    def units(self) -> list[Elt]:
        m = self.mod
        return [(x, y) for x in range(m) for y in range(m) if self.is_unit((x, y))]

    def embed(self, u: int, v: int) -> Elt:
        """Image of the integer (u + v*sqrt(D))/2 in the quotient ring."""
        m = self.mod
        if self.p != 2:
            half = (m + 1) // 2  # the inverse of 2 modulo the odd p^2
            return (u * half % m, v * half % m)
        if self.kind == "omega":
            # sqrt(D) = 2*omega - 1, so alpha = (u - v)/2 + v*omega
            return (((u - v) // 2) % m, v % m)
        return ((u // 2) % m, v % m)


class LocalContext(NamedTuple):
    """The quotient ring at p and what the local test needs of the completion.

    root is a square root of D in the ring when p splits.  torsion holds
    generators of the local p-power torsion T_p: -1, and i or the split
    (1, -1) where present, at p = 2; a cube root of unity at p = 3 ramified
    when the completion has one; nothing otherwise.
    """

    p: int
    splitting: str
    disc: int
    ring: LocalRing
    root: int | None = None
    torsion: tuple[Elt, ...] = ()


class PhiImage(NamedTuple):
    """Class of a local unit in the rank-two quotient.

    coords are F_p coordinates when a closed form produced them; the
    enumerative engine yields only the authoritative triviality bit, plus
    the ring element so that rank-two independence can still be decided.
    """

    trivial: bool
    coords: tuple[int, int] | None = None
    elt: Elt | None = None


def build_context(d: FundamentalDiscriminant, p: int) -> LocalContext:
    """Quotient ring, Hensel root and local p-power torsion at any prime p.

    The ring is O/p^2 at odd p and O/8 at p = 2.
    """
    if p == 2:
        return _build_context_two(d)
    D = d.value
    m = p * p
    splitting = kronecker_at(d, p)
    ring = LocalRing("sqrt", m, D % m, p)
    root = None
    torsion: tuple[Elt, ...] = ()
    if splitting == SPLIT:
        root = sqrt_mod_prime_power(D % m, p, 2)
        if root is None or (root * root - D) % m:
            raise InvariantViolation(f"no Hensel square root of {D} mod {m}")
    elif splitting == RAMIFIED and p == 3:
        quo = D // -3
        if quo % 3 == 1:
            # the completion contains a cube root of unity:
            # zeta = (-1 + sqrt(D)/s)/2 with s^2 = D/(-3) mod 9
            s = sqrt_mod_prime_power(quo % 9, 3, 2)
            inv2 = pow(2, -1, 9)
            zeta = (-inv2 % 9, pow(s, -1, 9) * inv2 % 9)
            if ring.pow(zeta, 3) != ring.one or zeta == ring.one:
                raise InvariantViolation(f"{zeta} is not a primitive cube root of 1 mod 9")
            torsion = (zeta,)
    return LocalContext(p, splitting, D, ring, root, torsion)


def _build_context_two(d: FundamentalDiscriminant) -> LocalContext:
    """Precision-8 context at p = 2 with explicit 2-power torsion generators."""
    D = d.value
    splitting = kronecker_at(d, 2)
    if D % 2:
        ring = LocalRing("omega", 8, ((1 - D) // 4) % 8, 2)
    else:
        ring = LocalRing("sqrt", 8, (D // 4) % 8, 2)
    torsion = [ring.minus_one]
    root = None
    if splitting == SPLIT:
        # component-wise (1, -1) torsion: sqrt(D) divided by its 2-adic root
        root = sqrt_mod_2k(D, 5)
        if root is None:
            raise InvariantViolation(f"no 2-adic square root of {D} mod 32")
        sqrt_d = (-1 % 8, 2)  # 2*omega - 1
        torsion.append(ring.mul(sqrt_d, (pow(root, -1, 8), 0)))
    elif splitting == RAMIFIED and (-D // 4) % 8 == 1:
        # the completion is Q_2(i): i = sqrt(D/4) / sqrt(-D/4), and the
        # 2-adic root of -D/4 must be pinned mod 32 to land on the genuine
        # torsion image (the quotient ring has spurious roots of -1)
        r = sqrt_mod_2k(-D // 4, 5)
        if r is None:
            raise InvariantViolation(f"no 2-adic square root of {-D // 4} mod 32")
        quartic = (0, pow(r, -1, 8))
        if ring.mul(quartic, quartic) != ring.minus_one:
            raise InvariantViolation(f"{quartic} is not a square root of -1 mod 8")
        torsion.append(quartic)
    return LocalContext(2, splitting, D, ring, root, tuple(torsion))


def _fermat_quotient(c: int, p: int) -> int:
    m = p * p
    t = pow(c % m, p - 1, m)
    return ((t - 1) // p) % p


def _check_local_unit(ctx: LocalContext, elt: Elt) -> None:
    if not ctx.ring.is_unit(elt):
        raise NotLocalUnit(f"{elt} has norm divisible by {ctx.p}")


def local_unit_image(ctx: LocalContext, elt: Elt) -> PhiImage:
    """Class of alpha in O_p^*/T_p (O_p^*)^p, from elt = (x, y), its image in ctx.ring.

    A context with local p-power torsion goes to the enumerative engine.
    Otherwise the closed forms give coordinates from (x, y):
    split: Fermat quotients of the two CRT components x +- y*root mod p^2.
    inert: beta = alpha^(p^2-1) = 1 + p(x + y s); coordinates (x, y) mod p.
    ramified: alpha^(p-1) expanded along 1+pi, 1+pi^2 with pi = sqrt(D).
    """
    if ctx.torsion:
        return generic_membership(ctx, elt)
    _check_local_unit(ctx, elt)
    p, ring = ctx.p, ctx.ring
    m = p * p
    x, y = elt
    if ctx.splitting == SPLIT:
        c1, c2 = (x + y * ctx.root) % m, (x - y * ctx.root) % m
        coords = (_fermat_quotient(c1, p), _fermat_quotient(c2, p))
    elif ctx.splitting == INERT:
        beta = ring.pow(elt, p * p - 1)
        x, y = beta
        if (x - 1) % p or y % p:
            raise InvariantViolation(f"{elt}^(p^2-1) = {beta} is not 1 mod {p}")
        coords = ((x - 1) // p % p, y // p % p)
    else:
        x, y = ring.pow(elt, p - 1)
        if (x - 1) % p:
            raise InvariantViolation(f"{elt}^(p-1) = {(x, y)} is not 1 mod pi")
        delta = (ctx.disc % m) // p
        c1 = y % p
        c2 = (x - 1) // p * pow(delta, -1, p) % p
        # discrete log against the basis {1 + pi, 1 + pi^2}
        coords = (c1, (c2 - c1 * (c1 - 1) // 2) % p)
    return PhiImage(coords == (0, 0), coords, elt)


@lru_cache(maxsize=None)
def _engine_subgroup(ring: LocalRing, p: int, torsion: tuple[Elt, ...]) -> frozenset:
    """The subgroup T_p * G^p of G = (O/p^k O)^*, fully enumerated.

    Prime-to-p torsion needs no generators: an element of order coprime to
    p is the p-th power of one of its own powers.  Only the context's p-power
    torsion is passed in.
    """
    units = ring.units()
    powers = {ring.pow(u, p) for u in units}
    span = {ring.one}
    for g in torsion:
        orbit = [ring.one]
        x = g
        while x != ring.one:
            orbit.append(x)
            x = ring.mul(x, g)
        span = {ring.mul(s, t) for s in span for t in orbit}
    return frozenset(ring.mul(h, t) for h in powers for t in span)


def subgroup_index(ctx: LocalContext) -> int:
    """Index of T_p * G^p in the full unit group of the quotient ring."""
    h = _engine_subgroup(ctx.ring, ctx.p, ctx.torsion)
    return len(ctx.ring.units()) // len(h)


def generic_membership(ctx: LocalContext, elt: Elt) -> PhiImage:
    """Authoritative triviality verdict for elt, in ctx.ring, by exhaustive subgroup membership."""
    if ctx.p > 23:
        raise GroupTooLarge(f"unit group at p={ctx.p} is too large to enumerate")
    _check_local_unit(ctx, elt)
    h = _engine_subgroup(ctx.ring, ctx.p, ctx.torsion)
    return PhiImage(elt in h, None, elt)


def injectivity_test(ctx: LocalContext, images: list[PhiImage]) -> bool:
    """Injectivity on a 1- or 2-dimensional torsion basis.

    Rank one: the single image must be nontrivial.  Rank two with closed
    coordinates: a 2x2 determinant over F_p.  Without coordinates, the
    second element must avoid the subgroup closure of the first.
    """
    if not 1 <= len(images) <= 2:
        raise ValueError("rank >= 3 must be short-circuited before this test")
    if len(images) == 1:
        return not images[0].trivial
    first, second = images
    if first.trivial or second.trivial:
        return False
    if first.coords is not None and second.coords is not None:
        det = first.coords[0] * second.coords[1] - first.coords[1] * second.coords[0]
        return det % ctx.p != 0
    h = _engine_subgroup(ctx.ring, ctx.p, ctx.torsion)
    x_inv = ctx.ring.inv(first.elt)
    cur = second.elt
    for _ in range(ctx.p):
        if cur in h:
            return False
        cur = ctx.ring.mul(cur, x_inv)
    return True


def two_classification(d: FundamentalDiscriminant, two_rank: int) -> str:
    """Closed-form injectivity at p = 2 from the discriminant's shape.

    With noncyclic 2-part every 2-torsion class is ramified and the image
    sits in a single cyclic group of order 2, so injectivity fails.  With
    cyclic 2-part exactly three discriminant families are injective:
    -p*q with p = 5, q = 3 mod 8; -4p with p = 5 mod 8; -8p with p = +-3
    mod 8.
    """
    if two_rank == 0:
        return "skipped"
    if two_rank >= 2:
        return "noninjective"
    D = d.value
    if D % 2:
        p1, p2 = (q for q, _ in d.prime_factors)
        return "injective" if {p1 % 8, p2 % 8} == {3, 5} else "noninjective"
    if D % 8 == 4:
        return "injective" if (-D // 4) % 8 == 5 else "noninjective"
    return "injective" if (-D // 8) % 8 in (3, 5) else "noninjective"


def two_direct_check(d: FundamentalDiscriminant) -> str:
    """Run the p = 2 test directly in (O/8O)^*: the oracle for the families.

    Takes the order-2 class, a ramified prime form (quadform.two_torsion_basis),
    builds the generator of its square in full, and tests membership
    against the squares times {-1, i where present}.
    """
    if d.num_prime_divisors != 2:
        raise ValueError("direct check needs an even class number with cyclic 2-part")
    (form,) = two_torsion_basis(d.value, 1)
    alpha = explicit_power_generator(form, 2)
    ctx = build_context(d, 2)
    image = generic_membership(ctx, ctx.ring.embed(alpha.u, alpha.v))
    return "noninjective" if image.trivial else "injective"
