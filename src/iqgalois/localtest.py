"""Local unit computations deciding injectivity of the splitting obstruction map.

For each prime p dividing the class number, a p-torsion ideal class maps to
the class of a generator of its p-th power inside O_p^* / T_p (O_p^*)^p, a
two-dimensional F_p-vector space.  Working modulo p^2 for odd p (modulo 8
for p = 2) loses nothing: one-units at depth beyond the stored precision
are already p-th powers, so membership in the finite quotient ring decides
membership in the full local group.

Closed coordinate forms cover the three splitting types at odd p; a
brute-force subgroup engine over the finite quotient ring provides an
independent oracle for p <= 23 and is the production path for the one
genuinely exotic case, p = 3 ramified with a local cube root of unity.
"""

from dataclasses import dataclass
from functools import lru_cache

from .arith import sqrt_mod_2k, sqrt_mod_prime_power
from .discriminant import INERT, RAMIFIED, SPLIT, FundamentalDiscriminant, kronecker_at
from .idealgen import QuadraticInteger, form_to_ideal, ideal_power, principal_generator
from .quadform import compose, coprime_representative, prime_form, principal_form, reduce_form


class NotLocalUnit(ValueError):
    """The element is not a unit above p: an upstream coprimality bug."""


class GroupTooLarge(ValueError):
    """The enumerative engine is capped at p <= 23."""


Elt = tuple[int, int]


@dataclass(frozen=True)
class LocalRing:
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
            return (
                (x[0] * y[0] + x[1] * y[1] * self.par) % m,
                (x[0] * y[1] + x[1] * y[0]) % m,
            )
        cross = x[0] * y[1] + x[1] * y[0] + x[1] * y[1]
        return ((x[0] * y[0] - self.par * x[1] * y[1]) % m, cross % m)

    def pow(self, x: Elt, e: int) -> Elt:
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, x)
            x = self.mul(x, x)
            e >>= 1
        return result

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

    def embed(self, alpha: QuadraticInteger) -> Elt:
        """Image of (u + v*sqrt(D))/2 in the quotient ring."""
        u, v, m = alpha.u, alpha.v, self.mod
        if self.p != 2:
            inv2 = pow(2, -1, m)
            return (u * inv2 % m, v * inv2 % m)
        if self.kind == "omega":
            # sqrt(D) = 2*omega - 1, so alpha = (u - v)/2 + v*omega
            return (((u - v) // 2) % m, v % m)
        return ((u // 2) % m, v % m)


@dataclass(frozen=True)
class LocalContext:
    p: int
    splitting: str
    disc: int
    ring: LocalRing
    root: int | None = None
    local_zeta: Elt | None = None
    torsion: tuple[Elt, ...] = ()


@dataclass(frozen=True)
class PhiImage:
    """Class of a local unit in the rank-two quotient.

    coords are F_p coordinates when a closed form produced them; the
    enumerative engine yields only the authoritative triviality bit, plus
    the ring element so that rank-two independence can still be decided.
    """

    trivial: bool
    coords: tuple[int, int] | None = None
    elt: Elt | None = None


def build_context(d: FundamentalDiscriminant, p: int) -> LocalContext:
    """Precompute Hensel data for the quotient ring at an odd prime."""
    if p == 2:
        return _build_context_two(d)
    D = d.value
    m = p * p
    splitting = kronecker_at(d, p)
    ring = LocalRing("sqrt", m, D % m, p)
    root = None
    zeta = None
    torsion: tuple[Elt, ...] = ()
    if splitting == SPLIT:
        root = sqrt_mod_prime_power(D % m, p, 2)
        assert root is not None and (root * root - D) % m == 0
    elif splitting == RAMIFIED and p == 3 and D != -3:
        quo = D // -3
        if quo % 3 == 1:
            # the completion contains a cube root of unity:
            # zeta = (-1 + sqrt(D)/s)/2 with s^2 = D/(-3) mod 9
            s = sqrt_mod_prime_power(quo % 9, 3, 2)
            inv2 = pow(2, -1, 9)
            zeta = (-inv2 % 9, pow(s, -1, 9) * inv2 % 9)
            assert ring.pow(zeta, 3) == ring.one and zeta != ring.one
            torsion = (zeta,)
    return LocalContext(p, splitting, D, ring, root, zeta, torsion)


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
        assert root is not None
        sqrt_d = (-1 % 8, 2)  # 2*omega - 1
        torsion.append(ring.mul(sqrt_d, (pow(root, -1, 8), 0)))
    elif splitting == RAMIFIED and (-D // 4) % 8 == 1:
        # the completion is Q_2(i): i = sqrt(D/4) / sqrt(-D/4), and the
        # 2-adic root of -D/4 must be pinned mod 32 to land on the genuine
        # torsion image (the quotient ring has spurious roots of -1)
        r = sqrt_mod_2k(-D // 4, 5)
        assert r is not None
        quartic = (0, pow(r, -1, 8))
        assert ring.mul(quartic, quartic) == ring.minus_one
        torsion.append(quartic)
    return LocalContext(2, splitting, D, ring, root, None, tuple(torsion))


def _fermat_quotient(c: int, p: int) -> int:
    m = p * p
    t = pow(c % m, p - 1, m)
    return ((t - 1) // p) % p


def _check_local_unit(ctx: LocalContext, alpha: QuadraticInteger) -> None:
    if alpha.disc != ctx.disc:
        raise ValueError(f"{alpha} does not live at discriminant {ctx.disc}")
    if alpha.norm % ctx.p == 0:
        raise NotLocalUnit(f"{alpha} has norm divisible by {ctx.p}")


def local_unit_image(ctx: LocalContext, alpha: QuadraticInteger) -> PhiImage:
    """Coordinates of alpha in O_p^*/T_p (O_p^*)^p via the closed forms.

    split: Fermat quotients of the two CRT components mod p^2.
    inert: beta = alpha^(p^2-1) = 1 + p(x + y s); coordinates (x, y) mod p.
    ramified: alpha^(p-1) expanded along 1+pi, 1+pi^2 with pi = sqrt(D);
    the local-zeta case delegates to the enumerative engine.
    """
    _check_local_unit(ctx, alpha)
    p = ctx.p
    if p == 2:
        return generic_membership(ctx, alpha)
    ring = ctx.ring
    m = p * p
    if ctx.splitting == SPLIT:
        inv2 = pow(2, -1, m)
        c1 = (alpha.u + alpha.v * ctx.root) * inv2 % m
        c2 = (alpha.u - alpha.v * ctx.root) * inv2 % m
        coords = (_fermat_quotient(c1, p), _fermat_quotient(c2, p))
    elif ctx.splitting == INERT:
        beta = ring.pow(ring.embed(alpha), p * p - 1)
        x, y = beta
        assert (x - 1) % p == 0 and y % p == 0
        coords = ((x - 1) // p % p, y // p % p)
    else:
        if ctx.local_zeta is not None:
            return generic_membership(ctx, alpha)
        x, y = ring.pow(ring.embed(alpha), p - 1)
        assert (x - 1) % p == 0
        delta = (ctx.disc % m) // p
        c1 = y % p
        c2 = (x - 1) // p * pow(delta, -1, p) % p
        # discrete log against the basis {1 + pi, 1 + pi^2}
        coords = (c1, (c2 - c1 * (c1 - 1) // 2) % p)
    return PhiImage(coords == (0, 0), coords, ring.embed(alpha))


@lru_cache(maxsize=None)
def _engine_subgroup(ring: LocalRing, p: int, torsion: tuple[Elt, ...]) -> frozenset:
    """The subgroup T_p * G^p of G = (O/p^k O)^*, fully enumerated.

    Prime-to-p torsion needs no generators: an element of order coprime to
    p is the p-th power of one of its own powers.  Only p-power torsion is
    passed in (the local zeta at p = 3 ramified; -1 and possibly i at p=2).
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


def generic_membership(ctx: LocalContext, alpha: QuadraticInteger) -> PhiImage:
    """Authoritative triviality verdict by exhaustive subgroup membership."""
    if ctx.p > 23:
        raise GroupTooLarge(f"unit group at p={ctx.p} is too large to enumerate")
    _check_local_unit(ctx, alpha)
    elt = ctx.ring.embed(alpha)
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


def order_two_form(d: FundamentalDiscriminant):
    """A reduced form of order exactly 2, from the ramified prime forms."""
    D = d.value
    one = principal_form(D)
    for q, _ in d.prime_factors:
        f = prime_form(D, q)
        if f is None:
            continue
        f = reduce_form(f)
        if f != one:
            assert compose(f, f) == one
            return f
    raise ValueError(f"no ambiguous class at D={D}; is the 2-class group trivial?")


def two_direct_check(d: FundamentalDiscriminant) -> str:
    """Run the p = 2 test directly in (O/8O)^*: the oracle for the families.

    Takes the order-2 class on a representative coprime to 2, recovers a
    generator of its square, and tests membership against the squares times
    {-1, i where present}.
    """
    if d.num_prime_divisors != 2:
        raise ValueError("direct check needs an even class number with cyclic 2-part")
    f = order_two_form(d)
    g = coprime_representative(f, 2)
    alpha = principal_generator(ideal_power(form_to_ideal(g), 2))
    ctx = _build_context_two(d)
    image = generic_membership(ctx, alpha)
    return "noninjective" if image.trivial else "injective"
