"""Ideal arithmetic for the maximal order of an imaginary quadratic field.

The per-field route is torsion_power_generator: the image in O/p^2 of the
generator of a^p, from states of a primitive form tuple and a ring element,
all on ints (_state_product, reduced_basis).  lanes._generator_lanes runs
the same products for the jobs of a whole survey block side by side, and a
job it cannot take is left to torsion_power_generator, the oracle.  The
rest is oracle code.
Ideals are rank-2 lattices m * (Z*a + Z*(b + sqrt(D))/2) with the integer
content m split off, so non-primitive products such as the square of a
ramified prime stay representable; ideal_multiply keeps the content
gcd(a1, a2, (b1 + b2)/2) that the form class drops.  principal_generator
recovers a generator as a shortest lattice vector, exact since for D < -4
the shortest vectors of (alpha) are exactly +-alpha, and
explicit_power_generator builds alpha in full for verify.generators, the
p = 2 direct check and the golden generator pin.
"""

from dataclasses import dataclass
from functools import partial

from .arith import InvariantViolation, square_and_multiply
from .quadform import QuadForm, compose_unreduced, coprime_representative, reduce_form


class NotPrincipal(InvariantViolation):
    """An ideal that should be principal is not: an upstream order bug."""


@dataclass(frozen=True)
class QuadraticInteger:
    """alpha = (u + v*sqrt(D))/2 with u = v*D mod 2."""

    u: int
    v: int
    disc: int

    def __post_init__(self):
        if (self.u - self.v * self.disc) % 2 != 0:
            raise ValueError(f"({self.u} + {self.v} sqrt({self.disc}))/2 is not integral")

    @property
    def norm(self) -> int:
        n = self.u * self.u - self.disc * self.v * self.v
        if n % 4:
            raise InvariantViolation(f"{self} has norm {n}/4, not an integer")
        return n // 4

    def conjugate(self) -> "QuadraticInteger":
        return QuadraticInteger(self.u, -self.v, self.disc)

    def mul(self, other: "QuadraticInteger") -> "QuadraticInteger":
        D = self.disc
        u = (self.u * other.u + self.v * other.v * D) // 2
        v = (self.u * other.v + self.v * other.u) // 2
        return QuadraticInteger(u, v, D)

    def __repr__(self) -> str:
        return f"({self.u}{self.v:+d}*sqrt({self.disc}))/2"


@dataclass(frozen=True)
class QuadIdeal:
    """The lattice m * (Z*a + Z*(b + sqrt(D))/2), b normalized into (-a, a]."""

    a: int
    b: int
    m: int
    disc: int

    def __post_init__(self):
        if self.a <= 0 or self.m <= 0:
            raise ValueError("ideal needs positive norm components")
        b = self.a - (self.a - self.b) % (2 * self.a)
        if (b * b - self.disc) % (4 * self.a) != 0:
            raise ValueError(f"(a={self.a}, b={self.b}) is not closed under the order action")
        object.__setattr__(self, "b", b)

    @property
    def norm(self) -> int:
        return self.m * self.m * self.a

    def norm_form(self) -> tuple[int, int, int]:
        """(a, b, c) with b^2 - 4ac = D, the norm form of the primitive part."""
        return self.a, self.b, (self.b * self.b - self.disc) // (4 * self.a)

    def basis_vectors(self) -> tuple[tuple[int, int], tuple[int, int]]:
        # coordinates (u, v) stand for (u + v*sqrt(D))/2
        return (2 * self.a * self.m, 0), (self.b * self.m, self.m)

    def __repr__(self) -> str:
        inner = f"[{self.a}, ({self.b}+sqrt({self.disc}))/2]"
        return inner if self.m == 1 else f"{self.m}*{inner}"


def unit_ideal(D: int) -> QuadIdeal:
    return QuadIdeal(1, D % 2, 1, D)


def form_to_ideal(f: QuadForm) -> QuadIdeal:
    """The norm-a ideal [a, (b + sqrt(D))/2] whose norm form is f."""
    if not f.is_primitive() or f.a <= 0:
        raise ValueError(f"{f} must be primitive and positive definite")
    return QuadIdeal(f.a, f.b, 1, f.disc)


def ideal_to_form(ideal: QuadIdeal) -> QuadForm:
    """Reduced form of the ideal class (the content m does not move the class)."""
    return reduce_form(ideal.norm_form())


def ideal_multiply(i1: QuadIdeal, i2: QuadIdeal) -> QuadIdeal:
    """Product by the Dirichlet formula: d * [a3, (b3 + sqrt D)/2] times both contents.

    At a fundamental D every norm form is primitive, as the formula needs.
    """
    d, (a, b, _) = compose_unreduced(i1.norm_form(), i2.norm_form())
    return QuadIdeal(a, b, d * i1.m * i2.m, i1.disc)


def ideal_power(ideal: QuadIdeal, n: int) -> QuadIdeal:
    """n-th power, n >= 0, by arith.square_and_multiply with ideal_multiply."""
    if n < 0:
        raise ValueError("negative ideal powers are not needed here")
    if n == 0:
        return unit_ideal(ideal.disc)
    return square_and_multiply(ideal, n, ideal_multiply)


def reduced_basis(first, second, D: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Lagrange-Gauss reduced basis of the lattice spanned by two vectors, shortest first.

    (u, v) has length u^2 + |D| v^2, four times the norm of (u + v*sqrt(D))/2.
    """
    w = -D
    (u, v), (x, y) = first, second
    q1 = u * u + w * v * v
    if q1 > x * x + w * y * y:
        u, v, x, y, q1 = x, y, u, v, x * x + w * y * y
    while True:
        # nearest-integer reduction of (x, y) against (u, v)
        t = (2 * (u * x + w * v * y) + q1) // (2 * q1)
        x, y = x - t * u, y - t * v
        q2 = x * x + w * y * y
        if q2 >= q1:
            return (u, v), (x, y)
        u, v, x, y, q1 = x, y, u, v, q2


def principal_generator(ideal: QuadIdeal) -> QuadraticInteger:
    """Generator of a principal ideal as a shortest lattice vector.

    Requires D < -4: with unit group {+-1} the generator is unique up to
    sign, normalized to u > 0 (or v > 0 when u = 0).  The vector lies in the
    ideal and has its norm, and (alpha) inside I with N(alpha) = N(I) means
    (alpha) = I.  Raises NotPrincipal when either check fails, which signals
    an upstream order computation bug rather than a recoverable state.
    """
    D = ideal.disc
    if D >= -4:
        raise ValueError("generator recovery requires D < -4 (extra units otherwise)")
    (u, v), _ = reduced_basis(*ideal.basis_vectors(), D)
    if u < 0 or (u == 0 and v < 0):
        u, v = -u, -v
    alpha = QuadraticInteger(u, v, D)
    if alpha.norm != ideal.norm:
        raise NotPrincipal(f"{ideal} has shortest norm {alpha.norm} != {ideal.norm}")
    if v % ideal.m or (u - ideal.b * v) % (2 * ideal.a * ideal.m):
        raise NotPrincipal(f"generator {alpha} does not lie in {ideal}")
    return alpha


def explicit_power_generator(form: QuadForm, p: int) -> QuadraticInteger:
    """Generator of a^p for the ideal a of a p-torsion class, a coprime to p, in full.

    alpha has about p * log2 N(a) / 2 bits.  The oracle for
    torsion_power_generator, and the p = 2 direct check's generator.
    """
    g = coprime_representative(form, p)
    return principal_generator(ideal_power(form_to_ideal(g), p))


def torsion_power_generator(form: QuadForm, p: int, ring):
    """Image in ring (the quotient O/p^2 of localtest) of +-alpha, (alpha) = a^p.

    a is the ideal of f = coprime_representative(form, p).  a^n is kept as a
    state (f', g), a^n = gamma * I with I the ideal of the primitive form
    tuple f', of norm prime to p, and g the image of gamma.  The last of
    the p products, J = I1 * I2, is principal, J = (nu), and for D < -4 its
    reduced basis starts with +-nu: _state_product picks it with A = 1, so
    the state is (1, b, c) and g is the image of +-alpha.  A state of norm
    a != 1 means that J, hence a^p, is not principal: NotPrincipal.
    """
    f = coprime_representative(form, p)
    (a, _, _), g = square_and_multiply((f, ring.one), p, partial(_state_product, ring=ring))
    if a != 1:
        raise NotPrincipal(f"{f} to the power {p} is not principal: its state has norm {a}")
    return g


def _state_product(s1, s2, ring):
    """(f1, g1) * (f2, g2): J = I1 * I2 = d * [a3, (b3 + sqrt D)/2], made small again.

    For mu in J with A = N(mu)/N(J) prime to p, J = (mu/A) * I' where
    I' = conj(mu) * J / N(J) is integral of norm A.  One of v1, v2, v1 + v2
    of J's reduced basis has such an A, by the argument of
    quadform.coprime_representative on the primitive form N(x*v1 + y*v2)/N(J).
    """
    (f1, g1), (f2, g2) = s1, s2
    D, p = f1[1] * f1[1] - 4 * f1[0] * f1[2], ring.p
    d, (a3, b3, _) = compose_unreduced(f1, f2)
    b3, n = a3 - (a3 - b3) % (2 * a3), d * d * a3  # b3 into (-a3, a3], as in QuadIdeal
    v1, v2 = reduced_basis((2 * a3 * d, 0), (b3 * d, d), D)
    for mu, w in ((v1, v2), (v2, v1), ((v1[0] + v2[0], v1[1] + v2[1]), v1)):
        a, r = divmod(mu[0] * mu[0] - D * mu[1] * mu[1], 4 * n)
        if a % p:
            break
    else:
        raise InvariantViolation(f"no basis vector of {d}*[{a3}, {b3}] has norm prime to {p}")
    # conj(mu) * w = (U + V*sqrt(D))/2 with V = +-N(J), since {mu, w} is a basis of J
    U = (mu[0] * w[0] - D * mu[1] * w[1]) // 2
    V = (mu[0] * w[1] - mu[1] * w[0]) // 2
    if abs(V) != n or U % V:
        raise InvariantViolation(f"{mu} and {w} do not span {d}*[{a3}, {b3}]")
    b = U // V
    c, s = divmod(b * b - D, 4 * a)
    if r or s:  # N(J) divides N(mu), and I' = [a, (b + sqrt D)/2] is closed
        raise InvariantViolation(f"{d}*[{a3}, {b3}] is not an ideal: it gives ({a}, {b})")
    if n != f1[0] * f2[0]:  # N(J) = N(I1) * N(I2): a wrong content d fails here
        raise InvariantViolation(f"{d}*[{a3}, {b3}] has norm {n}, not {f1[0]}*{f2[0]}")
    k = pow(a, -1, ring.mod)  # the image of mu / a
    return (a, b, c), ring.mul(ring.mul(g1, g2), ring.embed(k * mu[0], k * mu[1]))


def _ring_mul(x, y, m, par) -> tuple:
    """(x0 + x1 s)(y0 + y1 s) in (Z/m)[s] with s^2 = par: LocalRing.mul of the 'sqrt' kind.

    On Python ints or lane by lane on int64 arrays, reduced mod m between factors.
    """
    return (x[0] * y[0] + x[1] * y[1] % m * par) % m, (x[0] * y[1] + x[1] * y[0]) % m

