"""Ideal arithmetic for the maximal order of an imaginary quadratic field.

Ideals are rank-2 lattices stored as m * (Z*a + Z*(b + sqrt(D))/2) with the
integer content m split off, so non-primitive products such as the square
of a ramified prime stay representable.  A principal ideal's generator is
recovered as a shortest lattice vector by two-dimensional Lagrange-Gauss
reduction, which is exact: for D < -4 the shortest vectors of (alpha) are
exactly +-alpha.  torsion_power_generator chains these steps into the
generator of a^p for a p-torsion class, the input of the local test.
"""

import math
from dataclasses import dataclass

from .arith import InvariantViolation, xgcd
from .quadform import QuadForm, coprime_representative, reduce_form


class NotPrincipal(ValueError):
    """Shortest vector norm exceeds the ideal norm: the ideal is not principal."""


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
        b = self.b % (2 * self.a)
        if b > self.a:
            b -= 2 * self.a
        if (b * b - self.disc) % (4 * self.a) != 0:
            raise ValueError(f"(a={self.a}, b={self.b}) is not closed under the order action")
        if b != self.b:
            object.__setattr__(self, "b", b)

    @property
    def norm(self) -> int:
        return self.m * self.m * self.a

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
    a, b, D = ideal.a, ideal.b, ideal.disc
    return reduce_form(QuadForm(a, b, (b * b - D) // (4 * a)))


def _hnf_from_vectors(vectors: list[tuple[int, int]]) -> tuple[int, int, int]:
    """(a, b, m) with the lattice spanned by (u, v) pairs = m * [a, (b + sqrt D)/2].

    b is not normalized; QuadIdeal does that once when the caller builds it.
    """
    vecs = [v for v in vectors if v != (0, 0)]
    g = 0
    for _, v in vecs:
        g = math.gcd(g, v)
    if g == 0:
        raise ValueError("degenerate lattice")
    # combine vectors until one reaches v-component g
    wu, wv = vecs[0]
    for u2, v2 in vecs[1:]:
        if wv == g:
            break
        gg, x, y = xgcd(wv, v2)
        wu, wv = x * wu + y * u2, gg
    if wv != g:
        raise InvariantViolation(f"vectors {vecs} did not combine to v-content {g}")
    e = 0
    for u2, v2 in vecs:
        e = math.gcd(e, u2 - (v2 // g) * wu)
    e = abs(e)
    if not e or e % (2 * g) or wu % g:
        raise InvariantViolation(f"lattice of {vecs} is not an ideal of the order")
    return e // (2 * g), wu // g, g


def ideal_multiply(i1: QuadIdeal, i2: QuadIdeal) -> QuadIdeal:
    """Product lattice, Hermite-reduced; norms multiply for invertible ideals."""
    from .quadform import DiscriminantMismatch

    D = i1.disc
    if D != i2.disc:
        raise DiscriminantMismatch(f"{i1} and {i2} have different discriminants")
    a1, b1 = i1.a, i1.b
    a2, b2 = i2.a, i2.b
    # generators a1*a2, a1*beta2, a2*beta1, beta1*beta2 with beta = (b+sqrt D)/2
    vectors = [
        (2 * a1 * a2, 0),
        (a1 * b2, a1),
        (a2 * b1, a2),
        ((b1 * b2 + D) // 2, (b1 + b2) // 2),
    ]
    a, b, m = _hnf_from_vectors(vectors)
    return QuadIdeal(a, b, m * i1.m * i2.m, D)


def ideal_power(ideal: QuadIdeal, n: int) -> QuadIdeal:
    """n-th power, n >= 0, by square-and-multiply from the top set bit of n.

    No step multiplies by the unit ideal, and none squares past the last
    bit, the largest product of the loop; every product by the base is one
    by `ideal` itself.
    """
    if n < 0:
        raise ValueError("negative ideal powers are not needed here")
    if n == 0:
        return unit_ideal(ideal.disc)
    result = ideal
    for bit in bin(n)[3:]:
        result = ideal_multiply(result, result)
        if bit == "1":
            result = ideal_multiply(result, ideal)
    return result


def principal_ideal(alpha: QuadraticInteger) -> QuadIdeal:
    """The ideal alpha * O, from the lattice spanned by alpha and alpha*omega."""
    D = alpha.disc
    u, v = alpha.u, alpha.v
    # omega = (D + sqrt(D))/2 generates the maximal order over Z
    omega_u = (u * D + v * D) // 2
    omega_v = (u + v * D) // 2
    return QuadIdeal(*_hnf_from_vectors([(u, v), (omega_u, omega_v)]), D)


def principal_generator(ideal: QuadIdeal) -> QuadraticInteger:
    """Generator of a principal ideal as a shortest lattice vector.

    Requires D < -4: with unit group {+-1} the generator is unique up to
    sign, normalized to u > 0 (or v > 0 when u = 0).  Raises NotPrincipal
    when the shortest vector's norm exceeds the ideal norm, which signals
    an upstream order computation bug rather than a recoverable state.
    """
    D = ideal.disc
    if D >= -4:
        raise ValueError("generator recovery requires D < -4 (extra units otherwise)")
    w = -D
    (u, v), (x, y) = ideal.basis_vectors()
    # 4 * norm of the current shortest vector (u, v)
    q1 = u * u + w * v * v
    if q1 > x * x + w * y * y:
        u, v, x, y, q1 = x, y, u, v, x * x + w * y * y
    while True:
        # nearest-integer reduction of (x, y) against (u, v)
        t = (2 * (u * x + w * v * y) + q1) // (2 * q1)
        x, y = x - t * u, y - t * v
        q2 = x * x + w * y * y
        if q2 >= q1:
            break
        u, v, x, y, q1 = x, y, u, v, q2
    if u < 0 or (u == 0 and v < 0):
        u, v = -u, -v
    alpha = QuadraticInteger(u, v, D)
    if alpha.norm != ideal.norm:
        raise NotPrincipal(f"{ideal} has shortest norm {alpha.norm} != {ideal.norm}")
    if principal_ideal(alpha) != ideal:
        raise NotPrincipal(f"generator {alpha} does not regenerate {ideal}")
    return alpha


def torsion_power_generator(form: QuadForm, p: int) -> QuadraticInteger:
    """Generator of a^p for the ideal a of a p-torsion class, a coprime to p."""
    g = coprime_representative(form, p)
    return principal_generator(ideal_power(form_to_ideal(g), p))
