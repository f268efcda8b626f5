"""Ideal arithmetic for the maximal order of an imaginary quadratic field.

The per-field route is torsion_power_generator: the image in O/p^2 of the
generator of a^p, from states of a primitive form tuple and a ring element,
all on ints (_state_product, reduced_basis).  _generator_lanes runs the
same products for the jobs of a whole survey block side by side, one
lock-step step per bit of p on int64 lanes (_power_states on
quadform._square_and_multiply_lanes; _state_lanes, _basis_lanes, with
quadform._compose_lanes), with every check of _state_product, and returns
the images as int64 rows; the states are not reduced, so a product runs on
a lane only while its norm a1*a2 keeps int64 exact (_fits), and a job past
that is left to torsion_power_generator, the oracle.  The rest is oracle
code.
Ideals are rank-2 lattices m * (Z*a + Z*(b + sqrt(D))/2) with the integer
content m split off, so non-primitive products such as the square of a
ramified prime stay representable; ideal_multiply keeps the content
gcd(a1, a2, (b1 + b2)/2) that the form class drops.  principal_generator
recovers a generator as a shortest lattice vector, exact since for D < -4
the shortest vectors of (alpha) are exactly +-alpha, and
explicit_power_generator builds alpha in full for verify.generators, the
p = 2 direct check and the golden generator pin.
"""

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np

from .arith import InvariantViolation, square_and_multiply
from .quadform import QuadForm, _compose_lanes, _square_and_multiply_lanes, _xgcd_lanes
from .quadform import compose_unreduced, coprime_representative, reduce_form

# A product of states on lanes runs only while N*(4N + |D|) <= _STATE_BOUND for
# the norm N = a1*a2 of its J (_fits); a lane past it takes the scalar route.
_STATE_BOUND = 2**60
# The p^2 of a lane stays below this: the ring product adds two products of
# residues mod p^2, each below 2^62.
_RING_LIMIT = 2**31


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
    fits, |D| and the exponent p.  quadform._square_and_multiply_lanes
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


def _ring_mul(x, y, m, par) -> tuple:
    """(x0 + x1 s)(y0 + y1 s) in (Z/m)[s] with s^2 = par: LocalRing.mul of the 'sqrt' kind.

    On Python ints or lane by lane on int64 arrays, reduced mod m between factors.
    """
    return (x[0] * y[0] + x[1] * y[1] % m * par) % m, (x[0] * y[1] + x[1] * y[0]) % m


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
