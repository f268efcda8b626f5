"""Brute-force oracles for the tests.

These deliberately avoid the library's own algorithms: equivalence of forms
is decided by searching words in the modular group generators, norm
equations are solved by exhaustive search, quadratic residues by squaring
every residue, and reduced forms per |D| by a plain loop over (a, b).
The Sylow walk is the class-group code as it stood before its cyclic
shortcut and its table-free 2-part, with its own copy of the table walk,
kept as the reference for both.  Invariant factors of a whole
class group are read off how many of its classes each q^j kills.  Ideal
products and principal ideals are Hermite-reduced lattices spanned by
their generators, the reference for the composition formula that idealgen
shares with quadform.  Quotient membership at p is a search over units
and torsion words, shared with nothing in localtest's engine.  Only the
rows of a scan block, field by field, take the library's own scalar route.
"""

import functools
import itertools
import math
from collections import deque

import numpy as np

from iqgalois.arith import InvariantViolation, factorize, smith_normal_form
from iqgalois.classify import classify_validated
from iqgalois.discriminant import NotFundamental, kronecker_at, validate
from iqgalois.idealgen import QuadIdeal, QuadraticInteger
from iqgalois.quadform import ClassNumberAmbiguous, class_group, compose, power, principal_form
from iqgalois.survey import SurveyRow, class_numbers_range


def sl2_orbit(form: tuple[int, int, int], max_size: int = 20000) -> set:
    """Forms reachable from `form` by the standard generators.

    S: (a, b, c) -> (c, -b, a); T^(+-1): (a, b, c) -> (a, b +- 2a, a +- b + c).
    Every properly equivalent form with coefficients of comparable size is
    reached well before the size cap.
    """
    seen = {form}
    queue = deque([form])
    while queue and len(seen) < max_size:
        a, b, c = queue.popleft()
        nbrs = [
            (c, -b, a),
            (a, b + 2 * a, a + b + c),
            (a, b - 2 * a, a - b + c),
        ]
        for nb in nbrs:
            if nb not in seen and abs(nb[1]) <= 6 * max(a, c, abs(b)) + 6:
                seen.add(nb)
                queue.append(nb)
    return seen


def is_fundamental(m: int) -> bool:
    """Is -m a fundamental discriminant?  A filter for drawn test inputs."""
    try:
        validate(-m)
    except NotFundamental:
        return False
    return True


def quadratic_residues(p: int) -> set[int]:
    return {x * x % p for x in range(p)}


def norm_elements(D: int, n: int) -> list[QuadraticInteger]:
    """All alpha in the order with norm exactly n, by exhausting v."""
    out = []
    vmax = math.isqrt(4 * n // -D)
    for v in range(-vmax, vmax + 1):
        usq = 4 * n + D * v * v
        if usq < 0:
            continue
        u = math.isqrt(usq)
        if u * u != usq:
            continue
        for uu in {u, -u}:
            if (uu - v * D) % 2 == 0:
                out.append(QuadraticInteger(uu, v, D))
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0, by the extended Euclidean algorithm."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


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
        gg, x, y = _xgcd(wv, v2)
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


def lattice_multiply(i1: QuadIdeal, i2: QuadIdeal) -> QuadIdeal:
    """Product ideal as the Hermite-reduced lattice of the four generator products."""
    D = i1.disc
    assert D == i2.disc, (i1, i2)
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


def principal_ideal(alpha: QuadraticInteger) -> QuadIdeal:
    """The ideal alpha * O, from the lattice spanned by alpha and alpha*omega."""
    D = alpha.disc
    u, v = alpha.u, alpha.v
    # omega = (D + sqrt(D))/2 generates the maximal order over Z
    omega_u = (u * D + v * D) // 2
    omega_v = (u + v * D) // 2
    return QuadIdeal(*_hnf_from_vectors([(u, v), (omega_u, omega_v)]), D)


def power_in_order(beta: QuadraticInteger, e: int) -> QuadraticInteger:
    result = QuadraticInteger(2, 0, beta.disc)
    for _ in range(e):
        result = result.mul(beta)
    return result


def is_perfect_power(alpha: QuadraticInteger, p: int) -> bool:
    """Does beta^p = alpha have a solution in the order?  Exhaustive."""
    n = alpha.norm
    root = round(n ** (1.0 / p))
    base = None
    for cand in (root - 1, root, root + 1):
        if cand >= 0 and cand**p == n:
            base = cand
            break
    if base is None:
        return False
    return any(power_in_order(beta, p) == alpha for beta in norm_elements(alpha.disc, base))


def quotient_trivial_brute(ring, p: int, torsion, elt) -> bool:
    """Is elt = u^p * t for some u of the quotient ring and some word t in torsion?

    A plain search over every ring element u and every word in the torsion
    generators, multiplying from the ring's defining relation (s^2 = par,
    or s^2 = s - par for the 'omega' basis) rather than through LocalRing.
    """
    mod, par = ring.mod, ring.par

    def mul(x, y):
        cross = x[0] * y[1] + x[1] * y[0]
        if ring.kind == "sqrt":
            return ((x[0] * y[0] + par * x[1] * y[1]) % mod, cross % mod)
        return ((x[0] * y[0] - par * x[1] * y[1]) % mod, (cross + x[1] * y[1]) % mod)

    one = (1, 0)
    words = {one}
    for g in torsion:
        step, x = set(words), g
        while x != one:
            step |= {mul(w, x) for w in words}
            x = mul(x, g)
        words = step
    target = (elt[0] % mod, elt[1] % mod)
    for u in itertools.product(range(mod), repeat=2):
        up = one
        for _ in range(p):
            up = mul(up, u)
        if any(mul(up, t) == target for t in words):
            return True
    return False


def reduced_form_counts_loop(lo: int, hi: int) -> np.ndarray:
    """Reduced forms per |D| in [lo, hi), one (a, b) pair at a time.

    The reference for survey.reduced_form_counts: for each a and each
    0 <= b <= a, the c-range landing in the block is added as one slice.
    """
    counts = np.zeros(hi - lo, dtype=np.int64)
    amax = math.isqrt((hi - 1) // 3)
    for a in range(1, amax + 1):
        fa = 4 * a
        for b in range(0, a + 1):
            cmin = max(a, -(-(lo + b * b) // fa))
            cmax = (hi - 1 + b * b) // fa
            if cmax < cmin:
                continue
            ms = np.arange(cmin, cmax + 1, dtype=np.int64) * fa - b * b
            w = 2 if 0 < b < a else 1
            counts[ms - lo] += w
            if w == 2 and cmin == a:
                # (a, b, a) is its own mirror: counted once, not twice
                counts[a * fa - b * b - lo] -= 1
    return counts


def invariant_factors_by_counting(forms: list) -> tuple[int, ...]:
    """Invariant factors of the group whose classes are exactly `forms`.

    For each prime q | h, q^j kills q^(sum_i min(j, e_i)) classes when the
    q-Sylow subgroup is the product of the Z/q^(e_i); so the growth of that
    count with j says how many e_i reach j, which fixes the e_i.
    """
    one = principal_form(forms[0].disc)
    columns = []
    for q, e in factorize(len(forms)):
        reaching = []  # reaching[j - 1] = #{i : e_i >= j}
        killed = 0
        while killed < e:
            count = sum(power(f, q ** (len(reaching) + 1)) == one for f in forms)
            k = round(math.log(count, q))
            assert k > killed, f"{forms} is not a group"
            reaching.append(k - killed)
            killed = k
        exps = sorted(sum(r > i for r in reaching) for i in range(reaching[0]))
        columns.append([q**x for x in exps])
    rank = max((len(c) for c in columns), default=0)
    padded = [[1] * (rank - len(c)) + c for c in columns]
    return tuple(math.prod(row) for row in zip(*padded))


def _adjoin(sub: dict, x, limit: int) -> tuple[int, tuple[int, ...], dict]:
    """Grow the explicit subgroup table sub (class -> exponent vector) by the class of x.

    Walks x, x^2, ... up to the first power x^k in sub and returns k, the
    vector of x^k and the table of <sub, x>, whose vectors end in the
    exponent of x.  Raises ClassNumberAmbiguous once k would exceed limit.
    """
    powers = [x]
    while powers[-1] not in sub:
        if len(powers) >= limit:
            raise ClassNumberAmbiguous(f"relative order of {x} exceeds {limit}")
        powers.append(compose(powers[-1], x))
    grown = {}
    for i, xi in enumerate([principal_form(x.disc)] + powers[:-1]):
        for elt, vec in sub.items():
            grown[compose(elt, xi)] = vec + (i,)
    return len(powers), sub[powers[-1]], grown


def sylow_structure_walk(D: int, h: int, q: int, e: int, pool):
    """Orders and basis of the q-Sylow subgroup, q^e || h, always by the walk.

    The reference for quadform._sylow_structure: every subgroup, cyclic or
    not, is grown as an explicit element table with one relation per
    generator, and the relation matrix is then diagonalized.
    """
    one = principal_form(D)
    target = q**e
    cofactor = h // target
    sub = {one: ()}
    gens = []
    relations: list[list[int]] = []
    for cand in pool:
        if len(sub) >= target:
            break
        x = power(cand, cofactor)
        if x in sub:
            continue
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


def rows_one_by_one(lo: int, hi: int, primes: tuple[int, ...]) -> list:
    """The scan rows of the fundamental |D| in [lo, hi), by the library's scalar route.

    class_group, classify_validated and kronecker_at, one field at a time:
    the oracle of a scan block's array routes.
    """
    rows = []
    for m, h in class_numbers_range(lo, hi):
        d = validate(-m)
        record = classify_validated(d, short_circuit=False, cg=class_group(d, known_h=h))
        rows.append(SurveyRow(record, tuple((p, kronecker_at(d, p)) for p in primes)))
    return rows
