"""Integer arithmetic primitives: primes, factoring, the Kronecker symbol at
a prime, square roots in Z/p^k, a small Smith normal form, and
square-and-multiply.

Everything here is exact integer arithmetic; no external math libraries.
"""

import itertools
import math

_SIEVE_LIMIT = 1 << 16
_sieve_primes: list[int] | None = None

# Witnesses making Miller-Rabin deterministic below 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class InvariantViolation(RuntimeError):
    """An internal consistency check failed, so no result can be trusted.

    Raised explicitly rather than by assert, so the check also runs under
    python -O.
    """


def square_and_multiply(x, n: int, mul):
    """x^n for n >= 1 under the associative product mul, left to right.

    From the top set bit of n down: bit_length(n) - 1 squarings and
    popcount(n) - 1 products by x, none by an identity and none past the
    last bit (Cohen, GTM 138, section 1.2).
    """
    if n < 1:
        raise ValueError(f"exponent {n} is not positive")
    result = x
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def small_primes() -> list[int]:
    """Cached ascending primes below 2**16."""
    global _sieve_primes
    if _sieve_primes is None:
        sieve = bytearray([1]) * _SIEVE_LIMIT
        sieve[0] = sieve[1] = 0
        for i in range(2, math.isqrt(_SIEVE_LIMIT) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _sieve_primes = list(itertools.compress(range(_SIEVE_LIMIT), sieve))
    return _sieve_primes


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant; n odd composite, no small factors.
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n >= 1 into sorted (prime, exponent) pairs.

    Trial division by the cached primes below 2**16 factors every n below
    2**32 completely: once p*p > n, what is left is 1 or a prime, recorded
    with no primality test.  Past the last of those primes, Miller-Rabin
    and Pollard rho split the larger cofactors that discriminants up to
    quadform.CLASS_NUMBER_LIMIT (10**13) can leave.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in small_primes():
        if p * p > n:
            if n > 1:
                out[n] = 1
            return sorted(out.items())
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    return large_factors(n, out)


def large_factors(n: int, out: dict[int, int] | None = None) -> list[tuple[int, int]]:
    """The factors of n >= 1, which no prime below 2**16 divides, added to out, sorted.

    factorize's tail: Miller-Rabin and Pollard rho split n.
    """
    out = {} if out is None else out
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(out.items())


def kronecker(a: int, p: int) -> int:
    """Kronecker symbol (a|p) at a prime p: 1, -1, or 0 when p divides a.

    At p = 2 it follows a mod 8; at odd p it is Euler's criterion,
    a^((p-1)/2) mod p.  p is not tested for primality, but p < 2, an even
    p > 2, or a power that is not 0, 1 or -1 mod p raises ValueError.
    """
    if p == 2:
        return 0 if a % 2 == 0 else -1 if a % 8 in (3, 5) else 1
    if p < 2 or p % 2 == 0:
        raise ValueError(f"{p} is not an odd prime or 2")
    e = pow(a, (p - 1) // 2, p)
    if e == p - 1:
        return -1
    if e > 1:
        raise ValueError(f"{p} is not an odd prime: {a}^{(p - 1) // 2} = {e} (mod {p})")
    return e


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None.

    Raises ValueError when a step that cannot fail for an odd prime fails,
    which is how a composite p shows; p is not tested for primality.
    """
    a %= p
    if a == 0:
        return 0
    if kronecker(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # Tonelli-Shanks
        q = p - 1
        s = 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = next((z for z in range(2, p) if kronecker(z, p) == -1), None)
        if z is None:
            raise ValueError(f"{p} is not an odd prime: no quadratic non-residue")
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t, 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
                if i == m:
                    raise ValueError(f"{p} is not an odd prime: Tonelli-Shanks diverged")
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
    if r * r % p != a:
        raise ValueError(f"{p} is not an odd prime: {r}^2 != {a}")
    return r


def sqrt_mod_prime_power(a: int, p: int, k: int) -> int | None:
    """A root of x^2 = a (mod p^k) for odd p with p not dividing a."""
    r = sqrt_mod_prime(a, p)
    if r is None or r == 0:
        return None
    pe = p
    while pe < p**k:
        pe *= p
        # Newton step: r <- r - (r^2 - a) / (2r)
        r = (r - (r * r - a) * pow(2 * r, -1, pe)) % pe
    return r % p**k


def sqrt_mod_2k(a: int, k: int) -> int | None:
    """An odd root of x^2 = a (mod 2^k), by direct scan (k small)."""
    m = 1 << k
    for x in range(1, m, 2):
        if x * x % m == a % m:
            return x
    return None


def smith_normal_form(rows: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Diagonalize a square integer relation matrix.

    Rows are relations among n generators: row r states prod g_i^{r[i]} = 1.
    Returns (diag, w) where diag[j] | diag[j+1] and the new generators
    h_j = prod_i g_i^{w[i][j]} satisfy h_j^diag[j] = 1 and generate the
    same group as a direct product.
    """
    n = len(rows)
    # a = transpose(rows): columns span the relation lattice
    a = [[rows[j][i] for j in range(n)] for i in range(n)]
    winv = [[int(i == j) for j in range(n)] for i in range(n)]  # accumulates P^-1

    def row_op(i, j, m):
        # row_i += m * row_j on a  <=>  col_j -= m * col_i on winv
        a[i] = [x + m * y for x, y in zip(a[i], a[j])]
        for r in range(n):
            winv[r][j] -= m * winv[r][i]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            winv[r][i], winv[r][j] = winv[r][j], winv[r][i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        for r in range(n):
            winv[r][i] = -winv[r][i]

    def col_op(j, i, m):
        for r in range(n):
            a[r][j] += m * a[r][i]

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    for t in range(n):
        while True:
            # move a minimal nonzero entry of the trailing block to (t, t)
            piv = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                break
            if piv != (t, t):
                if piv[0] != t:
                    row_swap(t, piv[0])
                if piv[1] != t:
                    col_swap(t, piv[1])
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    row_op(i, t, -(a[i][t] // a[t][t]))
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    col_op(j, t, -(a[t][j] // a[t][t]))
                    dirty = dirty or a[t][j] != 0
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, 1)
        if a[t][t] < 0:
            row_neg(t)
    diag = [a[i][i] for i in range(n)]
    return diag, winv
