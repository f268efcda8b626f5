import itertools
import math

import pytest

from iqgalois.arith import _pollard_rho, factorize, is_prime, kronecker, small_primes
from iqgalois.arith import sqrt_mod_prime, square_and_multiply


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("a, p", [(1, 4), (5, 9), (4, 21), (2, 15)])
def test_sqrt_mod_prime_rejects_composite_modulus_quickly(a, p):
    with pytest.raises(ValueError, match="not an odd prime"):
        sqrt_mod_prime(a, p)


@pytest.mark.parametrize("p", [4, 9, 15, 21, 6, 1, 0, -3])
def test_kronecker_rejects_what_is_not_a_prime(p):
    # Euler's power 2^((p-1)/2) is 7 (mod 9), 8 (mod 15) and 16 (mod 21),
    # none of 0, 1, -1; 4 and 6 are even, and 1, 0, -3 lie below 2
    with pytest.raises(ValueError, match="not an odd prime"):
        kronecker(2, p)


def test_kronecker_at_primes_matches_squares():
    for p in filter(is_prime, range(2000)):
        squares = {x * x % p for x in range(1, p)}
        for a in range(-2 * p - 3, 2 * p + 4):
            if a % p == 0:
                expected = 0
            elif p == 2:
                expected = -1 if a % 8 in (3, 5) else 1
            else:
                expected = 1 if a % p in squares else -1
            assert kronecker(a, p) == expected, (a, p)


def test_sqrt_mod_prime_roots_at_odd_primes():
    for p in filter(is_prime, range(3, 1000)):
        residues = {x * x % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod_prime(a, p)
            assert (r is not None) == (a in residues), (a, p)
            assert r is None or r * r % p == a, (a, p)


def test_square_and_multiply_counts_and_values():
    calls = []

    def mul(x, y):
        calls.append((x, y))
        return x * y % 1000003

    for n in range(1, 200):
        calls.clear()
        assert square_and_multiply(3, n, mul) == pow(3, n, 1000003)
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1
    for n in (0, -1):
        with pytest.raises(ValueError):
            square_and_multiply(3, n, mul)


def _factorize_testing_every_cofactor(n: int) -> list[tuple[int, int]]:
    """factorize as it was before it skipped the primality test of the last cofactor."""
    out: dict[int, int] = {}
    for p in small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return sorted(out.items())


def test_factorize_matches_primality_tested_cofactors():
    # 2^32 + 15 is a prime above 65521^2, the last square that trial division
    # by the primes below 2^16 reaches; 65537^2 and 65521*65537 need rho
    specials = (1, 2, 65521 * 65537, 65537**2, 2**32 + 15, 10**12 + 39, 2**61 - 1)
    for n in [*range(1, 200_000), *specials]:
        assert factorize(n) == _factorize_testing_every_cofactor(n), n
    for n in specials:
        assert math.prod(p**k for p, k in factorize(n)) == n
        assert all(is_prime(p) for p, _ in factorize(n)), n


def test_small_primes_are_the_primes_below_2_16():
    # trial division by every earlier prime up to the square root
    want = []
    for n in range(2, 1 << 16):
        if all(n % p for p in itertools.takewhile(lambda p: p * p <= n, want)):
            want.append(n)
    assert small_primes() == want
    assert len(want) == 6542 and want[-1] == 65521
