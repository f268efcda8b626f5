import signal

import pytest

from iqgalois.arith import is_prime, sqrt_mod_prime, square_and_multiply


def _timeout(signum, frame):
    raise TimeoutError("sqrt_mod_prime did not return within 2 s")


@pytest.mark.parametrize("a, p", [(1, 4), (5, 9), (4, 21), (2, 15)])
def test_sqrt_mod_prime_rejects_composite_modulus_quickly(a, p):
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(ValueError, match="not an odd prime"):
            sqrt_mod_prime(a, p)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
