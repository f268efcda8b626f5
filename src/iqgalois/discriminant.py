"""Validation and structural descriptors of imaginary quadratic discriminants.

A fundamental discriminant D < 0 is either squarefree with D = 1 mod 4, or
D = 4m with m squarefree and m = 2, 3 mod 4.  The genus-theoretic 2-rank of
the class group is t - 1, where t counts distinct primes dividing D.  The
torsion descriptor records how the closure of the torsion of the inertial
part of the abelian Galois group deviates from prod_{n>=1} Z/nZ, which
happens only for D = -4 and D = -8.
"""

import itertools
import math
from typing import NamedTuple

from .arith import factorize, kronecker


class NotImaginary(ValueError):
    """Raised for discriminants >= 0."""


class NotFundamental(ValueError):
    """Raised when D fails the congruence/squarefree conditions."""


SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

GENERIC = "GENERIC"
SPECIAL2 = "SPECIAL2"


class FundamentalDiscriminant(NamedTuple):
    value: int
    prime_factors: tuple[tuple[int, int], ...]

    @property
    def num_prime_divisors(self) -> int:
        return len(self.prime_factors)


class TorsionDescriptor(NamedTuple):
    w: int
    excluded_summands: frozenset[int] = frozenset()
    shape: str = GENERIC

    @property
    def special_case(self) -> bool:
        return self.shape == SPECIAL2

    def describe(self) -> str:
        if self.shape == SPECIAL2:
            return f"prod_n (Z/2 x Z/{self.w}nZ)"
        if self.w == 1:
            return "prod_n Z/nZ"
        return f"prod_n Z/{self.w}nZ"


_GENERIC_TORSION = TorsionDescriptor(w=1)


def validate(D: int, factors: list[tuple[int, int]] | None = None) -> FundamentalDiscriminant:
    """Check that D is a fundamental imaginary quadratic discriminant.

    factors is the factorization of |D| as arith.factorize gives it, or None
    for factorize to run: a scan block passes those of survey.block_factors.
    Given factors that do not multiply out to |D| raise ValueError, and an
    odd square among them NotFundamental, as factorize's would; that they
    are distinct primes in ascending order is the caller's word.
    """
    if not isinstance(D, int):
        raise TypeError(f"discriminant must be an integer, got {type(D)}")
    if D >= 0:
        raise NotImaginary(f"D = {D} is not negative")
    if D % 4 not in (0, 1):
        raise NotFundamental(f"D = {D} is 2 or 3 mod 4")
    if D % 4 == 0 and (D // 4) % 4 not in (2, 3):
        raise NotFundamental(f"D/4 = {D // 4} is 0 or 1 mod 4")
    if factors is None:
        factors = factorize(-D)
    elif math.prod(itertools.starmap(pow, factors)) != -D:
        raise ValueError(f"{factors} does not multiply out to |D| = {-D}")
    # with D/4 = 2, 3 mod 4 the power of 2 is fixed; only odd squares remain
    if any(e > 1 for q, e in factors if q != 2):
        if D % 2:
            raise NotFundamental(f"D = {D} is not squarefree")
        raise NotFundamental(f"D/4 = {D // 4} is not squarefree")
    return FundamentalDiscriminant(D, tuple(factors))


def genus_two_rank(d: FundamentalDiscriminant) -> int:
    """2-rank of the class group: one less than the number of ramified primes."""
    return d.num_prime_divisors - 1


def torsion_descriptor(d: FundamentalDiscriminant) -> TorsionDescriptor:
    """Shape of the closed-up torsion of the inertial Galois group.

    No odd prime is exceptional for an imaginary quadratic field; 2 is
    exceptional exactly for D = -4 (where i lies in the field, w(2) = 4)
    and D = -8 (where w(2) = 8 and i is missing, the special case).  Every
    other field shares the one frozen _GENERIC_TORSION, TorsionDescriptor(w=1).
    """
    if d.value == -4:
        # all cyclic summands of order 2 disappear
        return TorsionDescriptor(w=4, excluded_summands=frozenset({2}))
    if d.value == -8:
        # order-2 summands survive as explicit Z/2 factors; order 4 disappears
        return TorsionDescriptor(w=8, excluded_summands=frozenset({4}), shape=SPECIAL2)
    return _GENERIC_TORSION


def kronecker_at(d: FundamentalDiscriminant, p: int) -> str:
    """Local behavior of the prime p: ramified wins over the symbol value.

    p must be prime: arith.kronecker raises ValueError on many composite p.
    survey checks its configured primes and table3's p for primality first,
    and localtest passes primes that divide the class number.
    """
    if d.value % p == 0:
        return RAMIFIED
    return SPLIT if kronecker(d.value, p) == 1 else INERT
