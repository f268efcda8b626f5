"""Validation and structural descriptors of imaginary quadratic discriminants.

A fundamental discriminant D < 0 is either squarefree with D = 1 mod 4, or
D = 4m with m squarefree and m = 2, 3 mod 4.  The genus-theoretic 2-rank of
the class group is t - 1, where t counts distinct primes dividing D.  The
torsion descriptor records how the closure of the torsion of the inertial
part of the abelian Galois group deviates from prod_{n>=1} Z/nZ, which
happens only for D = -4 and D = -8.
"""

from dataclasses import dataclass, field

from .arith import factorize, is_squarefree_factored, kronecker


class NotImaginary(ValueError):
    """Raised for discriminants >= 0."""


class NotFundamental(ValueError):
    """Raised when D fails the congruence/squarefree conditions."""


SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

GENERIC = "GENERIC"
SPECIAL2 = "SPECIAL2"


@dataclass(frozen=True)
class FundamentalDiscriminant:
    value: int
    prime_factors: tuple[tuple[int, int], ...]
    num_prime_divisors: int


@dataclass(frozen=True)
class TorsionDescriptor:
    w: int
    excluded_summands: frozenset[int] = field(default_factory=frozenset)
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


def validate(D: int) -> FundamentalDiscriminant:
    """Check that D is a fundamental imaginary quadratic discriminant."""
    if not isinstance(D, int):
        raise TypeError(f"discriminant must be an integer, got {type(D)}")
    if D >= 0:
        raise NotImaginary(f"D = {D} is not negative")
    if D % 4 not in (0, 1):
        raise NotFundamental(f"D = {D} is 2 or 3 mod 4")
    if D % 4 == 1:
        factors = factorize(-D)
        if not is_squarefree_factored(factors):
            raise NotFundamental(f"D = {D} is not squarefree")
    else:
        m = D // 4
        if m % 4 not in (2, 3):
            raise NotFundamental(f"D/4 = {m} is 0 or 1 mod 4")
        if not is_squarefree_factored(factorize(-m)):
            raise NotFundamental(f"D/4 = {m} is not squarefree")
        factors = factorize(-D)
    return FundamentalDiscriminant(D, tuple(factors), len(factors))


def genus_two_rank(d: FundamentalDiscriminant) -> int:
    """2-rank of the class group: one less than the number of ramified primes."""
    return d.num_prime_divisors - 1


def torsion_descriptor(d: FundamentalDiscriminant) -> TorsionDescriptor:
    """Shape of the closed-up torsion of the inertial Galois group.

    No odd prime is exceptional for an imaginary quadratic field; 2 is
    exceptional exactly for D = -4 (where i lies in the field, w(2) = 4)
    and D = -8 (where w(2) = 8 and i is missing, the special case).
    """
    if d.value == -4:
        # all cyclic summands of order 2 disappear
        return TorsionDescriptor(w=4, excluded_summands=frozenset({2}))
    if d.value == -8:
        # order-2 summands survive as explicit Z/2 factors; order 4 disappears
        return TorsionDescriptor(w=8, excluded_summands=frozenset({4}), shape=SPECIAL2)
    return TorsionDescriptor(w=1)


def kronecker_at(d: FundamentalDiscriminant, p: int) -> str:
    """Local behavior of the prime p: ramified wins over the symbol value."""
    if d.value % p == 0:
        return RAMIFIED
    return SPLIT if kronecker(d.value, p) == 1 else INERT
