import numpy as np
import pytest

from iqgalois import survey
from iqgalois.arith import factorize
from iqgalois.discriminant import (
    GENERIC,
    SPECIAL2,
    NotFundamental,
    NotImaginary,
    genus_two_rank,
    kronecker_at,
    torsion_descriptor,
    validate,
)
from iqgalois.quadform import class_group

from _oracles import quadratic_residues


def test_validate_minus_20():
    d = validate(-20)
    assert d.value == -20
    assert d.prime_factors == ((2, 2), (5, 1))
    assert d.num_prime_divisors == 2


@pytest.mark.parametrize("bad", [-21, -12, -27, -75, -100])
def test_validate_rejects_nonfundamental(bad):
    with pytest.raises(NotFundamental):
        validate(bad)


@pytest.mark.parametrize("bad", [0, 5, 20])
def test_validate_rejects_nonnegative(bad):
    with pytest.raises(NotImaginary):
        validate(bad)


def test_validate_roundtrip_and_factor_product():
    for m in range(3, 400):
        try:
            d = validate(-m)
        except (NotFundamental, NotImaginary):
            continue
        assert d.value == -m
        prod = 1
        for p, e in d.prime_factors:
            prod *= p**e
        assert prod == m


def test_genus_two_rank_examples():
    assert genus_two_rank(validate(-20)) == 1
    assert genus_two_rank(validate(-7)) == 0
    assert genus_two_rank(validate(-420)) == 3
    # the -420 value must match the actual class group
    assert class_group(validate(-420)).p_rank(2) == 3


def test_two_rank_matches_class_group_small_range():
    for m in range(3, 1500):
        try:
            d = validate(-m)
        except (NotFundamental, NotImaginary):
            continue
        cg = class_group(d)
        assert cg.p_rank(2) == genus_two_rank(d), f"D=-{m}"


def test_torsion_descriptor_generic():
    t = torsion_descriptor(validate(-20))
    assert t.w == 1 and t.shape == GENERIC and not t.excluded_summands
    assert torsion_descriptor(validate(-3)).w == 1
    assert torsion_descriptor(validate(-7)).w == 1


def test_torsion_descriptor_exceptional_fields():
    t4 = torsion_descriptor(validate(-4))
    assert t4.w == 4 and t4.excluded_summands == {2} and not t4.special_case
    t8 = torsion_descriptor(validate(-8))
    assert t8.w == 8 and t8.special_case and t8.shape == SPECIAL2
    assert t8.excluded_summands == {4}


def test_torsion_descriptor_invariants():
    for m in range(3, 300):
        try:
            d = validate(-m)
        except (NotFundamental, NotImaginary):
            continue
        t = torsion_descriptor(d)
        assert (t.w == 1) == (not t.excluded_summands)
        for p in (2, 3, 5):
            if t.w % p == 0:
                assert t.w % (p * p) == 0


def test_kronecker_at_examples():
    assert kronecker_at(validate(-20), 5) == "ramified"
    # independent residue oracle: -23 = 1 and -20 = 1 mod 3, both residues
    assert -23 % 3 in quadratic_residues(3)
    assert kronecker_at(validate(-23), 3) == "split"
    assert -20 % 3 in quadratic_residues(3)
    assert kronecker_at(validate(-20), 3) == "split"
    assert kronecker_at(validate(-23), 5) == "inert"


def test_kronecker_at_against_residue_oracle():
    for m in (15, 20, 23, 39, 47, 84, 107, 420):
        d = validate(-m)
        for p in (3, 5, 7, 11, 13):
            tag = kronecker_at(d, p)
            if m % p == 0:
                assert tag == "ramified"
            elif (-m) % p in quadratic_residues(p) - {0}:
                assert tag == "split"
            else:
                assert tag == "inert"


def _fundamental(lo: int, hi: int) -> list[int]:
    return (np.nonzero(survey.fundamental_mask(lo, hi))[0] + lo).tolist()


@pytest.mark.parametrize(
    "lo, hi, rho",
    [
        (3, 20_000, False),
        (10**6, 10**6 + 10**4, False),
        (10**7, 10**7 + 10**4, False),
        (65521**2 - 2000, 65521**2 + 2000, True),
        (10**12, 10**12 + 300, True),
        # one |D| below 9, where no prime or only 2 is at most its square root
        (3, 4, False),
        (4, 5, False),
        (7, 8, False),
        (8, 9, False),
    ],
)
def test_block_factors_equal_factorize(lo, hi, rho, monkeypatch):
    # a cofactor past 65521^2 goes to factorize's Pollard rho tail
    tails = []
    large = survey.large_factors
    monkeypatch.setattr(survey, "large_factors", lambda n: tails.append(n) or large(n))
    ms = _fundamental(lo, hi)
    got = survey.block_factors(ms)
    assert got == [factorize(m) for m in ms]
    assert all(type(q) is int and type(e) is int for factors in got for q, e in factors)
    assert len(ms) > 1 or hi - lo == 1
    assert bool(tails) == rho and all(n > 65521**2 for n in tails)
    assert survey.block_factors([]) == []


def test_validate_takes_factors_and_refuses_wrong_ones():
    assert validate(-20, factors=[(2, 2), (5, 1)]) == validate(-20)
    for D, factors in [(-20, [(2, 2), (3, 1)]), (-20, [(2, 1), (5, 1)]), (-23, [])]:
        with pytest.raises(ValueError, match=r"does not multiply out to \|D\|") as refused:
            validate(D, factors=factors)
        assert type(refused.value) is ValueError
    # the odd squares of 99 = 3^2 * 11 and 36 = 2^2 * 3^2, with D = 1 mod 4 and D/4 = 3 mod 4
    with pytest.raises(NotFundamental, match="^D = -99 is not squarefree$"):
        validate(-99, factors=[(3, 2), (11, 1)])
    with pytest.raises(NotFundamental, match="^D/4 = -9 is not squarefree$"):
        validate(-36, factors=[(2, 2), (3, 2)])
