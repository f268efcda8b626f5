"""The vectorized class-number sieve against the plain (a, b) loop."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqgalois.quadform import enumerate_reduced_forms
from iqgalois.survey import BLOCK_SIZE, fundamental_mask, reduced_form_counts

from _oracles import reduced_form_counts_loop


# full blocks, then narrow ones; the two at 1e7 are narrower than 4a for most
# a, so most b get an empty c-range
@pytest.mark.parametrize(
    "lo, hi",
    [(lo, lo + BLOCK_SIZE) for lo in (3, 10**5, 10**6)]
    + [(3, 4), (3, 50), (10**7, 10**7 + 1), (10**7 + 17, 10**7 + 900)],
)
def test_sieve_matches_loop(lo, hi):
    assert np.array_equal(reduced_form_counts(lo, hi), reduced_form_counts_loop(lo, hi))


@settings(max_examples=25, deadline=None)
@given(lo=st.integers(3, 2 * 10**6), width=st.integers(1, 3 * 10**4))
def test_sieve_matches_loop_on_random_blocks(lo, width):
    hi = lo + width
    assert np.array_equal(reduced_form_counts(lo, hi), reduced_form_counts_loop(lo, hi))


def test_sieve_matches_enumeration_at_1e7():
    lo = 10**7
    counts = reduced_form_counts(lo, lo + BLOCK_SIZE)
    fundamental = (np.nonzero(fundamental_mask(lo, lo + BLOCK_SIZE))[0] + lo).tolist()
    for m in random.Random(7).sample(fundamental, 20):
        assert counts[m - lo] == len(enumerate_reduced_forms(-m)), m


def test_sieve_rejects_start_below_3():
    with pytest.raises(ValueError):
        reduced_form_counts(2, 100)
