"""The vectorized class-number sieve against the plain (a, b) loop."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqgalois.quadform import CLASS_NUMBER_LIMIT, enumerate_reduced_forms
from iqgalois.survey import BLOCK_SIZE, fundamental_mask, reduced_form_counts

from _oracles import reduced_form_counts_loop


# full blocks, then narrow ones; the two at 1e7 are narrower than 4a for most
# a, so most b get an empty c-range.  The sieve takes a in runs sized by the
# width, the last one cut short at amax: in the last four blocks, widths 1
# and 7 put up to 127 a in a run, 1,600 up to 37 and 1e4 up to 6.
@pytest.mark.parametrize(
    "lo, hi",
    [(lo, lo + BLOCK_SIZE) for lo in (3, 10**5, 10**6)]
    + [(3, 4), (3, 50), (10**7, 10**7 + 1), (10**7 + 17, 10**7 + 900)]
    + [(10**7 + 1, 10**7 + 1 + w) for w in (1, 7, 1600)]
    + [(2 * 10**6, 2 * 10**6 + BLOCK_SIZE)],
)
def test_sieve_matches_loop(lo, hi):
    assert np.array_equal(reduced_form_counts(lo, hi), reduced_form_counts_loop(lo, hi))


@pytest.mark.parametrize("mid", [10**7 + 1, 10**7 + 1600, 10**7 + 5003])
def test_counts_do_not_depend_on_block_edges(mid):
    lo, hi = 10**7, 10**7 + BLOCK_SIZE
    split = np.concatenate([reduced_form_counts(lo, mid), reduced_form_counts(mid, hi)])
    assert np.array_equal(reduced_form_counts(lo, hi), split)


@settings(max_examples=200, deadline=None)
@given(x=st.integers(1, 4 * CLASS_NUMBER_LIMIT), y=st.integers(1, 4 * 10**7))
def test_float_floor_of_a_quotient_is_exact(x, y):
    # the sieve's floors: numerators below 4/3 CLASS_NUMBER_LIMIT, divisors below 4 amax;
    # a quotient just short of an integer is the case rounding could spoil
    for num in (x, x // y * y - 1, x // y * y):
        assert int(np.floor(np.float64(num) / np.float64(y))) == num // y


def test_sieve_rejects_past_class_number_limit():
    with pytest.raises(ValueError):
        reduced_form_counts(CLASS_NUMBER_LIMIT, CLASS_NUMBER_LIMIT + 2)


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
