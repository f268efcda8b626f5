"""The vectorized class-number sieve against the plain (a, b) loop."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqgalois.quadform import CLASS_NUMBER_LIMIT, enumerate_reduced_forms
from iqgalois.survey import BLOCK_SIZE, fundamental_mask, reduced_form_counts

from _oracles import reduced_form_counts_loop


def _edge_windows():
    """Windows of 1 to 16 |D| that hold 3a^2 or 4a^2, the |D| of (a, a, a) and (a, 0, a).

    Each such |D| first and last in its window, near 1e6; then windows that
    hold both: 3 * 627^2 = 1,179,387 and 4 * 543^2 = 1,179,396, and near 1e8
    3 * 5822^2 = 101,687,052 and 4 * 5042^2 = 101,687,056.
    """
    for m in (3 * 577**2, 3 * 578**2, 4 * 500**2, 4 * 501**2):
        for w in (1, 16):
            yield from {(m, m + w), (m - w + 1, m + 1)}
    yield 1_179_385, 1_179_398
    yield 101_687_050, 101_687_060


# full blocks, then narrow ones; the two at 1e7 are narrower than 4a for most
# a, so most (a, c) cells hold one b or none.  The sieve cuts its runs of a
# by their cells plus width / 4 per a, the last one cut short at amax: at
# 1e7 + 1, widths 1 and 7 put up to 361 a in a run and 1,600 up to 39, and
# the 1e4-block at 2e6 up to 7.  Last come the cell edges, _edge_windows.
@pytest.mark.parametrize(
    "lo, hi",
    [(lo, lo + BLOCK_SIZE) for lo in (3, 10**5, 10**6)]
    + [(3, 4), (3, 50), (10**7, 10**7 + 1), (10**7 + 17, 10**7 + 900)]
    + [(10**7 + 1, 10**7 + 1 + w) for w in (1, 7, 1600)]
    + [(2 * 10**6, 2 * 10**6 + BLOCK_SIZE)]
    + sorted(_edge_windows()),
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


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 2**26 - 1))
@example(k=1)
@example(k=2**26 - 1)
def test_float_sqrt_is_exact_below_2_to_52(k):
    # the sieve's roots: integers below 2^52 (reduced_form_counts); next to
    # a square is where rounding could spoil floor and ceil
    for x in (k * k - 1, k * k, k * k + 1):
        root = np.sqrt(np.float64(x))
        assert int(np.floor(root)) == math.isqrt(x)
        assert int(np.ceil(root)) == (math.isqrt(x - 1) + 1 if x else 0)


def test_sieve_scratch_stays_small():
    lo, hi = 10**7, 10**7 + BLOCK_SIZE
    reduced_form_counts(lo, hi)  # numpy's first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        reduced_form_counts(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (a, b) grid's sieve peaked at 935,398 bytes here; the cells keep within 10 % of it
    assert peak <= 1_029_000


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


@pytest.mark.parametrize("sieve", [reduced_form_counts, fundamental_mask], ids=lambda f: f.__name__)
def test_sieve_rejects_a_range_that_ends_before_it_starts(sieve):
    with pytest.raises(ValueError, match=r"^\|D\| range \[100, 90\) ends before it starts$"):
        sieve(100, 90)


@pytest.mark.parametrize(
    "sieve, dtype", [(reduced_form_counts, np.int64), (fundamental_mask, np.bool_)],
    ids=["reduced_form_counts", "fundamental_mask"],
)
@pytest.mark.parametrize("lo", [3, 100, 10**7])
def test_sieve_of_an_empty_range_is_empty(lo, sieve, dtype):
    out = sieve(lo, lo)
    assert out.size == 0 and out.dtype == dtype
