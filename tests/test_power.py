"""Square-and-multiply powers against repeated products (hypothesis)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqgalois import quadform
from iqgalois.arith import small_primes
from iqgalois.idealgen import QuadIdeal, form_to_ideal, ideal_power, unit_ideal
from iqgalois.quadform import QuadForm, compose, inverse, power, prime_form, principal_form

from _oracles import is_fundamental, lattice_multiply


@st.composite
def forms(draw):
    """A prime form of a fundamental D > -10^6, moved off its reduced position.

    The shift (a, b, c) -> (a, b + 2ka, ak^2 + bk + c) keeps the class, so
    the power has to reduce its argument.
    """
    D = -draw(st.integers(3, 10**6).filter(is_fundamental))
    start = draw(st.integers(0, 30))
    a, b, c = next(f for q in small_primes()[start:] if (f := prime_form(D, q)) is not None)
    k = draw(st.integers(-3, 3))
    return QuadForm(a, b + 2 * k * a, a * k * k + b * k + c)


@settings(max_examples=60, deadline=None)
@given(f=forms(), n=st.integers(-40, 40))
@example(f=QuadForm(2, 1, 3), n=0)
@example(f=QuadForm(2, 1, 3), n=1)
@example(f=QuadForm(2, 5, 5), n=-1)
def test_power_is_repeated_composition(f, n):
    step = inverse(f) if n < 0 else f
    want = principal_form(f.disc)
    for _ in range(abs(n)):
        want = compose(want, step)
    assert power(f, n) == want


@settings(max_examples=40, deadline=None)
@given(f=forms(), content=st.integers(1, 3), n=st.integers(0, 12))
@example(f=QuadForm(3, 1, 2), content=1, n=0)
@example(f=QuadForm(3, 1, 2), content=1, n=1)
def test_ideal_power_is_repeated_multiplication(f, content, n):
    ideal = form_to_ideal(f)
    ideal = QuadIdeal(ideal.a, ideal.b, content, ideal.disc)
    want = unit_ideal(f.disc)
    for _ in range(n):
        want = lattice_multiply(want, ideal)
    assert ideal_power(ideal, n) == want


def test_power_zero_still_validates():
    # the principal form is returned only after f itself passed reduction
    with pytest.raises(ValueError):
        power(QuadForm(-1, 1, 1), 0)


def test_power_compose_count(monkeypatch):
    # bit_length(n) - 1 squarings and popcount(n) - 1 products, none by the
    # identity; counted through the module global that power looks up
    calls = []
    real = quadform.compose_unreduced
    monkeypatch.setattr(quadform, "compose_unreduced", lambda f, g: calls.append(1) or real(f, g))
    f = prime_form(-1000003, 13)
    for n in range(1, 300):
        calls.clear()
        power(f, n)
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1, n
