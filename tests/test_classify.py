import random

import pytest

from iqgalois.classify import classify, classify_validated, verdict_description
from iqgalois.discriminant import NotFundamental, NotImaginary, validate
from iqgalois.idealgen import explicit_power_generator
from iqgalois.quadform import class_group, p_torsion_basis, power, principal_form
from iqgalois.survey import class_numbers_range

from _oracles import is_perfect_power


def test_examples():
    assert classify(-20).verdict == "MINIMAL"
    r107 = classify(-107)
    assert r107.verdict == "NOT_MINIMAL" and r107.status_at(3) == "noninjective"
    assert classify(-8).verdict == "EXCEPTIONAL"
    assert classify(-4).verdict == "EXCEPTIONAL"
    assert classify(-7).verdict == "MINIMAL"
    assert classify(-3).verdict == "MINIMAL"


def test_validation_errors_propagate():
    with pytest.raises(NotFundamental):
        classify(-12)
    with pytest.raises(NotImaginary):
        classify(20)


def test_determinism():
    assert classify(-479) == classify(-479)


def test_record_invariants():
    for m in (3, 4, 7, 8, 20, 23, 84, 107, 420, 479, 3299):
        r = classify(-m)
        assert (r.verdict == "EXCEPTIONAL") == (m in (4, 8))
        assert r.assumes_converse == (r.verdict == "NOT_MINIMAL")
        if r.verdict == "MINIMAL":
            assert r.h == 1 or all(s == "injective" for _, s in r.per_prime)


def test_per_prime_covers_h_without_short_circuit():
    r = classify_validated(validate(-84), short_circuit=False)  # h = 4, only p = 2
    assert [p for p, _ in r.per_prime] == [2]
    r455 = classify_validated(validate(-455), short_circuit=False)  # h = 20 = 2^2 * 5
    assert [p for p, _ in r455.per_prime] == [2, 5]
    assert r455.status_at(3) == "skipped"


def test_short_circuit_stops_at_first_failure():
    # h(-455) = 20 with noncyclic 2-part: fails at 2, so 5 is never reached
    r = classify(-455)
    assert r.per_prime == ((2, "noninjective"),)
    assert r.verdict == "NOT_MINIMAL"


def test_rank_overflow_paths():
    r420 = classify(-420)  # 2-rank 3
    assert r420.status_at(2) == "rank_overflow" and r420.verdict == "NOT_MINIMAL"
    d = validate(-3321607)
    r = classify_validated(d, cg=class_group(d, known_h=567))
    assert r.status_at(3) == "rank_overflow" and r.verdict == "NOT_MINIMAL"


def test_two_rank_recorded():
    assert classify(-20).two_rank == 1
    assert classify(-7).two_rank == 0
    assert classify(-420).two_rank == 3


def test_verdict_descriptions():
    assert "minimal group G" in verdict_description(classify(-20))
    assert "4n" in verdict_description(classify(-4))
    assert "order 4" in verdict_description(classify(-8))
    d107 = verdict_description(classify(-107))
    assert "splits over a subgroup" in d107 and "converse" in d107


def test_generator_never_perfect_power_for_nontrivial_class():
    # recovering alpha for a nontrivial p-torsion class: alpha generates a^p
    # but is never itself a p-th power in the order
    rng = random.Random(2024)
    pool = []
    for m, h in class_numbers_range(3, 4000):
        for p in (3, 5, 7):
            if h % p == 0:
                pool.append((m, h, p))
    assert len(pool) >= 60
    for m, h, p in rng.sample(pool, 20):
        d = validate(-m)
        cg = class_group(d, known_h=h)
        if cg.p_rank(p) >= 3:
            continue
        for form in p_torsion_basis(cg, p):
            assert power(form, p) == principal_form(-m)
            assert form != principal_form(-m)
            alpha = explicit_power_generator(form, p)
            assert not is_perfect_power(alpha, p), (m, p, alpha)


def test_odd_prime_status_agrees_with_generic_engine():
    # end-to-end dual route: the closed-form verdict at every odd prime must
    # match a re-derivation through exhaustive subgroup membership
    from iqgalois.arith import factorize
    from iqgalois.classify import status_at_odd_prime
    from iqgalois.localtest import build_context, generic_membership, injectivity_test

    for m, h in class_numbers_range(3, 2500):
        d = validate(-m)
        for p, _ in factorize(h) if h > 1 else []:
            if p == 2 or p > 13:
                continue
            cg = class_group(d, known_h=h)
            if cg.p_rank(p) >= 3:
                continue
            ctx = build_context(d, p)
            alphas = [explicit_power_generator(f, p) for f in p_torsion_basis(cg, p)]
            images = [generic_membership(ctx, ctx.ring.embed(a.u, a.v)) for a in alphas]
            brute = "injective" if injectivity_test(ctx, images) else "noninjective"
            assert status_at_odd_prime(d, cg, p) == brute, (m, p)


def test_to_dict_round_trip_fields():
    r = classify(-107)
    d = r.to_dict()
    assert d["discriminant"] == -107 and d["verdict"] == "NOT_MINIMAL"
    assert d["per_prime"] == [[3, "noninjective"]]
    assert d["torsion"]["w"] == 1
