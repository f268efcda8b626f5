"""Oracle cross-check suites, shared by `iqgalois verify` and the acceptance tests.

Each suite returns a list of failure descriptions; an empty list means it
passed.  The oracles are independent of the production paths they check:
group laws and reduced-form enumeration against the class-number count,
exhaustive subgroup enumeration against the closed coordinate forms, the
explicit generator of a^p against its compact image, and the direct mod-8
computation against the p = 2 discriminant families.
"""

import random

import numpy as np

from .discriminant import FundamentalDiscriminant, genus_two_rank, validate
from .idealgen import QuadraticInteger, explicit_power_generator, torsion_power_generator
from .localtest import (
    build_context,
    generic_membership,
    local_unit_image,
    subgroup_index,
    two_classification,
    two_direct_check,
)
from .quadform import (
    QuadForm,
    class_group,
    class_number,
    compose,
    enumerate_reduced_forms,
    inverse,
    principal_form,
    reduce_form,
)
from .survey import BLOCK_SIZE, _blocks, _odd_bases, class_numbers_range, fundamental_mask

FORM_DISCRIMINANTS = (-23, -47, -84, -479, -1051, -3299)

# (p, D): every splitting type at p <= 13, plus p = 3 ramified with a local
# cube root of unity (D = -39)
LOCAL_CASES = (
    (3, -39), (3, -23), (3, -15), (3, -7),
    (5, -23), (5, -20), (5, -19),
    (7, -47), (7, -7), (7, -4),
    (11, -15), (11, -11), (11, -7),
    (13, -39), (13, -8), (13, -4),
)
INDEX_MAX_P = 7
UNITS_PER_CASE = 100


def forms() -> list[str]:
    """Group laws, and class_number against enumeration, on sampled discriminants."""
    rng = random.Random(20240)
    failures = []
    for D in FORM_DISCRIMINANTS:
        reduced = enumerate_reduced_forms(D)
        one = principal_form(D)
        for _ in range(50):
            f, g, k = (rng.choice(reduced) for _ in range(3))
            if compose(compose(f, g), k) != compose(f, compose(g, k)):
                failures.append(f"associativity broke at D={D}: {f} {g} {k}")
            if compose(f, g) != compose(g, f):
                failures.append(f"commutativity broke at D={D}: {f} {g}")
            if compose(f, one) != reduce_form(f) or compose(f, inverse(f)) != one:
                failures.append(f"identity/inverse law broke at D={D}: {f}")
        if class_number(D) != len(reduced):
            failures.append(f"class_number disagrees with enumeration at D={D}")
    return failures


def quotient_index() -> list[str]:
    """The torsion-times-p-th-powers subgroup has index p^2 (cases p <= 7)."""
    return [
        f"quotient index at (p={p}, D={D}) is not p^2"
        for p, D in LOCAL_CASES
        if p <= INDEX_MAX_P and subgroup_index(build_context(validate(D), p)) != p * p
    ]


def local_engines() -> list[str]:
    """Closed forms against the enumerative engine on random local units."""
    rng = random.Random(757)
    failures = []
    for p, D in LOCAL_CASES:
        ctx = build_context(validate(D), p)
        span = 6 * p * p
        done = 0
        while done < UNITS_PER_CASE:
            u = rng.randrange(-span, span)
            v = rng.randrange(-span, span)
            if (u - v * D) % 2:
                u += 1
            alpha = QuadraticInteger(u, v, D)
            if alpha.norm == 0 or alpha.norm % p == 0:
                continue
            done += 1
            elt = ctx.ring.embed(u, v)
            if local_unit_image(ctx, elt).trivial != generic_membership(ctx, elt).trivial:
                failures.append(f"engines disagree at (p={p}, D={D}) on {alpha}")
                break
    return failures


def generator_jobs(lo: int, hi: int) -> list[tuple[FundamentalDiscriminant, QuadForm, int]]:
    """(d, form, p) for every odd-p torsion basis form at fundamental |D| in [lo, hi).

    Primes where the p-rank overflows are skipped.
    """
    jobs = []
    for block in _blocks(lo, hi, BLOCK_SIZE):
        for m, h in class_numbers_range(*block):
            d = validate(-m)
            for p, basis in _odd_bases(class_group(d, known_h=h)):
                jobs.extend((d, form, p) for form in basis)
    return jobs


def generators(lo: int, hi: int) -> list[str]:
    """The compact generator image is +-embed(explicit generator) for every job in [lo, hi)."""
    if hi <= max(lo, 3):
        raise ValueError(f"|D| range [{lo}, {hi}) holds no discriminant")
    failures = []
    for d, form, p in generator_jobs(lo, hi):
        ring = build_context(d, p).ring
        alpha = explicit_power_generator(form, p)
        e = ring.embed(alpha.u, alpha.v)
        if torsion_power_generator(form, p, ring) not in (e, ring.mul(e, ring.minus_one)):
            failures.append(f"D={d.value}, p={p}: compact image of {form} is not +-{e}")
    return failures


def two_family_fields(bound: int) -> list[FundamentalDiscriminant]:
    """Fields with |D| <= bound and cyclic nontrivial 2-class group."""
    if bound < 3:
        raise ValueError("bound must be at least 3")
    out = []
    for lo, hi in _blocks(3, bound + 1, BLOCK_SIZE):
        for m in (np.nonzero(fundamental_mask(lo, hi))[0] + lo).tolist():
            d = validate(-m)
            if d.num_prime_divisors == 2:
                out.append(d)
    return out


def two_families(fields: list[FundamentalDiscriminant]) -> list[str]:
    """Family classification against the direct mod-8 computation."""
    failures = []
    for d in fields:
        a = two_classification(d, genus_two_rank(d))
        b = two_direct_check(d)
        if a != b:
            failures.append(f"D={d.value}: families say {a}, direct check says {b}")
    return failures
