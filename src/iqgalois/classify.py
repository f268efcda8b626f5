"""End-to-end verdict for one discriminant.

The pipeline per odd prime p dividing h: pick a torsion basis of the class
group, move each basis form to a representative coprime to p, pass to the
ideal side, compute the image in O/p^2 of a generator of the ideal's p-th
power from compact (primitive form, unit mod p^2) states, and test that image
in the local unit quotient.  A survey block decides every odd p of all its
fields at once with lanes.lane_statuses; classify_validated takes the
statuses.  status_at_odd_prime stays the oracle and the route of classify,
tables and verify.  The prime 2 is decided by the discriminant-family
classification.  A p-rank of 3 or more at any prime forces a noninjective
map immediately, since the target has rank 2.

A NOT_MINIMAL verdict carries assumes_converse = True: nonsplitting of the
class-group extension provably forces the minimal Galois group, while the
reverse implication is only known as a stated converse, so the negative
verdict is conditional in a way the positive one is not.
"""

from typing import NamedTuple

from .arith import InvariantViolation
from .discriminant import (
    FundamentalDiscriminant,
    TorsionDescriptor,
    genus_two_rank,
    torsion_descriptor,
    validate,
)
from .idealgen import torsion_power_generator
from .localtest import build_context, injectivity_test, local_unit_image, two_classification
from .quadform import ClassGroupStructure, RankOverflow, class_group, p_torsion_basis

MINIMAL = "MINIMAL"
NOT_MINIMAL = "NOT_MINIMAL"
EXCEPTIONAL = "EXCEPTIONAL"

INJECTIVE = "injective"
NONINJECTIVE = "noninjective"
RANK_OVERFLOW = "rank_overflow"
SKIPPED = "skipped"


class ClassificationRecord(NamedTuple):
    discriminant: int
    h: int
    class_group: tuple[int, ...]
    two_rank: int
    per_prime: tuple[tuple[int, str], ...]
    verdict: str
    assumes_converse: bool
    torsion: TorsionDescriptor

    def status_at(self, p: int) -> str:
        for q, status in self.per_prime:
            if q == p:
                return status
        return SKIPPED

    def to_dict(self) -> dict:
        return {
            "discriminant": self.discriminant,
            "h": self.h,
            "class_group": list(self.class_group),
            "two_rank": self.two_rank,
            "per_prime": [list(t) for t in self.per_prime],
            "verdict": self.verdict,
            "assumes_converse": self.assumes_converse,
            "torsion": {
                "w": self.torsion.w,
                "special_case": self.torsion.special_case,
                "excluded_summands": sorted(self.torsion.excluded_summands),
                "shape": self.torsion.shape,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClassificationRecord":
        """Inverse of to_dict."""
        torsion = data["torsion"]
        return cls(
            discriminant=data["discriminant"],
            h=data["h"],
            class_group=tuple(data["class_group"]),
            two_rank=data["two_rank"],
            per_prime=tuple((p, s) for p, s in data["per_prime"]),
            verdict=data["verdict"],
            assumes_converse=data["assumes_converse"],
            torsion=TorsionDescriptor(
                w=torsion["w"],
                excluded_summands=frozenset(torsion["excluded_summands"]),
                shape=torsion["shape"],
            ),
        )


def status_at_odd_prime(
    d: FundamentalDiscriminant, cg: ClassGroupStructure, p: int, generators: list | None = None
) -> str:
    """Injectivity status of the splitting test at one odd prime p | h.

    generators, when given, holds per form of p_torsion_basis(cg, p) the
    image of its generator; torsion_power_generator computes them when not.
    """
    try:
        basis = p_torsion_basis(cg, p)
    except RankOverflow:
        return RANK_OVERFLOW
    ctx = build_context(d, p)
    images = [
        local_unit_image(ctx, torsion_power_generator(form, p, ctx.ring) if g is None else g)
        for form, g in zip(basis, generators or [None] * len(basis), strict=True)
    ]
    return INJECTIVE if injectivity_test(ctx, images) else NONINJECTIVE


def classify(D: int, short_circuit: bool = True) -> ClassificationRecord:
    """Full verdict for the discriminant D (validation included).

    short_circuit=False evaluates every prime dividing h even after a
    failure; the verdict is unchanged, but survey rows become complete.
    """
    d = validate(D)
    return classify_validated(d, short_circuit=short_circuit)


def status_at_prime(
    d: FundamentalDiscriminant,
    p: int,
    cg: ClassGroupStructure | None = None,
    known_h: int | None = None,
) -> str:
    """Injectivity status at one prime p | h.

    p = 2 follows the discriminant families and needs no class group; at odd
    p the local test runs on cg, built from known_h when not given.
    """
    if p == 2:
        two_rank = genus_two_rank(d)
        if two_rank >= 3:
            return RANK_OVERFLOW
        status = two_classification(d, two_rank)
        if status == SKIPPED:
            raise InvariantViolation(f"2 divides h but the 2-rank of D={d.value} is 0")
        return status
    if cg is None:
        cg = class_group(d, known_h=known_h)
    return status_at_odd_prime(d, cg, p)


def classify_validated(
    d: FundamentalDiscriminant,
    short_circuit: bool = True,
    cg: ClassGroupStructure | None = None,
    statuses: dict[int, str] | None = None,
) -> ClassificationRecord:
    """The verdict for d, on its class group cg, class_group(d) when not given.

    A caller with a trusted class number passes cg = class_group(d,
    known_h=h): table1 its sieve's count, a survey block the groups of
    lanes.class_groups, with by odd p the statuses that lanes.lane_statuses
    decides for the whole block at once; a p without one takes
    status_at_prime.  The 2-rank check below holds either way.
    """
    D = d.value
    torsion = torsion_descriptor(d)
    if D in (-4, -8):
        return ClassificationRecord(D, 1, (), 0, (), EXCEPTIONAL, False, torsion)
    if cg is None:
        cg = class_group(d)
    two_rank = genus_two_rank(d)
    if two_rank != cg.p_rank(2):
        raise InvariantViolation(f"genus 2-rank {two_rank} differs from the class group's at D={D}")
    per_prime: list[tuple[int, str]] = []
    failed = False
    for p in cg.sylow:
        if failed and short_circuit:
            break
        status = (statuses or {}).get(p) or status_at_prime(d, p, cg)
        per_prime.append((p, status))
        failed = failed or status != INJECTIVE
    verdict = NOT_MINIMAL if failed else MINIMAL
    return ClassificationRecord(
        D,
        cg.h,
        cg.invariant_factors,
        two_rank,
        tuple(per_prime),
        verdict,
        verdict == NOT_MINIMAL,
        torsion,
    )


def verdict_description(record: ClassificationRecord) -> str:
    """One human-readable line stating what the verdict means for A_K."""
    if record.verdict == MINIMAL:
        return "A_K = Zhat^2 x prod_{n>=1} Z/nZ (minimal group G)"
    if record.verdict == EXCEPTIONAL:
        missing = ", ".join(str(x) for x in sorted(record.torsion.excluded_summands))
        return (
            f"A_K = Zhat^2 x {record.torsion.describe()} "
            f"(exceptional field: no cyclic summands of order {missing})"
        )
    failing = [f"{p} ({status})" for p, status in record.per_prime if status != INJECTIVE]
    return (
        f"extension splits over a subgroup of order {', '.join(failing)}; "
        "A_K differs from the minimal group G assuming the converse of the "
        "nonsplitting criterion"
    )
