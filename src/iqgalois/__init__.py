"""Minimality of absolute abelian Galois groups of imaginary quadratic fields.

The classifier decides, per discriminant, whether the class-group extension
of the inertial Galois group splits over some subgroup; when it does not,
the field's absolute abelian Galois group is the minimal profinite group
Zhat^2 x prod_{n>=1} Z/nZ shared by all class-number-one fields other than
Q(i) and Q(sqrt(-2)).
"""

from .classify import ClassificationRecord, classify, verdict_description
from .discriminant import (
    FundamentalDiscriminant,
    NotFundamental,
    NotImaginary,
    TorsionDescriptor,
    genus_two_rank,
    kronecker_at,
    torsion_descriptor,
    validate,
)
from .idealgen import (
    NotPrincipal,
    QuadIdeal,
    QuadraticInteger,
    form_to_ideal,
    ideal_multiply,
    ideal_power,
    ideal_to_form,
    principal_generator,
)
from .localtest import (
    GroupTooLarge,
    LocalContext,
    NotLocalUnit,
    PhiImage,
    build_context,
    generic_membership,
    injectivity_test,
    local_unit_image,
    two_classification,
    two_direct_check,
)
from .quadform import (
    ClassGroupStructure,
    DiscriminantMismatch,
    QuadForm,
    RankOverflow,
    class_group,
    compose,
    coprime_representative,
    enumerate_reduced_forms,
    inverse,
    p_torsion_basis,
    power,
    principal_form,
    reduce_form,
)
from .survey import SurveyConfig, SurveyRow, persist, scan, table1, table3

__version__ = "0.1.0"

__all__ = [
    "ClassGroupStructure",
    "ClassificationRecord",
    "DiscriminantMismatch",
    "FundamentalDiscriminant",
    "GroupTooLarge",
    "LocalContext",
    "NotFundamental",
    "NotImaginary",
    "NotLocalUnit",
    "NotPrincipal",
    "PhiImage",
    "QuadForm",
    "QuadIdeal",
    "QuadraticInteger",
    "RankOverflow",
    "SurveyConfig",
    "SurveyRow",
    "TorsionDescriptor",
    "build_context",
    "class_group",
    "classify",
    "compose",
    "coprime_representative",
    "enumerate_reduced_forms",
    "form_to_ideal",
    "generic_membership",
    "genus_two_rank",
    "ideal_multiply",
    "ideal_power",
    "ideal_to_form",
    "injectivity_test",
    "inverse",
    "kronecker_at",
    "local_unit_image",
    "p_torsion_basis",
    "persist",
    "power",
    "principal_form",
    "principal_generator",
    "reduce_form",
    "scan",
    "table1",
    "table3",
    "torsion_descriptor",
    "two_classification",
    "two_direct_check",
    "validate",
    "verdict_description",
]
