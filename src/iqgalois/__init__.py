"""Minimality of absolute abelian Galois groups of imaginary quadratic fields.

The classifier decides, per discriminant, whether the class-group extension
of the inertial Galois group splits over some subgroup; when it does not,
the field's absolute abelian Galois group is the minimal profinite group
Zhat^2 x prod_{n>=1} Z/nZ shared by all class-number-one fields other than
Q(i) and Q(sqrt(-2)).

The survey harness (submodule survey and its six names here) loads on first
use; until then survey sits in sys.modules as a lazy module, for code that
looks it up there (perfbench's tracer).
"""

import importlib.util
import sys

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
from .idealgen import NotPrincipal
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
)
from .quadform import (
    ClassGroupStructure,
    DiscriminantMismatch,
    QuadForm,
    RankOverflow,
    class_group,
    compose,
    coprime_representative,
    inverse,
    p_torsion_basis,
    power,
    principal_form,
    reduce_form,
)

_spec = importlib.util.find_spec(f"{__name__}.survey")
_spec.loader = importlib.util.LazyLoader(_spec.loader)
survey = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(survey)
del _spec
_SURVEY_NAMES = ("SurveyConfig", "SurveyRow", "persist", "scan", "table1", "table3")


def __getattr__(name: str):
    if name in _SURVEY_NAMES:
        return getattr(survey, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SURVEY_NAMES})

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
    "RankOverflow",
    "SurveyConfig",
    "SurveyRow",
    "TorsionDescriptor",
    "build_context",
    "class_group",
    "classify",
    "compose",
    "coprime_representative",
    "generic_membership",
    "genus_two_rank",
    "injectivity_test",
    "inverse",
    "kronecker_at",
    "local_unit_image",
    "p_torsion_basis",
    "persist",
    "power",
    "principal_form",
    "reduce_form",
    "scan",
    "table1",
    "table3",
    "torsion_descriptor",
    "two_classification",
    "validate",
    "verdict_description",
]
