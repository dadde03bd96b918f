"""hopfquiver: exact construction and mechanical verification of graded
Majid algebra (dual quasi-Hopf) structures on path coalgebras of Hopf
quivers."""

from .cyclotomic import FieldContext, Scalar, cyclotomic_polynomial, field_context
from .groups import (
    Cocycle3,
    FiniteGroup,
    RamificationData,
    build_group,
    cocycle_from_table,
    cyclic_group,
    dihedral_group,
    small_groups,
    standard_cyclic_cocycle,
    subgroup_generated,
    symmetric_group,
    trivial_cocycle,
    verify_cocycle,
)
from .majid import BimoduleAction, MajidStructure, verify_bimodule, verify_majid_axioms
from .pathcoalg import Element, counit
from .quiver import (
    AbstractQuiver,
    HopfQuiver,
    Path,
    connected_components,
    hopf_quiver,
    paths_up_to,
    recognize_hopf_quiver,
)
from .report import VerificationReport

__all__ = [
    "AbstractQuiver",
    "BimoduleAction",
    "Cocycle3",
    "Element",
    "FieldContext",
    "FiniteGroup",
    "HopfQuiver",
    "MajidStructure",
    "Path",
    "RamificationData",
    "Scalar",
    "VerificationReport",
    "build_group",
    "cocycle_from_table",
    "connected_components",
    "counit",
    "cyclic_group",
    "cyclotomic_polynomial",
    "dihedral_group",
    "field_context",
    "hopf_quiver",
    "paths_up_to",
    "recognize_hopf_quiver",
    "small_groups",
    "standard_cyclic_cocycle",
    "subgroup_generated",
    "symmetric_group",
    "trivial_cocycle",
    "verify_bimodule",
    "verify_cocycle",
    "verify_majid_axioms",
]
