"""Exact classification tools for real forms of threefold Mori fiber
spaces carrying a maximal connected symmetry group.

The heart of the package is exact cyclotomic arithmetic with its one
sparse polynomial type and one row reduction (`exact`), the
finite subgroups of PGL2 with their Galois cohomology (`groups`), and
the classification machinery for quadric fibrations over the line with
prescribed symmetry (`quadrics`).  Supporting modules cover the
intersection lattices of the ambient families (`lattices`), the curated
registry of real forms with their verifiable witnesses (`registry`),
and the twisted P1-bundle gluing checks (`schwarzenberger`).
"""

from .exact import Cyclo, Mat2, Poly, Poly2, VerificationError, square_test
from .groups import (GroupSpec, group_elements, h1_classes, h1_named,
                     h1_names, semi_invariant_character)
from .lattices import FamilyId, aut_component_count, in_theorem_list, model
from .parsing import ParseError, parse_poly, render_poly
from .quadrics import (
    AmbiguousSymmetryError,
    ApplicabilityError,
    FLabel,
    FormCounts,
    FormDescriptor,
    QgInstance,
    RealFormReport,
    UndecidableError,
    check_psi_h,
    check_real_structure,
    detect_symmetry,
    enumerate_forms,
    form_counts,
    psi_pullback_identity,
    realizable,
)
from .registry import (
    TorusShape,
    forms_of,
    links_from,
    signature,
    tori_conjugate,
    torus_forms,
    torus_shape_of_involution,
    verify_involution,
    verify_witness,
)
from .schwarzenberger import hom_sym, verify_gluing

__version__ = "0.1.0"

__all__ = [
    "Cyclo",
    "Mat2",
    "Poly",
    "Poly2",
    "VerificationError",
    "square_test",
    "GroupSpec",
    "group_elements",
    "h1_classes",
    "h1_named",
    "h1_names",
    "semi_invariant_character",
    "FamilyId",
    "aut_component_count",
    "in_theorem_list",
    "model",
    "ParseError",
    "parse_poly",
    "render_poly",
    "AmbiguousSymmetryError",
    "ApplicabilityError",
    "FLabel",
    "FormCounts",
    "FormDescriptor",
    "QgInstance",
    "RealFormReport",
    "UndecidableError",
    "check_psi_h",
    "check_real_structure",
    "detect_symmetry",
    "enumerate_forms",
    "form_counts",
    "psi_pullback_identity",
    "realizable",
    "TorusShape",
    "forms_of",
    "links_from",
    "signature",
    "tori_conjugate",
    "torus_forms",
    "torus_shape_of_involution",
    "verify_involution",
    "verify_witness",
    "hom_sym",
    "verify_gluing",
    "__version__",
]
