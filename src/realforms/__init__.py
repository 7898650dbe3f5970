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

import sys
from importlib import import_module
from importlib.util import LazyLoader, find_spec, module_from_spec

# the public names, by the module that defines them; a module is only
# imported when one of its names is first looked up (PEP 562)
_EXPORTS = {
    "exact": "Cyclo Mat2 Poly Poly2 VerificationError square_test",
    "groups": "GroupSpec group_elements h1_classes h1_named h1_names "
              "semi_invariant_character",
    "lattices": "FamilyId aut_component_count in_theorem_list model",
    "parsing": "ParseError parse_poly render_poly",
    "quadrics": "AmbiguousSymmetryError ApplicabilityError FLabel FormCounts "
                "FormDescriptor QgInstance RealFormReport UndecidableError "
                "check_psi_h check_real_structure detect_symmetry "
                "enumerate_forms form_counts psi_pullback_identity "
                "realizable",
    "registry": "TorusShape forms_of links_from signature tori_conjugate "
                "torus_forms torus_shape_of_involution verify_involution "
                "verify_witness",
    "schwarzenberger": "hom_sym verify_gluing",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

# The classification of Q_g needs none of these three.  They are
# registered unexecuted, so code that finds the package's modules in
# sys.modules (to wrap their functions, say) still sees them; each runs
# on its first attribute access.
for _name in ("lattices", "schwarzenberger", "registry"):
    _spec = find_spec("%s.%s" % (__name__, _name))
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value
