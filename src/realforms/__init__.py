"""Exact classification tools for real forms of threefold Mori fiber
spaces carrying a maximal connected symmetry group.

The heart of the package is exact cyclotomic arithmetic with its one
sparse polynomial type (`exact`), the finite subgroups of PGL2 with
their Galois cohomology (`groups`), and the classification machinery
for quadric fibrations over the line with prescribed symmetry
(`quadrics`).  Supporting modules cover the intersection lattices of
the ambient families with the one integer linear-algebra kernel
(`lattices`), the curated registry of real forms and links
(`registry`) with the exact checks behind its stored formulas and
witnesses (`certificates`), the twisted P1-bundle gluing checks
(`schwarzenberger`), `VerificationError` (`errors`) and the
verification suites of the command line (`verify`).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# the public names, by the module that defines them; a module is only
# executed when one of its names is first looked up (PEP 562)
_EXPORTS = {
    "errors": "UndecidableError VerificationError",
    "exact": "Cyclo Mat2 Poly Poly2",
    "groups": "GroupSpec h1_classes h1_named h1_names "
              "semi_invariant_character",
    "lattices": "FamilyId aut_component_count in_theorem_list model",
    "parsing": "ParseError parse_poly render_poly",
    "quadrics": "AmbiguousSymmetryError ApplicabilityError FLabel FormCounts "
                "FormDescriptor QgInstance RealFormReport "
                "check_psi_h check_real_structure detect_symmetry "
                "enumerate_forms form_counts psi_pullback_identity "
                "realizable",
    "registry": "TorusShape forms_of links_from torus_forms "
                "torus_shape_of_involution",
    "certificates": "signature verify_involution verify_witness",
    "schwarzenberger": "hom_sym verify_gluing",
    "verify": "",  # the command line's suites export no name
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

# Every library module is registered in sys.modules unexecuted and bound
# as a package attribute, so ``from . import registry`` returns the stub
# and a module runs only on its first attribute access: a command
# executes just the modules it uses.  Code that finds the package's
# modules in sys.modules (to wrap their functions, say) still sees them.
for _name in _EXPORTS:
    _spec = find_spec("%s.%s" % (__name__, _name))
    _spec.loader = LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value
