"""Intersection lattices of the ambient threefold families.

Each family of Mori fiber spaces handled by the package carries a small
amount of numerical data: a basis of the divisor class group, a basis of
the curve class group, the intersection pairing between them, the
canonical class, and the generators of the cone of effective curves with
their intersection numbers against the canonical class.  For the
decomposable bundles over Hirzebruch surfaces and for the quadric cone
bundles over P(1,1,2) the full tables are stored; the other families are
recorded at the resolution actually needed downstream — the extremal
rays with their K-intersections and the meaning of each contraction.

Everything is exact (`fractions.Fraction`); the closed-form
K-intersection numbers are re-derived from the stored pairing whenever a
full table is available, so the two presentations can never drift apart.
"""

from fractions import Fraction

from .exact import VerificationError

__all__ = [
    "FamilyId",
    "LatticeModel",
    "Ray",
    "model",
    "pairing",
    "k_negative_rays",
    "in_theorem_list",
    "aut_component_count",
]

FAMILY_KINDS = ("Fabc", "Pb", "Uabc", "Sb", "Vb", "Wb", "Rmn", "Qg")


# ----------------------------------------------------------------------
# family identifiers


class FamilyId:
    """A named family member, with its integer parameters validated.

    Parameters are normalized on construction using the standard
    isomorphisms: ``Fabc(a, b, c)`` is identified with
    ``Fabc(|a|, b, c)`` and with ``Fabc(a, -b, -c)`` (exchange of the
    two fiber coordinates), so that ``a >= 0`` and ``b >= 0`` (and
    ``c >= 0`` when ``b == 0``); ``Pb(b)`` with ``Pb(|b|)``; and
    ``Rmn(m, n)`` with ``Rmn(n, m)``.
    """

    __slots__ = ("kind", "params")

    def __init__(self, kind, params):
        if kind not in FAMILY_KINDS:
            raise ValueError("unknown family kind: %r" % (kind,))
        params = tuple(int(p) for p in params)
        normalize = getattr(self, "_norm_" + kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", normalize(params))

    def __setattr__(self, *a):
        raise AttributeError("FamilyId is immutable")

    # -- per-family validation ---------------------------------------

    @staticmethod
    def _norm_Fabc(params):
        if len(params) != 3:
            raise ValueError("Fabc takes parameters (a, b, c)")
        a, b, c = params
        a = abs(a)
        if b < 0 or (b == 0 and c < 0):
            b, c = -b, -c
        return (a, b, c)

    @staticmethod
    def _norm_Pb(params):
        if len(params) != 1:
            raise ValueError("Pb takes one parameter b")
        return (abs(params[0]),)

    @staticmethod
    def _norm_Uabc(params):
        if len(params) != 3:
            raise ValueError("Uabc takes parameters (a, b, c)")
        a, b, c = params
        if a < 1 or b < 1:
            raise ValueError("Uabc requires a >= 1 and b >= 1")
        if c < 2:
            raise ValueError("Uabc requires c >= 2")
        k, rem = divmod(c - 2, a)
        if rem != 0 or not 0 <= k <= b:
            raise ValueError(
                "Uabc requires c = a*k + 2 with 0 <= k <= b; "
                "got (a, b, c) = (%d, %d, %d)" % (a, b, c))
        return (a, b, c)

    @staticmethod
    def _norm_Sb(params):
        if len(params) != 1:
            raise ValueError("Sb takes one parameter b")
        if params[0] < 1:
            raise ValueError("Sb requires b >= 1")
        return params

    @staticmethod
    def _norm_Vb(params):
        if len(params) != 1:
            raise ValueError("Vb takes one parameter b")
        if params[0] < 2:
            raise ValueError("Vb requires b >= 2 (V_1 is the flag "
                             "variety, listed under Sb)")
        return params

    @staticmethod
    def _norm_Wb(params):
        if len(params) != 1:
            raise ValueError("Wb takes one parameter b")
        if params[0] < 2:
            raise ValueError("Wb requires b >= 2")
        return params

    @staticmethod
    def _norm_Rmn(params):
        if len(params) != 2:
            raise ValueError("Rmn takes parameters (m, n)")
        m, n = params
        if m < 0 or n < 0:
            raise ValueError("Rmn requires m, n >= 0")
        if m < n:
            m, n = n, m
        return (m, n)

    @staticmethod
    def _norm_Qg(params):
        if len(params) != 1:
            raise ValueError("Qg takes one parameter n (half the fiber "
                             "polynomial degree)")
        if params[0] < 1:
            raise ValueError("Qg requires n >= 1")
        return params

    # -- constructors --------------------------------------------------

    @classmethod
    def fabc(cls, a, b, c):
        return cls("Fabc", (a, b, c))

    @classmethod
    def pb(cls, b):
        return cls("Pb", (b,))

    @classmethod
    def uabc(cls, a, b, c):
        return cls("Uabc", (a, b, c))

    @classmethod
    def sb(cls, b):
        return cls("Sb", (b,))

    @classmethod
    def vb(cls, b):
        return cls("Vb", (b,))

    @classmethod
    def wb(cls, b):
        return cls("Wb", (b,))

    @classmethod
    def rmn(cls, m, n):
        return cls("Rmn", (m, n))

    @classmethod
    def qg(cls, n):
        return cls("Qg", (n,))

    # -- display --------------------------------------------------------

    @property
    def label(self):
        if self.kind == "Fabc":
            a, b, c = self.params
            return "F_%d^{%d,%d}" % (a, b, c)
        if self.kind == "Pb":
            return "P_%d" % self.params
        if self.kind == "Uabc":
            a, b, c = self.params
            return "U_%d^{%d,%d}" % (a, b, c)
        if self.kind == "Sb":
            return "S_%d" % self.params
        if self.kind == "Vb":
            return "V_%d" % self.params
        if self.kind == "Wb":
            return "W_%d" % self.params
        if self.kind == "Rmn":
            return "R_(%d,%d)" % self.params
        return "Q_g[deg 2n, n=%d]" % self.params

    def __eq__(self, other):
        return (isinstance(other, FamilyId)
                and self.kind == other.kind and self.params == other.params)

    def __hash__(self):
        return hash((self.kind, self.params))

    def __repr__(self):
        return "FamilyId(%r, %r)" % (self.kind, self.params)


# ----------------------------------------------------------------------
# lattice models


class Ray:
    """An extremal-ray generator with its K-intersection number.

    ``vector`` expresses the generator in the curve basis of the model;
    ``contraction`` describes the quoted geometric meaning of
    contracting the ray, when one is stated.
    """

    __slots__ = ("name", "vector", "k_dot", "contraction")

    def __init__(self, name, vector, k_dot, contraction=None):
        self.name = name
        self.vector = tuple(Fraction(v) for v in vector)
        self.k_dot = Fraction(k_dot)
        self.contraction = contraction

    def as_dict(self):
        return {
            "name": self.name,
            "vector": [str(v) for v in self.vector],
            "k_dot": str(self.k_dot),
            "contraction": self.contraction,
        }

    def __repr__(self):
        return "Ray(%s, K.%s = %s)" % (self.name, self.name, self.k_dot)


class LatticeModel:
    """Numerical intersection data for one family member.

    ``pairing_matrix`` maps ``(curve, divisor)`` name pairs to exact
    intersection numbers and ``canonical`` gives the canonical class in
    the divisor basis; both are empty for the families recorded only at
    extremal-ray resolution.  ``relations`` stores named derived curve
    classes as combinations of the basis.
    """

    __slots__ = ("family", "divisor_basis", "curve_basis", "pairing_matrix",
                 "canonical", "cone_generators", "k_dots", "relations")

    def __init__(self, family, divisor_basis, curve_basis, pairing_matrix,
                 canonical, cone_generators, k_dots, relations=()):
        self.family = family
        self.divisor_basis = tuple(divisor_basis)
        self.curve_basis = tuple(curve_basis)
        self.pairing_matrix = dict(pairing_matrix)
        self.canonical = dict(canonical)
        self.cone_generators = tuple(cone_generators)
        self.k_dots = {name: Fraction(v) for name, v in k_dots.items()}
        self.relations = dict(relations)
        self._check_consistency()

    @property
    def has_full_table(self):
        return bool(self.pairing_matrix)

    def curve_vector(self, name):
        """A named curve class as a vector in the curve basis."""
        if name in self.curve_basis:
            return tuple(Fraction(int(name == base))
                         for base in self.curve_basis)
        if name in self.relations:
            return self.relations[name]
        raise KeyError("unknown curve class %r" % (name,))

    def k_dot_from_table(self, name):
        """Pair the canonical class with a curve using the stored table."""
        if not self.has_full_table:
            raise ValueError("family %s is stored at ray resolution only"
                             % self.family.label)
        vec = self.curve_vector(name)
        total = Fraction(0)
        for coeff, base in zip(vec, self.curve_basis):
            if not coeff:
                continue
            for divisor, kcoeff in self.canonical.items():
                total += coeff * kcoeff * self.pairing_matrix[(base, divisor)]
        return total

    def _check_consistency(self):
        if not self.has_full_table:
            return
        for name, expected in self.k_dots.items():
            got = self.k_dot_from_table(name)
            if got != expected:
                raise VerificationError(
                    "inconsistent tables for %s: K.%s is %s from the "
                    "pairing but %s in closed form"
                    % (self.family.label, name, got, expected))

    def as_dict(self):
        return {
            "family": self.family.label,
            "divisor_basis": list(self.divisor_basis),
            "curve_basis": list(self.curve_basis),
            "pairing": [
                {"curve": c, "divisor": d, "value": str(v)}
                for (c, d), v in sorted(self.pairing_matrix.items())
            ],
            "canonical": {d: str(v) for d, v in self.canonical.items()},
            "cone_generators": [ray.as_dict() for ray in self.cone_generators],
            "k_dots": {name: str(v) for name, v in sorted(self.k_dots.items())},
            "relations": {
                name: [str(v) for v in vec]
                for name, vec in sorted(self.relations.items())
            },
        }

    def __repr__(self):
        return "LatticeModel(%s)" % self.family.label


def _fabc_model(family):
    a, b, c = family.params
    divisors = ("H_z0", "H_y0", "H_x0")
    curves = ("l1", "l2", "l3")
    # Rows: curve, columns: divisor.  The triangular shape reflects that
    # l3 is a fiber of the bundle projection, l2 a fiber direction of the
    # intermediate Hirzebruch surface, and l1 a section-type class.
    table = {
        ("l1", "H_z0"): 1, ("l1", "H_y0"): -a, ("l1", "H_x0"): c,
        ("l2", "H_z0"): 0, ("l2", "H_y0"): 1, ("l2", "H_x0"): -b,
        ("l3", "H_z0"): 0, ("l3", "H_y0"): 0, ("l3", "H_x0"): 1,
    }
    table = {key: Fraction(v) for key, v in table.items()}
    canonical = {
        "H_z0": Fraction(-(a * (b + 1) + 2 - c)),
        "H_y0": Fraction(-(b + 2)),
        "H_x0": Fraction(-2),
    }
    k_dots = {
        "l1": Fraction(a - c - 2),
        "l2": Fraction(b - 2),
        "l3": Fraction(-2),
        "l4": Fraction(a + c - 2),
    }
    relations = {"l4": (Fraction(1), Fraction(0), Fraction(-c))}
    fiber_note = "fibration: structure morphism to F_%d" % a
    if c <= 0:
        gens = (
            Ray("l1", (1, 0, 0), k_dots["l1"]),
            Ray("l2", (0, 1, 0), k_dots["l2"]),
            Ray("l3", (0, 0, 1), k_dots["l3"], fiber_note),
        )
    else:
        gens = (
            Ray("l4", (1, 0, -c), k_dots["l4"]),
            Ray("l2", (0, 1, 0), k_dots["l2"]),
            Ray("l3", (0, 0, 1), k_dots["l3"], fiber_note),
        )
    return LatticeModel(family, divisors, curves, table, canonical,
                        gens, k_dots, relations)


def _wb_model(family):
    (b,) = family.params
    divisors = ("F", "S")
    curves = ("f", "l")
    table = {
        ("f", "F"): Fraction(0), ("f", "S"): Fraction(1),
        ("l", "F"): Fraction(1), ("l", "S"): Fraction(1 - 2 * b, 2),
    }
    canonical = {"F": Fraction(-(2 * b + 3), 2), "S": Fraction(-2)}
    k_dots = {"f": Fraction(-2), "l": Fraction(b) - Fraction(5, 2)}
    gens = (
        Ray("f", (1, 0), k_dots["f"],
            "fibration: structure morphism to P(1,1,2)"),
        Ray("l", (0, 1), k_dots["l"]),
    )
    return LatticeModel(family, divisors, curves, table, canonical,
                        gens, k_dots)


def _ray_model(family, rays):
    curves = tuple(ray.name for ray in rays)
    k_dots = {ray.name: ray.k_dot for ray in rays}
    return LatticeModel(family, (), curves, {}, {}, tuple(rays), k_dots)


def model(family):
    """The stored lattice model of a family member.

    Decomposable-bundle and quadric-cone families come with full
    intersection tables; the remaining families are recorded at
    extremal-ray resolution with their quoted K-intersections.
    """
    if not isinstance(family, FamilyId):
        raise TypeError("expected a FamilyId")
    kind = family.kind
    if kind == "Fabc":
        return _fabc_model(family)
    if kind == "Wb":
        return _wb_model(family)
    if kind == "Pb":
        (b,) = family.params
        contraction = None
        if b == 1:
            contraction = ("divisorial: blow-down to P^3 "
                           "(P_1 is P^3 blown up in a point)")
        rays = [
            Ray("f", (1, 0), -2, "fibration: structure morphism to P^2"),
            Ray("l", (0, 1), b - 3, contraction),
        ]
        return _ray_model(family, rays)
    if kind == "Uabc":
        a, b, c = family.params
        k = (c - 2) // a
        rays = [
            Ray("f", (1, 0, 0), -2,
                "fibration: structure morphism to F_%d" % a),
            Ray("s", (0, 1, 0), b - 2),
        ]
        if c > 2:
            rays.append(Ray("l", (0, 0, 1), a * (k + 1)))
        else:
            rays.append(Ray("r", (0, 0, 1), a - 2))
        return _ray_model(family, rays)
    if kind == "Sb":
        (b,) = family.params
        rays = [
            Ray("f", (1, 0), -2, "fibration: structure morphism to P^2"),
            Ray("s1", (0, 1), b - 3),
        ]
        return _ray_model(family, rays)
    if kind == "Vb":
        (b,) = family.params
        rays = [
            Ray("f", (1, 0), -2, "fibration: structure morphism to P^2"),
            Ray("s", (0, 1), b - 3),
        ]
        return _ray_model(family, rays)
    if kind == "Rmn":
        m, n = family.params
        rays = [
            Ray("f", (1, 0), -3, "fibration: structure morphism to P^1"),
            Ray("l", (0, 1), m + n - 2),
        ]
        return _ray_model(family, rays)
    # Qg
    (n,) = family.params
    rays = [
        Ray("f", (1, 0), -2, "fibration: structure morphism to P^1"),
        Ray("h", (0, 1), n - 2),
    ]
    return _ray_model(family, rays)


# ----------------------------------------------------------------------
# queries


def _as_combination(model_obj, expr, names, what):
    if isinstance(expr, str):
        if what == "curve":
            vec = model_obj.curve_vector(expr)
            return dict(zip(model_obj.curve_basis, vec))
        if expr not in names:
            raise KeyError("unknown %s class %r" % (what, expr))
        return {expr: Fraction(1)}
    combo = {}
    for name, coeff in dict(expr).items():
        if what == "curve":
            vec = model_obj.curve_vector(name)
            for base, v in zip(model_obj.curve_basis, vec):
                combo[base] = combo.get(base, Fraction(0)) + Fraction(coeff) * v
        else:
            if name not in names:
                raise KeyError("unknown %s class %r" % (what, name))
            combo[name] = combo.get(name, Fraction(0)) + Fraction(coeff)
    return combo


def pairing(model_obj, curve, divisor):
    """Exact intersection number of a curve class with a divisor class.

    Either argument may be a basis-class name, a derived-class name
    (such as the section class stored in ``relations``), or a dict of
    rational coefficients over the respective basis.
    """
    if not model_obj.has_full_table:
        raise ValueError("family %s is stored at ray resolution only; "
                         "only K-intersections are available"
                         % model_obj.family.label)
    curve_combo = _as_combination(model_obj, curve,
                                  model_obj.curve_basis, "curve")
    divisor_combo = _as_combination(model_obj, divisor,
                                    model_obj.divisor_basis, "divisor")
    total = Fraction(0)
    for cname, ccoeff in curve_combo.items():
        for dname, dcoeff in divisor_combo.items():
            total += ccoeff * dcoeff * model_obj.pairing_matrix[(cname, dname)]
    return total


def k_negative_rays(model_obj):
    """The extremal rays with negative canonical intersection."""
    return [ray for ray in model_obj.cone_generators if ray.k_dot < 0]


def in_theorem_list(family):
    """Whether the member appears in the classification list.

    The list keeps exactly the members whose connected automorphism
    group is maximal; boundary members (for instance the exchange-
    symmetric bundles with ``b = |c|``) fall outside and are reachable
    through `aut_component_count`, which reports their extra component.
    """
    if not isinstance(family, FamilyId):
        raise TypeError("expected a FamilyId")
    kind = family.kind
    if kind == "Fabc":
        a, b, c = family.params
        if a == 1:
            return False
        return ((a, b, c) == (0, 1, -1)
                or (a == 0 and c != 1 and b >= 2 and b >= abs(c))
                or (-a < c < a * (b - 1))
                or (b == 0 and c == 0))
    if kind == "Pb":
        return family.params[0] >= 2
    if kind == "Uabc":
        a, b, c = family.params
        if a == 1:
            return c < b
        return c - 2 < a * b and c - 2 != a * (b - 1)
    if kind == "Sb":
        b = family.params[0]
        return b == 1 or b >= 3
    if kind == "Vb":
        return family.params[0] >= 3
    if kind == "Wb":
        return family.params[0] >= 2
    if kind == "Rmn":
        m, n = family.params
        if (m, n) == (1, 0):
            return False
        return m == n or m > 2 * n
    # Qg: the degree-level condition; whether a concrete fiber
    # polynomial has at least four odd-multiplicity roots is decided by
    # the quadric tools on the polynomial itself.
    return family.params[0] >= 2


_CONNECTED = {"kind": "connected"}


def aut_component_count(family):
    """Component structure of the automorphism group of a member.

    Returns ``{"kind": "connected"}``, or ``{"kind": "two_components",
    "involution": formula}`` with the explicit coordinate involution
    generating the second component, or ``{"kind": "product_with_S3",
    "group": ...}`` for the triple product of lines.  Quadric fibrations
    are refused: their component group depends on the fiber polynomial
    and is computed by the quadric tools instead.
    """
    if not isinstance(family, FamilyId):
        raise TypeError("expected a FamilyId")
    kind = family.kind
    if kind == "Fabc":
        a, b, c = family.params
        if a == 0 and b == 0 and c == 0:
            return {"kind": "product_with_S3",
                    "group": "(PGL2 x PGL2 x PGL2) : S3"}
        if a == 0 and b == abs(c) != 0:
            if c > 0:
                formula = "[x1:x0; z0:z1; y0:y1]"
            else:
                formula = "[x0:x1; z0:z1; y0:y1]"
            return {"kind": "two_components", "involution": formula}
        if b == 0 and a == abs(c) != 0:
            if c > 0:
                formula = "[y0:y1; x1:x0; z0:z1]"
            else:
                formula = "[y0:y1; x0:x1; z0:z1]"
            return {"kind": "two_components", "involution": formula}
        return dict(_CONNECTED)
    if kind == "Sb":
        if family.params[0] == 1:
            return {"kind": "two_components",
                    "involution":
                        "([x0:x1:x2],[y0:y1:y2]) -> ([y0:y1:y2],[x0:x1:x2])"}
        return dict(_CONNECTED)
    if kind == "Qg":
        raise ValueError(
            "the component group of a quadric fibration depends on the "
            "fiber polynomial; classify the polynomial instead")
    return dict(_CONNECTED)
