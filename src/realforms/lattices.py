"""Intersection lattices of the ambient threefold families.

The family kinds are one table, ``_KINDS``: the names of a kind's
parameters, the format of its labels and the lower bound of its
parameters.
``FamilyId(kind, params)`` reads it to validate and normalize a member;
it is the one constructor of a member.

Each family member carries a basis of the divisor and of the curve
class group, the pairing between them, the canonical class, and the
extremal rays of the cone of curves with their K-degrees.  The toric
families Fabc, Pb, Wb and Rmn are given once, by their Cox data
(`cox_data`), and all of this is computed from it; names such as l1-l4
or H_x0 are labels on computed classes.  The families that are not
toric (Uabc, Sb, Vb, Qg) keep quoted rays.

The arithmetic is exact and on integers.  A value is an ``int`` when it
is integral and a `fractions.Fraction` only when it is not (the halves
of W_b); ``str`` prints both the same way.  The package's one integer
linear-algebra kernel is here too: D = U A V with U, V unimodular
(`diagonalize`, `back_substitute`, `kernel`), for the weight matrices
of ``certificates`` and the involutions of ``registry``.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul

from .errors import VerificationError, as_int

__all__ = [
    "FamilyId",
    "LatticeModel",
    "cox_data",
    "diagonalize",
    "back_substitute",
    "kernel",
    "Ray",
    "model",
    "in_theorem_list",
    "aut_component_count",
]

# kind -> (parameter names, label format, least value of every parameter
# or None); ``cli._FAMILY_PARAMS`` copies the names, and
# tests/test_package.py checks the copy
_KINDS = {
    "Fabc": ("abc", "F_%d^{%d,%d}", None),
    "Pb": ("b", "P_%d", None),
    "Uabc": ("abc", "U_%d^{%d,%d}", None),
    "Sb": ("b", "S_%d", 1),
    "Vb": ("b", "V_%d", 2),  # V_1 is the flag variety, listed under Sb
    "Wb": ("b", "W_%d", 2),
    "Rmn": ("mn", "R_(%d,%d)", 0),
    "Qg": ("n", "Q_g[deg 2n, n=%d]", 1),
}


# ----------------------------------------------------------------------
# family identifiers


class FamilyId:
    """A named family member, with its integer parameters validated.

    Parameters are normalized on construction using the standard
    isomorphisms: ``Fabc(a, b, c)`` is identified with
    ``Fabc(|a|, b, c)`` and with ``Fabc(a, -b, -c)`` (exchange of the
    two fiber coordinates), so that ``a >= 0`` and ``b >= 0`` (and
    ``c >= 0`` when ``b == 0``); ``Pb(b)`` with ``Pb(|b|)``; and
    ``Rmn(m, n)`` with ``Rmn(n, m)``.  ``Uabc(a, b, c)`` exists for
    ``a, b >= 1`` and ``c = a*k + 2`` with ``0 <= k <= b``.
    """

    __slots__ = ("kind", "params")

    def __init__(self, kind, params):
        if kind not in _KINDS:
            raise ValueError("unknown family kind: %r" % (kind,))
        names, _, least = _KINDS[kind]
        params = tuple(as_int(p, "family parameters") for p in params)
        if len(params) != len(names):
            raise ValueError("%s takes parameters (%s)"
                             % (kind, ", ".join(names)))
        if least is not None and min(params) < least:
            raise ValueError("%s requires %s >= %d"
                             % (kind, ", ".join(names), least))
        if kind == "Fabc":
            a, b, c = params
            if b < 0 or (b == 0 and c < 0):
                b, c = -b, -c
            params = (abs(a), b, c)
        elif kind == "Pb":
            params = (abs(params[0]),)
        elif kind == "Rmn":
            params = tuple(sorted(params, reverse=True))
        elif kind == "Uabc":
            a, b, c = params
            if a < 1 or b < 1 or (c - 2) % a or not 0 <= (c - 2) // a <= b:
                raise ValueError(
                    "Uabc requires a, b >= 1 and c = a*k + 2 with "
                    "0 <= k <= b; got (a, b, c) = (%d, %d, %d)" % params)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

    def __setattr__(self, *a):
        raise AttributeError("FamilyId is immutable")

    @property
    def label(self):
        return _KINDS[self.kind][1] % self.params

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
        self.vector = tuple(vector)
        self.k_dot = k_dot
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
    the divisor basis; both are empty for the families that name no
    divisors (Pb, Rmn and the quoted families).  ``relations`` holds
    named derived curve classes as combinations of the basis.
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
        self.k_dots = dict(k_dots)
        self.relations = dict(relations)

    def curve_vector(self, name):
        """A named curve class as a vector in the curve basis."""
        if name in self.curve_basis:
            return tuple(int(name == base) for base in self.curve_basis)
        if name in self.relations:
            return self.relations[name]
        raise KeyError("unknown curve class %r" % (name,))

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


# ----------------------------------------------------------------------
# the toric families, computed from their Cox data

_FIBRATION = "fibration: structure morphism to "


def cox_data(kind, params):
    """Label, coordinates, torus weights and blocks of a toric member.

    ``weights[i]`` is the class of the divisor ``coords[i] = 0``; the
    coordinates of a block never vanish together.  The parameters are
    taken as given.  This is the only copy of the data: `model` and the
    ambients of ``certificates`` are built on it.
    """
    label = _KINDS[kind][1] % tuple(params)
    if kind == "Fabc":
        a, b, c = params
        return (label, ("x0", "x1", "y0", "y1", "z0", "z1"),
                ((1, -b, 0), (1, 0, -c), (0, 1, -a), (0, 1, 0),
                 (0, 0, 1), (0, 0, 1)),
                ((0, 1), (2, 3), (4, 5)))
    if kind == "Rmn":
        m, n = params
        return (label, ("x0", "x1", "x2", "y0", "y1"),
                ((1, -m), (1, -n), (1, 0), (0, 1), (0, 1)),
                ((0, 1, 2), (3, 4)))
    (b,) = params
    y0, z2 = {"Pb": ((1, -b), (0, 1)), "Wb": ((1, 1 - 2 * b), (0, 2))}[kind]
    return (label, ("y0", "y1", "z0", "z1", "z2"),
            (y0, (1, 0), (0, 1), (0, 1), z2), ((0, 1), (2, 3, 4)))


# ----------------------------------------------------------------------
# integer linear algebra, for weight matrices and character lattices


def diagonalize(matrix):
    """U . A . V = D with U, V unimodular and D diagonal (all integer).

    Returns ``(D, U, V)``.  Each step moves the entry of least absolute
    value to the pivot and reduces its row and column by it (Cohen,
    *A Course in Computational Algebraic Number Theory*, 1993, 2.4).
    """
    d = [[as_int(v, "matrix entries") for v in row] for row in matrix]
    m = len(d)
    n = len(d[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] and (pivot is None
                                or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            d[t], d[i] = d[i], d[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            for row in d:
                row[t], row[j] = row[j], row[t]
            for row in v:
                row[t], row[j] = row[j], row[t]
        dirty = False
        for r in range(t + 1, m):
            if d[r][t]:
                q = d[r][t] // d[t][t]
                if q:
                    d[r] = [a - q * b for a, b in zip(d[r], d[t])]
                    u[r] = [a - q * b for a, b in zip(u[r], u[t])]
                if d[r][t]:
                    dirty = True
        for c in range(t + 1, n):
            if d[t][c]:
                q = d[t][c] // d[t][t]
                if q:
                    for row in d:
                        row[c] -= q * row[t]
                    for row in v:
                        row[c] -= q * row[t]
                if d[t][c]:
                    dirty = True
        if not dirty:
            t += 1
    return d, u, v


def back_substitute(diagonalized, rhs):
    """An integer x with A . x = rhs from U . A . V = D, or None."""
    d, u, v = diagonalized
    m = len(u)
    n = len(v)
    c = [sum(u[i][k] * rhs[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(min(m, n)):
        if d[i][i]:
            if c[i] % d[i][i]:
                return None
            y[i] = c[i] // d[i][i]
        elif c[i]:
            return None
    for i in range(min(m, n), m):
        if c[i]:
            return None
    return [sum(v[i][k] * y[k] for k in range(n)) for i in range(n)]


def kernel(matrix):
    """An integral basis of the kernel of an integer matrix."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    d, _, v = diagonalize(matrix)
    basis = []
    for j in range(n):
        if j >= min(m, n) or d[j][j] == 0:
            basis.append([v[i][j] for i in range(n)])
    return basis


# Labels on computed classes: the divisors D_x as (name, x); the curves
# C{p,q} as (name, p, q), the first `rank` the curve basis; the order in
# which named curves claim extremal directions; the fiber and its base.
# Pb and Rmn name no divisors, so they print no pairing table.
_TORIC_LABELS = {
    "Fabc": ((("H_z0", "z0"), ("H_y0", "y0"), ("H_x0", "x0")),
             (("l1", "x0", "y0"), ("l2", "x0", "z0"), ("l3", "y0", "z0"),
              ("l4", "x1", "y0")),
             ("l1", "l4", "l2", "l3"), ("l3", "F_{0}")),
    # f is the fiber over a smooth point; C{z0,z1} is half of it
    "Wb": ((("F", "z2"), ("S", "y0")),
           (("f", "z0", "z2"), ("l", "y0", "z0")), ("f", "l"),
           ("f", "P(1,1,2)")),
    "Pb": ((), (("f", "z0", "z1"), ("l", "y0", "z0")), ("f", "l"),
           ("f", "P^2")),
    "Rmn": ((), (("f", "x0", "y0"), ("l", "x0", "x1")), ("f", "l"),
            ("f", "P^1")),
}


def _dot(u, v):
    return sum(map(mul, u, v))


def _cofactors(vectors):
    """The n with n.w = det(vectors, w) for every w, in rank 2 or 3."""
    if len(vectors) == 1:
        ((x, y),) = vectors
        return (-y, x)
    (a0, a1, a2), (b0, b1, b2) = vectors
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _det(rows):
    return _dot(_cofactors(rows[:-1]), rows[-1])


def _exact(num, den):
    """num/den as an ``int`` when it is integral, else a `Fraction`."""
    quotient, remainder = divmod(num, den)
    return Fraction(num, den) if remainder else quotient


def _primitive(vector, sign):
    step = math.gcd(*vector) * (1 if sign > 0 else -1)
    return tuple(x // step for x in vector)


@lru_cache(maxsize=None)
def _walls(blocks):
    """The walls tau, pairs of coordinates holding no whole block, each
    with ``fixed``: the r-1 coordinates N left alone in their blocks,
    which do not vanish on the curve tau = 0, and ``ends``: the two left
    in one block, the coordinates a, b of that curve."""
    walls = []
    for tau in map(frozenset, combinations(range(sum(map(len, blocks))), 2)):
        if not any(tau.issuperset(block) for block in blocks):
            fixed, ends = [], []
            for block in blocks:
                left = [k for k in block if k not in tau]
                (fixed if len(left) == 1 else ends).extend(left)
            walls.append((tau, tuple(fixed), tuple(ends)))
    return tuple(walls)


def _curve_class(weights, fixed, ends):
    """The class of a wall's curve as ``(n, d)``: it meets the divisor of
    class w in n.w / d.  With n the cofactors of W_N the curve is the
    weighted line P(n.w_a, n.w_b), so d = (n.w_a) |n.w_b|.
    """
    n = _cofactors([weights[k] for k in fixed])
    a, b = ends
    return n, _dot(n, weights[a]) * abs(_dot(n, weights[b]))


def _cone(directions):
    """The extreme directions and inward facet normals of the
    full-dimensional cone spanned by the primitive ``directions``.  A
    facet passes through r-1 of them with all on one side; in rank 2 and
    3 a direction is extreme when it lies on r-1 distinct facets."""
    r = len(directions[0])
    facets = set()
    for spanning in combinations(directions, r - 1):
        normal = _cofactors(spanning)
        dots = [_dot(normal, g) for g in directions]
        # +1 or -1 when all directions lie on that side, else 0
        side = (min(dots) >= 0) - (max(dots) <= 0)
        if side:
            facets.add(_primitive(normal, side))
    extreme = {u for u in directions
               if sum(not _dot(f, u) for f in facets) >= r - 1}
    return extreme, facets


def _toric_model(family):
    _, coords, weights, blocks = cox_data(family.kind, family.params)
    divisor_labels, curve_labels, scan, (fiber, base) = \
        _TORIC_LABELS[family.kind]
    rank = len(weights[0])
    walls = {tau: _curve_class(weights, fixed, ends)
             for tau, fixed, ends in _walls(blocks)}
    curves = {name: walls[frozenset((coords.index(p), coords.index(q)))]
              for name, p, q in curve_labels}
    # The Mori cone is spanned by the classes of all walls.  When each of
    # them lies in the cone of the named curves, the two cones are equal
    # and every extremal ray has a name.
    directions = {name: _primitive(*curves[name]) for name in scan}
    extreme, facets = _cone(list(set(directions.values())))
    if any(_dot(f, n) * d < 0
           for n, d in set(walls.values()) for f in facets):
        raise VerificationError("an extremal ray of %s carries no name"
                                % family.label)
    basis = [name for name, _, _ in curve_labels[:rank]]
    rows = [curves[name][0] for name in basis]
    rows_det = _det(rows)
    # the other named curves in the curve basis, by Cramer's rule
    relations = {}
    for name, _, _ in curve_labels[rank:]:
        n, d = curves[name]
        relations[name] = tuple(
            _exact(_det(rows[:i] + [n] + rows[i + 1:]) * curves[b][1],
                   d * rows_det) for i, b in enumerate(basis))
    anticanonical = tuple(map(sum, zip(*weights)))
    k_dots = {name: _exact(-_dot(n, anticanonical), d)
              for name, (n, d) in curves.items()}
    divisors = [weights[coords.index(x)] for _, x in divisor_labels]
    pairing_matrix = {(b, name): _exact(_dot(curves[b][0], w), curves[b][1])
                      for b in basis
                      for (name, _), w in zip(divisor_labels, divisors)}
    divisors_det = _det(divisors) if divisors else 1
    canonical = {name: _exact(-_det(divisors[:i] + [anticanonical]
                                    + divisors[i + 1:]), divisors_det)
                 for i, (name, _) in enumerate(divisor_labels)}
    notes = {fiber: _FIBRATION + base.format(*family.params)}
    if (family.kind, family.params) == ("Pb", (1,)):
        notes["l"] = ("divisorial: blow-down to P^3 "
                      "(P_1 is P^3 blown up in a point)")
    lattice = LatticeModel(family, [name for name, _ in divisor_labels],
                           basis, pairing_matrix, canonical, (), k_dots,
                           relations)
    gens = []
    for name in scan:
        if directions[name] in extreme:
            extreme.discard(directions[name])
            gens.append(Ray(name, lattice.curve_vector(name), k_dots[name],
                            notes.get(name)))
    lattice.cone_generators = tuple(gens)
    return lattice


def model(family):
    """The lattice model of a family member.

    The toric families are computed from their Cox data: the Mori cone
    of a toric variety is spanned by its torus-invariant curves, and -K
    is the sum of the weight columns.  The other families are quoted.
    """
    if not isinstance(family, FamilyId):
        raise TypeError("expected a FamilyId")
    kind = family.kind
    if kind in _TORIC_LABELS:
        return _toric_model(family)
    # quoted rays of the families that are not toric
    if kind == "Uabc":
        a, b, c = family.params
        rays = [Ray("f", (1, 0, 0), -2, _FIBRATION + "F_%d" % a),
                Ray("s", (0, 1, 0), b - 2),
                Ray("l", (0, 0, 1), a * ((c - 2) // a + 1)) if c > 2
                else Ray("r", (0, 0, 1), a - 2)]
    else:
        (p,) = family.params
        second, base, shift = {"Sb": ("s1", "P^2", 3), "Vb": ("s", "P^2", 3),
                               "Qg": ("h", "P^1", 2)}[kind]
        rays = [Ray("f", (1, 0), -2, _FIBRATION + base),
                Ray(second, (0, 1), p - shift)]
    return LatticeModel(family, (), [ray.name for ray in rays], {}, {}, rays,
                        {ray.name: ray.k_dot for ray in rays})


# ----------------------------------------------------------------------
# queries


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
        if b == 0 and a == c != 0:  # b = 0 forces c >= 0
            return {"kind": "two_components",
                    "involution": "[y0:y1; x1:x0; z0:z1]"}
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
