"""Real forms of quadric fibrations over the projective line.

The object of study is the quadric bundle

    Q_g :  x0^2 - x1 x2 - g(u0, u1) x3^2  =  0

inside the projectivized bundle P(O^3 + O(n)) over the projective line
with coordinates [u0 : u1], where g is a homogeneous binary form of
even degree 2n that is not a square (equivalently: it has a root of odd
multiplicity).  The fiberwise symmetry never sees more than the Moebius
transformations preserving the root divisor of g, so the interesting
classification parameter is that stabilizer F: a one-dimensional torus,
its normalizer, or one of the finite subgroups of PGL2 (cyclic,
dihedral, tetrahedral, octahedral, icosahedral).

This module provides:

* ``QgInstance`` — a validated bundle datum (the binary form, and
  optionally its exact root divisor);
* ``detect_symmetry`` — the stabilizer label of the root divisor in
  its given coordinates, with an optional search over coordinate
  changes generated by the known roots;
* ``realizable`` — an exact witness (scalar, matrix) putting a
  non-real g into real coefficients, when one exists among cyclotomic
  coordinate changes fixing the point at infinity;
* ``form_counts`` / ``enumerate_forms`` — the count and the explicit
  list of real forms of Q_g, one descriptor per isomorphism class,
  twisted equations included whenever the class admits one;
* ``check_real_structure`` — exact verification that one of the
  standard anti-regular involutions of the ambient bundle squares to
  the identity and preserves Q_g;
* ``check_psi_h`` — exact verification of the elementary link that
  multiplies the bundle degree by an extra real factor h.

Everything is exact: scalars are cyclotomic numbers, polynomial
identities are checked coefficient by coefficient, and the twisted
equation over a class [a] is g composed with a splitting matrix b of
the class (b * conj(b)^-1 = a), rescaled into real coefficients by an
exact square root.
"""

from itertools import permutations
from math import gcd

from .exact import (
    Cyclo,
    Mat2,
    Poly,
    Poly2,
    VerificationError,
    as_cyclo,
    from_factors,
    root_multiplicities,
)
from .groups import (
    ALPHA,
    BETA,
    F_SWAP,
    H_ROT,
    GroupSpec,
    h1_names,
    rotation_gen,
)
from .parsing import render_poly

__all__ = [
    "ApplicabilityError",
    "UndecidableError",
    "AmbiguousSymmetryError",
    "FLabel",
    "QgInstance",
    "FormCounts",
    "FormDescriptor",
    "RealFormReport",
    "detect_symmetry",
    "realizable",
    "form_counts",
    "enumerate_forms",
    "check_real_structure",
    "check_psi_h",
    "psi_pullback_identity",
]

_ONE = Cyclo.rational(1)

RATIONAL = "rational"
UNKNOWN = "unknown"
NO_REAL_POINTS = "no_real_points"

PGL2R = "PGL2R"
SO3R = "SO3R"
PGL2R_TORUS = "PGL2RxGmR"
SO3R_TORUS = "SO3RxGmR"


class ApplicabilityError(ValueError):
    """An involution or operation does not apply to the given datum."""


class UndecidableError(ValueError):
    """The exact search cannot settle the question within its scalars."""


class AmbiguousSymmetryError(ValueError):
    """Two incomparable maximal symmetry groups fit the root divisor."""


# ----------------------------------------------------------------------
# symmetry labels


class FLabel:
    """The fiberwise symmetry type: Gm, its normalizer, or finite."""

    __slots__ = ("kind", "group")

    def __init__(self, kind, group=None):
        if kind not in ("Gm", "GmZ2", "finite"):
            raise ValueError("unknown symmetry kind %r" % kind)
        if (kind == "finite") != (group is not None):
            raise ValueError("finite labels carry a group, torus labels none")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "group", group)

    def __setattr__(self, *a):
        raise AttributeError("FLabel is immutable")

    @classmethod
    def torus(cls):
        return cls("Gm")

    @classmethod
    def torus_z2(cls):
        return cls("GmZ2")

    @classmethod
    def finite(cls, spec):
        if isinstance(spec, str):
            spec = GroupSpec.parse(spec)
        return cls("finite", spec)

    @property
    def is_finite(self):
        return self.kind == "finite"

    @property
    def name(self):
        if self.kind == "Gm":
            return "Gm"
        if self.kind == "GmZ2":
            return "GmSemidirectZ2"
        return "Finite(%s)" % self.group.name

    @property
    def report_name(self):
        """The short name used in reports: the bare group for finite F."""
        return self.group.name if self.kind == "finite" else self.name

    def __eq__(self, other):
        if not isinstance(other, FLabel):
            return NotImplemented
        return (self.kind, self.group) == (other.kind, other.group)

    def __hash__(self):
        return hash((self.kind, self.group))

    def __repr__(self):
        return "FLabel(%s)" % self.name


# ----------------------------------------------------------------------
# the bundle datum


class QgInstance:
    """A validated quadric-bundle datum.

    ``g`` must be a nonzero homogeneous binary form of even degree with
    at least one root of odd multiplicity (no square multiples, so the
    total space stays irreducible with the intended singularities).

    ``factored_roots`` is optional exact root data: a sequence of
    ``((p, q), multiplicity)`` with [p : q] the distinct roots.  When
    given it is checked against g by rebuilding the form up to a scalar.

    The root multiplicities found while validating are kept, and
    ``detect_symmetry`` keeps its label here, so each is computed once.
    """

    __slots__ = ("g", "factored_roots", "_mults", "_label")

    def __init__(self, g, factored_roots=None):
        if not isinstance(g, Poly2):
            raise TypeError("g must be a binary form")
        if g.is_zero():
            raise ValueError("g must be nonzero")
        if g.degree % 2 != 0 or g.degree < 2:
            raise ValueError("g must have even degree >= 2, got %d"
                             % g.degree)
        mults = root_multiplicities(g)
        if not any(m % 2 for m in mults):
            raise ValueError("g is a square (all root multiplicities even)")
        if factored_roots is not None:
            factored_roots = tuple(
                ((as_cyclo(p), as_cyclo(q)), int(m))
                for ((p, q), m) in factored_roots)
            if any(m < 1 for _, m in factored_roots):
                raise ValueError("root multiplicities must be positive")
            if sum(m for _, m in factored_roots) != g.degree:
                raise ValueError("root multiplicities must sum to deg g")
            rebuilt = from_factors(factored_roots)
            if g.proportionality(rebuilt) is None:
                raise ValueError("factored roots do not rebuild g")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "factored_roots", factored_roots)
        object.__setattr__(self, "_mults", mults)
        object.__setattr__(self, "_label", None)

    def __setattr__(self, *a):
        raise AttributeError("QgInstance is immutable")

    @property
    def n(self):
        return self.g.degree // 2

    def multiplicities(self):
        """Root multiplicities of g, largest first."""
        return list(self._mults)

    def __repr__(self):
        return "QgInstance(%s)" % render_poly(self.g)


def _coerce_instance(q):
    return q if isinstance(q, QgInstance) else QgInstance(q)


# ----------------------------------------------------------------------
# symmetry detection


def _finite_symmetry(g, n):
    """The unique maximal catalog group in standard position preserving g.

    Each candidate is decided on its generators (semi-invariance is
    closed under products), and the monomial ones by exponent
    arithmetic.  diag(zeta_2l, zeta_2l^-1) scales u0^a u1^b by
    zeta_2l^(2a - deg g), so A_l matches iff l divides the gcd d of the
    differences of g's u0-exponents.  Orders run up to 2n: a rotation
    fixing three or more points is the identity.  D_l adds F_SWAP, whose
    single test serves every l.  E6 = <D2, ALPHA>, E7 = <E6, A4> and
    E8 = <A5, H_ROT, BETA>; the monomial F_SWAP and H_ROT compose term
    by term.

    A matched group preserves the roots of g.  With one or two roots
    that leaves cyclic and dihedral groups only; with three or more, the
    stabilizer of the roots is finite and holds A_d, so d divides the
    order of the stabilizer of [1:0] in it.  That order is 2 or 4 in a
    finite group holding E6 (E6, E7 or an icosahedral group) and 5 in
    E8, which is maximal and does not hold F_SWAP.  So E6/E7 need d in
    (2, 4) and E8 needs d == 5 and no swap; a matching E-group contains
    every other match, and no group is ever closed.
    """
    exps = [a for a, _ in g.terms]
    d = gcd(*(a - exps[0] for a in exps))
    swap = g.compose(F_SWAP).proportionality(g) is not None
    if swap and d in (2, 4) \
            and g.compose(ALPHA).proportionality(g) is not None:
        return GroupSpec("E7" if d == 4 else "E6")
    if d == 5 and not swap:
        if g.compose(H_ROT).proportionality(g) is not None \
                and g.compose(BETA).proportionality(g) is not None:
            return GroupSpec("E8")
    # every A/D match divides one of these orders (for d > 0, d itself)
    orders = [l for l in range(1, 2 * n + 1) if d % l == 0]
    maximal = [GroupSpec("D", l) if swap and l > 1 else GroupSpec("A", l)
               for l in orders
               if not any(m % l == 0 for m in orders if m > l)]
    if len(maximal) > 1:
        raise AmbiguousSymmetryError(
            "incomparable maximal symmetry groups: %s"
            % ", ".join(s.name for s in maximal))
    return maximal[0]


def _three_point_map(p1, p2, p3):
    """Matrix sending [0:1], [1:0], [1:1] to the three given points.

    Columns are scalings s, t of p2 and p1 chosen so that their sum is
    p3, by Cramer's rule; returns None if the points fail to be in
    general position (they never do when pairwise distinct).  The
    determinant is s * t * delta, so it vanishes only in those cases.
    """
    (a1, b1), (a2, b2), (a3, b3) = p1, p2, p3
    delta = a2 * b1 - a1 * b2
    if delta.is_zero():
        return None
    inv = delta.inverse()
    s = (a3 * b1 - a1 * b3) * inv
    t = (a2 * b3 - a3 * b2) * inv
    if s.is_zero() or t.is_zero():
        return None
    return Mat2(a2 * s, a1 * t, b2 * s, b1 * t)


def detect_symmetry(q, moebius_search=False):
    """Symmetry label of the root divisor of g.

    With exactly two distinct roots the stabilizer is infinite: a torus,
    or its normalizer when the multiplicities agree.  Otherwise the
    finite subgroups in their standard coordinates are tested for
    semi-invariance and the unique maximal hit is returned (the trivial
    group A1 always matches, so there is always an answer).  A_l and
    D_l are read off the u0-exponents of g and one swap; an E-group is
    tested only where the rotations allow it, by composing g with its
    one generator that is not a monomial matrix.  No group is closed.

    The scan sees only groups in standard position — rotation axis at
    [1:0], [0:1] and fixed reflections.  With ``moebius_search=True``
    and exact root data available, coordinate changes sending root
    triples to standard position are also tried, and the largest
    stabilizer found anywhere is reported.  Changes that expose an
    ambiguity are skipped.  The label in the given coordinates is kept
    on the instance, so only the search is ever repeated.
    """
    q = _coerce_instance(q)
    if q._label is None:
        mults = q._mults
        if len(mults) == 2:
            label = FLabel.torus_z2() if mults[0] == mults[1] \
                else FLabel.torus()
        else:
            label = FLabel.finite(_finite_symmetry(q.g, q.n))
        object.__setattr__(q, "_label", label)
    if not (moebius_search and q._label.is_finite and q.factored_roots):
        return q._label
    best = q._label.group
    for triple in permutations([pt for pt, _ in q.factored_roots], 3):
        m = _three_point_map(*triple)
        if m is None:
            continue
        try:
            found = _finite_symmetry(q.g.compose(m), q.n)
        except AmbiguousSymmetryError:
            continue
        if found.order() > best.order():
            best = found
    return FLabel.finite(best)


# ----------------------------------------------------------------------
# realizability over the reals


def realizable(g):
    """Exact witness (lam, phi) with lam * (g o phi) real, if one exists.

    The search runs over coordinate changes fixing the point at
    infinity: a shear normalizing away the subleading coefficient
    (unique, hence lossless) followed by a diagonal twist
    diag(alpha, 1/alpha).  Within that family the answer is complete:
    the twist must satisfy finitely many root-of-unity equations, and
    every cyclotomic solution of those is a root of unity, so the
    exhaustive scan below either finds a witness or proves that none
    exists there (then None is returned).  When an equation's target is
    not a root of unity, no cyclotomic twist can work even though a
    transcendental one might — that case raises UndecidableError.
    """
    if not isinstance(g, Poly2):
        raise TypeError("g must be a binary form")
    if g.is_zero():
        raise ValueError("g must be nonzero")
    if g.degree % 2 != 0:
        raise ValueError("g must have even degree, got %d" % g.degree)
    identity = Mat2.identity()
    if g.real_coefficients():
        return (_ONE, identity)
    if len(g.terms) == 1:
        coeff = next(iter(g.terms.values()))
        return (coeff.conjugate(), identity)

    two_n = g.degree
    r = max(a for (a, b) in g.terms)
    shear = identity
    h = g
    c_sub = g.coeff(r - 1, two_n - r + 1)
    if not c_sub.is_zero():
        t = -(c_sub / (g.coeff(r, two_n - r) * r))
        shear = Mat2(1, t, 0, 1)
        h = g.compose(shear)
    c_r = h.coeff(r, two_n - r)

    lower = sorted(a for (a, b) in h.terms if a != r)
    if not lower:
        lam = c_r.inverse()
        if not (h * lam).real_coefficients():
            raise VerificationError("the sheared form is not real")
        return (lam, shear)

    equations = []  # (exponent k, target w): need alpha**k == w
    for s in lower:
        rho = h.coeff(s, two_n - s) / c_r
        w = rho.conjugate() / rho
        root = w.as_root_of_unity()
        if root is None:
            raise UndecidableError(
                "coefficient ratio %r is not unimodular of finite order: "
                "undecidable within cyclotomic scalars" % (w,))
        d, _ = root
        equations.append((4 * (s - r), w, d))

    bound = 0
    for k, _, d in equations:
        bound = gcd(bound, abs(k) * d)
    for j in range(bound):
        alpha = Cyclo.zeta(bound, j) if j else _ONE
        if all(alpha ** k == w for k, w, _ in equations):
            phi = shear * Mat2.diag(alpha, alpha.inverse())
            lam = alpha ** (2 * (two_n // 2 - r)) * c_r.inverse()
            if not (g.compose(phi) * lam).real_coefficients():
                raise VerificationError("the twisted form is not real")
            return (lam, phi)
    return None


# ----------------------------------------------------------------------
# counts of real forms


class FormCounts(tuple):
    """Counts (rational, unknown, no real points), with an optional note."""

    def __new__(cls, rational, unknown, no_real_points, note=None):
        self = super().__new__(cls, (rational, unknown, no_real_points))
        self.note = note
        return self

    @property
    def rational(self):
        return self[0]

    @property
    def unknown(self):
        return self[1]

    @property
    def no_real_points(self):
        return self[2]

    @property
    def total(self):
        return sum(self)


def _merged(spec, odd):
    """Whether the forms over each class merge in pairs (W with X, Y
    with Z): for n odd, unless F is cyclic of odd order."""
    return odd and not (spec.kind == "A" and spec.l % 2 == 1)


def form_counts(parity, label):
    """Counts of real forms of Q_g by rationality status.

    ``parity`` is "even" or "odd" (the parity of n = deg(g)/2) and
    ``label`` the symmetry type.  The equal-multiplicity two-root case
    forces n odd, so ("even", GmSemidirectZ2) is rejected.  That case
    also carries a note recording that the coarse count (2, 2, 0)
    obtained by matching the unequal-multiplicity pattern disagrees
    with the fine six-element enumeration (3, 2, 1) that the explicit
    twisting produces; the fine count is returned.

    For a finite F the counts derive from the classes of
    `groups.h1_names`: each class other than [h] gives k rational and k
    unknown forms (k = 2, or 1 when the forms merge), and [h] gives
    four forms without real points.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if not isinstance(label, FLabel):
        raise TypeError("label must be an FLabel")
    if label.kind == "Gm":
        return FormCounts(1, 1, 0)
    if label.kind == "GmZ2":
        if parity == "even":
            raise ValueError(
                "a two-root form with equal multiplicities has odd "
                "half-degree; ('even', GmSemidirectZ2) cannot occur")
        return FormCounts(3, 2, 1, note=_TWO_ROOT_NOTE)
    names = h1_names(label.group)
    has_h = "h" in names
    r = len(names) - has_h
    k = 1 if _merged(label.group, parity == "odd") else 2
    return FormCounts(k * r, k * r, 4 if has_h else 0)


_TWO_ROOT_NOTE = {
    "code": "two-roots-count-discrepancy",
    "coarse_count": (2, 2, 0),
    "fine_count": (3, 2, 1),
    "detail": "the explicit twist over the coordinate-swap class yields "
              "four extra forms of which two are isomorphic to untwisted "
              "ones; the fine six-element enumeration is reported",
}


# ----------------------------------------------------------------------
# the twisting classes and their splitting matrices


_MF = Mat2(1, Cyclo.i(), Cyclo.i(), 1)


def _twist_classes(spec):
    """(label, b) for the classes of `groups.h1_names`, in its order.

    b splits the class: b * conj(b)^-1 lies in it, so g o b is the
    twisted fiber equation up to a scalar (explicit Galois descent).
    b is None for [I2], whose equation is g itself, and for [h], which
    carries none; for [omega_k] it is the k-rotation, a square root
    of the rotation of order k/2 in F; for [f] it is _MF.
    """
    classes = []
    for name in h1_names(spec):
        if name.startswith("omega"):
            order = int(name[len("omega"):])
            classes.append(("[omega_%d]" % order, rotation_gen(order)))
        else:
            classes.append(("[%s]" % name, _MF if name == "f" else None))
    return classes


def _realify(h):
    """Real rescaling of a form whose conjugate is a scalar multiple.

    The scalar is automatically a root of unity, so a cyclotomic square
    root exists and multiplying by it lands in real coefficients.
    """
    s = h.conj_coeffs().proportionality(h)
    if s is None:
        raise ValueError("conjugate is not proportional; cannot rescale")
    lam = s.sqrt()
    if lam is None:
        raise ValueError("no cyclotomic square root for %r" % (s,))
    out = h * lam
    if not out.real_coefficients():
        raise ValueError("rescaling by a square root failed to realify")
    return out


# ----------------------------------------------------------------------
# descriptors and the report


class FormDescriptor:
    """One real form of Q_g.

    ``tag`` identifies the shape of the defining equation:

    * W/X: x0^2 - x1 x2 -/+ g_i x3^2 (split conic, rational);
    * Y/Z: x0^2 + x1^2 + x2^2 -/+ g_i x3^2 (anisotropic conic);
    * H: forms over the [h] class (no equation of the above shape,
      and no real points);
    * Q/T and W'/X'/Y'/Z': the two-root families.

    ``equation`` is the binary form g_i appearing in the equation (the
    sign is carried by the tag) or None for the [h] class.
    """

    __slots__ = ("tag", "equation", "status", "aut0", "over_class",
                 "merged_pair")

    def __init__(self, tag, equation, status, aut0, over_class,
                 merged_pair=False):
        self.tag = tag
        self.equation = equation
        self.status = status
        self.aut0 = aut0
        self.over_class = over_class
        self.merged_pair = merged_pair

    def as_dict(self, render=render_poly):
        out = {"form": self.tag}
        if self.equation is not None:
            out["equation"] = render(self.equation)
        out["status"] = self.status
        out["aut0"] = self.aut0
        out["over_class"] = self.over_class
        out["merged_pair"] = self.merged_pair
        return out

    def __repr__(self):
        eq = render_poly(self.equation) if self.equation is not None else "-"
        return "FormDescriptor(%s over %s: %s, %s, %s)" % (
            self.tag, self.over_class, eq, self.status, self.aut0)


class RealFormReport:
    """The classified real forms of one bundle Q_g."""

    __slots__ = ("instance", "symmetry", "forms", "note")

    def __init__(self, instance, symmetry, forms, note=None):
        self.instance = instance
        self.symmetry = symmetry
        self.forms = tuple(forms)
        self.note = note

    def counts(self):
        tally = {RATIONAL: 0, UNKNOWN: 0, NO_REAL_POINTS: 0}
        for f in self.forms:
            tally[f.status] += 1
        return FormCounts(tally[RATIONAL], tally[UNKNOWN],
                          tally[NO_REAL_POINTS], note=self.note)

    def as_dict(self):
        counts = self.counts()
        # the forms over one class share one equation object, and those
        # over [I2] share g: render each object once
        text = {}

        def render(p):
            if id(p) not in text:
                text[id(p)] = render_poly(p)
            return text[id(p)]

        out = {
            "g": render(self.instance.g),
            "n": self.instance.n,
            "F": self.symmetry.report_name,
            "forms": [f.as_dict(render) for f in self.forms],
            "counts": {
                "rational": counts.rational,
                "unknown": counts.unknown,
                "no_real_points": counts.no_real_points,
            },
        }
        if self.note is not None:
            out["note"] = self.note
        return out

    def __repr__(self):
        return "RealFormReport(%s, F=%s, %d forms)" % (
            render_poly(self.instance.g), self.symmetry.name,
            len(self.forms))


# ----------------------------------------------------------------------
# enumeration


def _two_root_unequal(g):
    # Any real form with exactly two roots of different multiplicities
    # admits the coordinate flip u0 -> -u0 on one chart, which merges
    # the two sign choices of the x3 coefficient; two classes remain.
    return [
        FormDescriptor("Q", g, RATIONAL, PGL2R_TORUS, "[mu1]",
                       merged_pair=True),
        FormDescriptor("T", g, UNKNOWN, SO3R_TORUS, "[mu1]",
                       merged_pair=True),
    ]


def _two_root_equal(g):
    if len(g.terms) != 1:
        raise ValueError(
            "equal multiplicities require the coordinate position "
            "c * (u0*u1)^a; move the two roots to [1:0] and [0:1] first")
    ((a, b),) = g.terms
    if a != b:
        raise VerificationError(
            "equal multiplicities with one term force a == b")
    # The swap class twists the pair of roots into a conjugate pair;
    # composing with the standard conjugator lands on c*(u0^2+u1^2)^a.
    swapped = g.compose(Mat2(1, Cyclo.i(), 1, -Cyclo.i()))
    if not swapped.real_coefficients():
        raise VerificationError("the swapped two-root form is not real")
    return [
        FormDescriptor("Q", g, RATIONAL, PGL2R_TORUS, "[mu1]",
                       merged_pair=True),
        FormDescriptor("T", g, UNKNOWN, SO3R_TORUS, "[mu1]",
                       merged_pair=True),
        FormDescriptor("W'", swapped, RATIONAL, PGL2R_TORUS, "[mu8]"),
        FormDescriptor("X'", swapped, RATIONAL, PGL2R_TORUS, "[mu8]"),
        FormDescriptor("Y'", swapped, UNKNOWN, SO3R_TORUS, "[mu8]"),
        FormDescriptor("Z'", swapped, NO_REAL_POINTS, SO3R_TORUS, "[mu8]"),
    ]


# Over the [h] class the bundle automorphisms alone leave no real
# structure, but composing with the base conic structures does; the
# four resulting forms never have real points.  Their identity
# components come from twisting the displayed conic: the split conic
# for the first pair, the pointless one for the second.  The tags are
# constants, so the reports a caller keeps share them.
_H_FORMS = (("H1", PGL2R), ("H2", PGL2R), ("H3", SO3R), ("H4", SO3R))


def _finite_forms(g, spec):
    merge = _merged(spec, g.degree // 2 % 2 == 1)
    forms = []
    index = 0
    for label, b in _twist_classes(spec):
        if label == "[h]":
            for tag, aut0 in _H_FORMS:
                forms.append(FormDescriptor(tag, None,
                                            NO_REAL_POINTS, aut0, "[h]"))
            continue
        index += 1
        gi = g if b is None else _realify(g.compose(b))
        if merge:
            forms.append(FormDescriptor("W%d" % index, gi, RATIONAL,
                                        PGL2R, label, merged_pair=True))
            forms.append(FormDescriptor("Y%d" % index, gi, UNKNOWN,
                                        SO3R, label, merged_pair=True))
        else:
            forms.append(FormDescriptor("W%d" % index, gi, RATIONAL,
                                        PGL2R, label))
            forms.append(FormDescriptor("X%d" % index, gi, RATIONAL,
                                        PGL2R, label))
            forms.append(FormDescriptor("Y%d" % index, gi, UNKNOWN,
                                        SO3R, label))
            forms.append(FormDescriptor("Z%d" % index, gi, UNKNOWN,
                                        SO3R, label))
    return forms


def enumerate_forms(q):
    """All real forms of Q_g, as a RealFormReport.

    The input form must already have real coefficients (use
    ``realizable`` first if it does not).  The symmetry type is
    detected in the given coordinates.  Over each twisting class other
    than [I2] and [h] the equation is g composed with the class's
    splitting matrix, rescaled into real coefficients by an exact
    square root; the character of g plays no part.  The tally of
    statuses is checked against ``form_counts`` before returning.
    """
    q = _coerce_instance(q)
    g = q.g
    if not g.real_coefficients():
        raise ValueError(
            "g must have real coefficients; apply realizable first")
    label = detect_symmetry(q)
    parity = "even" if q.n % 2 == 0 else "odd"
    note = None
    if label.kind == "Gm":
        forms = _two_root_unequal(g)
    elif label.kind == "GmZ2":
        forms = _two_root_equal(g)
        note = _TWO_ROOT_NOTE
    else:
        forms = _finite_forms(g, label.group)
    report = RealFormReport(q, label, forms, note=note)
    expected = form_counts(parity, label)
    actual = report.counts()
    if tuple(actual) != tuple(expected):
        raise VerificationError(
            "enumerated statuses %s disagree with the expected counts %s"
            % (tuple(actual), tuple(expected)))
    return report


# ----------------------------------------------------------------------
# ambient real structures


# the x-part of a structure: the images of x0, x1, x2 as linear forms
_X0, _X1, _X2 = Poly.variables(3)
_TAU3 = (-_X0, _X2, _X1)
_CONIC = _X0 * _X0 - _X1 * _X2
_SWAP = Mat2(0, 1, 1, 0)


def _structure_data(index, n, l=None):
    """(A3, c3, M) for the standard anti-regular maps mu_1 .. mu_11.

    A3 is the linear map of (x0, x1, x2), given by the images of the
    three coordinates; c3 scales x3, M acts on (u0, u1).  The map itself
    is (x, u) -> (A3(conj(x)), c3 conj(x3), M conj(u)).
    """
    i = Cyclo.i()
    eye = Poly.variables(3)
    if index in (1, 2, 3, 4):
        a3 = eye if index in (1, 2) else _TAU3
        c3 = _ONE if index in (1, 4) else -_ONE
        return (a3, c3, Mat2.identity())
    if index == 5:
        if l is None:
            raise ApplicabilityError(
                "mu_5 needs the rotation order l (give it explicitly or "
                "classify the symmetry first)")
        z = Cyclo.zeta(2 * l)
        return (eye, _ONE, Mat2.diag(z, z.inverse()))
    if index == 6:
        return (eye, _ONE, Mat2(0, i, i, 0))
    if index == 7:
        if n % 2 == 1:
            raise ApplicabilityError(
                "mu_7 squares to the sign flip of x3 when n is odd, so it "
                "is not a real structure there; it needs n even")
        return (eye, _ONE, Mat2(0, 1, -1, 0))
    if index == 8:
        return (eye, _ONE, _SWAP)
    if index == 9:
        return (eye, -_ONE, _SWAP)
    if index == 10:
        return (_TAU3, -_ONE, _SWAP)
    if index == 11:
        return (_TAU3, _ONE, _SWAP)
    raise ValueError("structure index must be 1..11, got %r" % (index,))


def _detect_rotation_order(q):
    label = detect_symmetry(q)
    if label.is_finite:
        spec = label.group
        if spec.kind in ("A", "D"):
            return spec.l
        if spec.kind == "E7":
            return 4
    raise ApplicabilityError(
        "no canonical rotation order for symmetry %s; pass l explicitly"
        % label.name)


def check_real_structure(index, q, l=None):
    """Exact check that the standard map mu_index is a real structure of Q_g.

    Verifies (i) that the map squares to the identity of the ambient
    bundle — the square acts by (A3 conj(A3), c3 conj(c3), M conj(M))
    and must lie on the rescaling orbit (m I3, m rho^-n, rho I2) — and
    (ii) that it maps Q_g onto itself: the conic part must pull back to
    a scalar multiple s of itself and the fiber part must follow with
    the same scalar.  Any failure raises ApplicabilityError; on success
    the scalars are reported.
    """
    q = _coerce_instance(q)
    g = q.g
    n = q.n
    if index == 5 and l is None:
        l = _detect_rotation_order(q)
    a3, c3, m = _structure_data(index, n, l=l)

    # twice x -> A3(conj(x)) is x -> A3(conj(A3)(x))
    square = [a.substitute([b.conj_coeffs() for b in a3]) for a in a3]
    scalar_m = square[0].proportionality(_X0)
    if scalar_m is None or square != [x * scalar_m for x in Poly.variables(3)]:
        raise ApplicabilityError(
            "mu_%d: the x-part of the square is not scalar" % index)
    mm = m * m.conj()
    if not mm.is_scalar():
        raise ApplicabilityError(
            "mu_%d: the u-part of the square is not scalar" % index)
    rho = mm.a
    if c3 * c3.conjugate() != scalar_m * rho ** (-n):
        raise ApplicabilityError(
            "mu_%d does not square to the identity on the bundle "
            "(x3 scaling obstruction)" % index)

    s = _CONIC.substitute(a3).conj_coeffs().proportionality(_CONIC)
    if s is None:
        raise ApplicabilityError(
            "mu_%d does not preserve the conic part" % index)
    fiber = (g.compose(m)).conj_coeffs() * (c3 * c3).conjugate()
    if fiber != g * s:
        raise ApplicabilityError(
            "mu_%d does not preserve the fiber equation" % index)
    return {"valid": True, "square": (scalar_m, rho), "pullback_scalar": s}


# ----------------------------------------------------------------------
# the degree-raising link


def psi_pullback_identity(g, h):
    """Exact pullback identity for the link multiplying x0..x2 by h.

    The substitution (x0, x1, x2, x3) -> (h x0, h x1, h x2, x3) carries
    the equation of Q_{g h^2} to h^2 times the equation of Q_g; this
    checks that equality as one polynomial identity in (x0, x1, x2, x3,
    u0, u1) and returns whether it holds.  No validity constraints are
    imposed on h here, so the composition law (chaining two links
    equals the link of the product) can be checked directly against
    this identity.
    """
    x0, x1, x2, x3, u0, u1 = Poly.variables(6)

    def bundle(form, y0, y1, y2):
        return y0 * y0 - y1 * y2 - form.substitute((u0, u1)) * x3 * x3

    lifted = h.substitute((u0, u1))
    return (bundle(g * h * h, lifted * x0, lifted * x1, lifted * x2)
            == lifted * lifted * bundle(g, x0, x1, x2))


def check_psi_h(q, h):
    """Validated degree-raising link from Q_g to Q_{g h^2}.

    ``h`` must be a real binary form that is irreducible over the real
    numbers: linear, or quadratic with rational coefficients and
    negative discriminant (the rationality restriction is what the
    exact arithmetic can certify).  On success returns the pullback
    identity flag and the new fiber degree parameter.
    """
    q = _coerce_instance(q)
    g = q.g
    if not g.real_coefficients():
        raise ValueError("g must have real coefficients")
    if not isinstance(h, Poly2) or h.is_zero():
        raise ValueError("h must be a nonzero binary form")
    if not h.real_coefficients():
        raise ValueError("h must have real coefficients")
    if h.degree not in (1, 2):
        raise ValueError(
            "h of degree %d is never irreducible over the reals"
            % h.degree)
    if h.degree == 2:
        a = h.coeff(2, 0)
        b = h.coeff(1, 1)
        c = h.coeff(0, 2)
        if not (a.is_rational() and b.is_rational() and c.is_rational()):
            raise ValueError(
                "cannot certify R-irreducibility of a quadratic with "
                "irrational coefficients; use rational ones")
        disc = (b.as_rational() ** 2
                - 4 * a.as_rational() * c.as_rational())
        if disc >= 0:
            raise ValueError(
                "h splits over the reals (discriminant %s >= 0)" % disc)
    if not psi_pullback_identity(g, h):
        raise VerificationError("pullback identity failed")
    # the product still has an odd-multiplicity root, so the target is
    # a valid bundle datum of the same kind
    QgInstance(g * h * h)
    return {"identity": True, "n_prime": q.n + h.degree}
