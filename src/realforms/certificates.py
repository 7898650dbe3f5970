"""Exact certificates behind the registry's stored formulas.

Next to each real form the registry (`registry`) may store an
antiholomorphic coordinate formula on a toric or multihomogeneous
ambient, and next to a link a birational witness.  This module builds
each ambient from its registry spec with `build_ambient` (the toric
families Fabc, Pb, Wb and Rmn on the Cox data of `lattices.cox_data`,
the only copy of their weights), checks the shape of each formula that
the one parser, `parsing.parse_formula`, reads, and proves what the
formulas claim:

* `verify_involution` proves that a stored conjugation respects the
  multigrading of the ambient coordinate ring (so it descends to the
  quotient), squares to a rescaling realized by a torus element (so it
  is a genuine involution downstairs), and preserves the defining
  equations.  The parity conditions under which twisted forms exist
  drop out of these checks instead of being asserted.
* `verify_witness` certifies the stored birational witnesses: the
  contraction of the twisted quadric bundle onto the real quadric cone
  (image relation, equivariance, and the signature of the real locus),
  the collapse of the circle-bundle twist onto projective three-space
  (two-sided inverse on a dense chart, up to a fiberwise torus factor),
  and the degree-raising quadric-fibration links.
* `signature` computes the exact Sylvester invariants of a rational
  quadratic form by congruence diagonalization.

Equations and their pullbacks are ``exact.Poly`` values in the ambient
coordinates, and a coordinate map is a tuple of them, one per target
coordinate: maps compose by ``Poly.substitute`` (Laurent monomials
included) and conjugate componentwise by ``Poly.conj_coeffs``.  The
weight data is integral, and so is its linear algebra: the grading
solve, the torus relations and the fiberwise torus factors all go
through the one integer kernel of `lattices` (`lattices.diagonalize`,
`back_substitute` and `kernel`).  One relation check serves scalars and
monomials alike: the product of ``m_i ** e_i`` is one for every vector
e of an integral kernel basis of the weights.  Only the
``verify`` suites and the registry's validation sweep use this module.
"""

from fractions import Fraction
from math import prod

from . import lattices, quadrics, registry
from .errors import VerificationError, as_int
from .exact import Cyclo, Poly
from .parsing import parse_formula, parse_poly, render_scalar

__all__ = [
    "Ambient",
    "StructureMap",
    "build_ambient",
    "parse_structure",
    "parse_monomial_map",
    "parse_polynomial",
    "verify_involution",
    "verify_witness",
    "torus_equivalent",
    "signature",
    "real_locus_form",
]

_ONE = Cyclo.rational(1)


# ----------------------------------------------------------------------
# ambient spaces


class Ambient:
    """A multihomogeneous coordinate patchwork for one ambient space.

    ``weights[i]`` is the character of the structure torus on the i-th
    coordinate; ``equations`` cut the variety out of the quotient (used
    for the flag of the plane and for quadric images).
    """

    __slots__ = ("name", "coords", "weights", "blocks", "equations")

    def __init__(self, name, coords, weights, blocks, equations=()):
        coords = tuple(coords)
        weights = tuple(tuple(as_int(w, "weights") for w in vec)
                        for vec in weights)
        if len(weights) != len(coords):
            raise ValueError("one weight vector per coordinate")
        rank = len(weights[0]) if weights else 0
        if any(len(vec) != rank for vec in weights):
            raise ValueError("weight vectors must share one torus rank")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in blocks))
        object.__setattr__(self, "equations", tuple(equations))

    def __setattr__(self, *a):
        raise AttributeError("Ambient is immutable")

    @property
    def rank(self):
        return len(self.weights[0]) if self.weights else 0

    def weight_matrix(self):
        """Torus-rank x coordinate-count integer matrix of weights."""
        return [[self.weights[c][k] for c in range(len(self.coords))]
                for k in range(self.rank)]

    def __repr__(self):
        return "Ambient(%s)" % self.name


# the ambient kinds that are toric families, by their `lattices` kind
_TORIC = {"fabc": "Fabc", "pb": "Pb", "wb": "Wb", "rmn": "Rmn"}


def build_ambient(spec):
    """The ambient of a registry spec ``(kind, params)``.

    The toric kinds (fabc, pb, wb, rmn) read their Cox data from
    `lattices.cox_data`, and p1cube is that of F_0^{0,0}.  The others are
    the flag of the plane (the incidence divisor of P2 x P2), the
    weighted projective space ``wps`` of degrees ``params``, and the
    projective spaces p3 and p4.
    """
    kind, params = spec
    if kind in _TORIC:
        return Ambient(*lattices.cox_data(_TORIC[kind], params))
    if kind == "p1cube":
        return Ambient("(P1)^3", *lattices.cox_data("Fabc", (0, 0, 0))[1:])
    if kind == "flag":
        coords = ("x0", "x1", "x2", "y0", "y1", "y2")
        incidence = parse_polynomial("x0*y0 + x1*y1 + x2*y2", coords)
        return Ambient("flag(P2 x P2)", coords,
                       ((1, 0),) * 3 + ((0, 1),) * 3,
                       ((0, 1, 2), (3, 4, 5)), (incidence,))
    if kind == "wps":
        name = "P(%s)" % ",".join(str(d) for d in params)
        coords = tuple("t%d" % i for i in range(len(params)))
        weights = tuple((d,) for d in params)
    elif kind in ("p3", "p4"):
        dim = int(kind[1])
        name = "P^%d" % dim
        coords = tuple("w%d" % i for i in range(dim + 1))
        weights = ((1,),) * len(coords)
    else:
        raise KeyError("unknown ambient kind %r" % (kind,))
    return Ambient(name, coords, weights, (tuple(range(len(coords))),))


# ----------------------------------------------------------------------
# the shapes of stored formulas


def _monomial(component, what):
    """(exponents, coefficient) of a component that is one monomial."""
    if component.is_zero():
        raise ValueError("zero component in %s" % what)
    if len(component.terms) != 1:
        raise ValueError("%s components must be single monomials" % what)
    ((exps, coeff),) = component.terms.items()
    return exps, coeff


def _regular(component, nvars, what):
    """A formula component as a Poly in the plain coordinates only."""
    if any(any(exps[nvars:]) for exps in component.terms):
        raise ValueError("%s must not conjugate coordinates" % what)
    return Poly({exps[:nvars]: c for exps, c in component.terms.items()},
                nvars=nvars)


class StructureMap:
    """An antiholomorphic coordinate map: rescaled conjugated variables.

    Component i sends the i-th coordinate slot to
    ``scalars[i] * conj(coordinate perm[i])``.
    """

    __slots__ = ("ambient", "scalars", "perm", "text")

    def __init__(self, ambient, scalars, perm, text):
        self.ambient = ambient
        self.scalars = tuple(scalars)
        self.perm = tuple(perm)
        self.text = text

    def regular_part(self):
        """The map with the conjugations dropped, as a tuple of Polys."""
        variables = Poly.variables(len(self.ambient.coords))
        return tuple(variables[source] * scalar
                     for scalar, source in zip(self.scalars, self.perm))

    def __repr__(self):
        return "StructureMap(%s on %s)" % (self.text, self.ambient.name)


def parse_structure(text, ambient):
    """Parse an antiholomorphic signed coordinate permutation."""
    n = len(ambient.coords)
    comps = parse_formula(text, ambient.coords)
    if len(comps) != n:
        raise ValueError(
            "structure has %d components but %s has %d coordinates"
            % (len(comps), ambient.name, n))
    scalars = []
    perm = []
    for component in comps:
        exps, coeff = _monomial(component, "structure")
        if sum(exps) != 1:
            raise ValueError("structure components must be linear in one "
                             "coordinate")
        if exps.index(1) < n:
            raise ValueError("a real structure must conjugate the "
                             "coordinates it uses")
        scalars.append(coeff)
        perm.append(exps.index(1) - n)
    return StructureMap(ambient, scalars, perm, text)


def parse_monomial_map(text, source_names):
    """Parse a regular map with monomial components: a tuple of Polys."""
    names = tuple(source_names)
    out = []
    for component in parse_formula(text, names):
        plain = _regular(component, len(names), "a regular map")
        _monomial(plain, "map")
        out.append(plain)
    return tuple(out)


def _after(outer, inner):
    """The map ``outer`` after ``inner`` (apply ``inner`` first)."""
    return tuple(component.substitute(inner) for component in outer)


def parse_polynomial(text, source_names):
    """Parse one polynomial expression over named variables."""
    names = tuple(source_names)
    comps = parse_formula(text, names)
    if len(comps) != 1:
        raise ValueError("expected a single polynomial, not a map")
    return _regular(comps[0], len(names), "a polynomial here")


# ----------------------------------------------------------------------
# involution verification


def _grading_matrix(structure):
    """The integral r x r matrix M with M . w_i = w_perm(i), or None.

    Row k of M solves W . x = (column k of the permuted weights) for the
    n x r weight matrix W, so one diagonalization of W serves all r
    right-hand sides.  None when some row has no integral solution or
    M is not unimodular.  The weight matrices of the ambients here have
    full column rank, so M is unique when it exists; for a lower rank
    the entries left free are zero.
    """
    weights = structure.ambient.weights
    diagonalized = lattices.diagonalize(weights)
    matrix = []
    for k in range(structure.ambient.rank):
        row = lattices.back_substitute(
            diagonalized, [weights[p][k] for p in structure.perm])
        if row is None:
            return None
        matrix.append(row)
    diagonal, _, _ = lattices.diagonalize(matrix)
    if any(abs(diagonal[k][k]) != 1 for k in range(len(matrix))):
        return None
    return matrix


def _obeys_relations(ambient, values, one):
    """Whether ``values``, one per coordinate, obey the weight relations.

    The values are scalars or monomials with multiplicative identity
    ``one``.  The multiplicative relations among the coordinate weights
    are generated by an integral kernel basis of the weight matrix, and
    the product of ``values[i] ** e_i`` must be one along each of them.
    For scalars this says that the coordinate rescaling lies on the
    structure torus.
    """
    return all(prod((value ** e for value, e in zip(values, relation)
                     if e), start=one) == one
               for relation in lattices.kernel(ambient.weight_matrix()))


def verify_involution(structure, ambient=None):
    """Prove that a stored conjugation formula is a real structure.

    Checks, in order: the components permute the coordinates and the
    permutation respects the torus weights through an invertible
    integral change of torus coordinates (otherwise the formula does
    not even descend to the ambient — reported as a grading violation);
    the square is a coordinate rescaling realized by an actual torus
    element (so the map is an involution of the quotient); and every
    defining equation pulls back, after conjugating coefficients, to a
    scalar multiple of itself.
    """
    if isinstance(structure, str):
        if ambient is None:
            raise ValueError("an ambient is required to parse a formula")
        structure = parse_structure(structure, ambient)
    amb = structure.ambient
    ncoords = len(amb.coords)
    if sorted(structure.perm) != list(range(ncoords)):
        raise ValueError("structure components must permute the coordinates")
    grading = _grading_matrix(structure)
    if grading is None:
        raise ValueError(
            "grading violation: the formula does not respect the torus "
            "weights of %s" % amb.name)
    for i in range(ncoords):
        if structure.perm[structure.perm[i]] != i:
            raise VerificationError(
                "the square does not fix the coordinate axes")
    rescaling = []
    for i in range(ncoords):
        rescaling.append(structure.scalars[i]
                         * structure.scalars[structure.perm[i]].conjugate())
    if not _obeys_relations(amb, rescaling, _ONE):
        raise VerificationError(
            "the square rescales the coordinates by a pattern outside "
            "the structure torus of %s" % amb.name)
    comps = structure.regular_part()
    preserved = 0
    for equation in amb.equations:
        pulled = equation.substitute(comps).conj_coeffs()
        if pulled.proportionality(equation) is None:
            raise VerificationError(
                "the defining equation of %s is not preserved" % amb.name)
        preserved += 1
    return {
        "ok": True,
        "ambient": amb.name,
        "grading": grading,
        "square_rescaling": [render_scalar(s) for s in rescaling],
        "equations_preserved": preserved,
    }


# ----------------------------------------------------------------------
# torus equivalence of monomial maps


def torus_equivalent(target_ambient, first, second):
    """Whether two monomial maps agree up to a fiberwise torus factor.

    The maps may differ componentwise by ``t^(weight of the component)``
    for a target-torus element ``t`` whose entries are Laurent
    monomials in the source coordinates.  Such a ``t`` exists when the
    componentwise ratios obey the weight relations and their exponents
    solve an integral linear system in the target weights.
    """
    ncoords = len(target_ambient.coords)
    if len(first) != ncoords or len(second) != ncoords:
        raise ValueError("maps must have one component per coordinate of %s"
                         % target_ambient.name)
    ratios = [a * b ** -1 for a, b in zip(first, second)]
    nsrc = ratios[0].nvars
    if not _obeys_relations(target_ambient, ratios,
                            Poly({(0,) * nsrc: 1})):
        return False
    exponents = [_monomial(ratio, "a torus factor")[0] for ratio in ratios]
    weight_rows = target_ambient.weight_matrix()
    transpose = lattices.diagonalize(
        [[weight_rows[k][c] for k in range(target_ambient.rank)]
         for c in range(ncoords)])
    return all(lattices.back_substitute(
        transpose, [exps[j] for exps in exponents]) is not None
        for j in range(nsrc))


# ----------------------------------------------------------------------
# quadratic forms


def signature(matrix):
    """Exact Sylvester signature (positive, negative, radical).

    Congruence diagonalization over the rationals: repeated completion
    of squares with pivoting, creating a diagonal entry from a
    hyperbolic pair whenever the whole remaining diagonal vanishes.
    """
    rows = [[Fraction(v) for v in row] for row in matrix]
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix must be symmetric")

    def add_row_col(target, source, factor):
        rows[target] = [a + factor * b
                        for a, b in zip(rows[target], rows[source])]
        for row in rows:
            row[target] += factor * row[source]

    def swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        for row in rows:
            row[i], row[j] = row[j], row[i]

    positive = negative = radical = 0
    for s in range(n):
        pivot = None
        for i in range(s, n):
            if rows[i][i]:
                pivot = i
                break
        if pivot is None:
            off = None
            for i in range(s, n):
                for j in range(i + 1, n):
                    if rows[i][j]:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                radical += n - s
                break
            add_row_col(off[0], off[1], Fraction(1))
            pivot = off[0]
        if pivot != s:
            swap(pivot, s)
        d = rows[s][s]
        if d > 0:
            positive += 1
        else:
            negative += 1
        for r in range(s + 1, n):
            if rows[r][s]:
                add_row_col(r, s, -rows[r][s] / d)
    return (positive, negative, radical)


def real_locus_form(quadric, structure):
    """The rational quadratic form cutting the real locus of a quadric.

    Given a quadric on a projective space and an antiholomorphic
    coordinate involution that squares to the identity on coordinates
    (not merely projectively), substitute the general real point of the
    involution — real coordinates on the fixed axes, conjugate pairs on
    the swapped ones — and read off the symmetric matrix.
    """
    amb = structure.ambient
    n = len(amb.coords)
    if quadric.nvars != n:
        raise ValueError("quadric and structure live on different spaces")
    for i in range(n):
        j = structure.perm[i]
        if structure.perm[j] != i:
            raise ValueError("structure must be an involution on coordinates")
        if structure.scalars[i] * structure.scalars[j].conjugate() != _ONE:
            raise ValueError("structure must square to the identity on "
                             "coordinates, not merely up to torus")
    imaginary = Cyclo.zeta(4)
    variables = Poly.variables(n)
    args = [None] * n
    next_var = 0
    for i in range(n):
        j = structure.perm[i]
        if j == i:
            root = structure.scalars[i].sqrt()
            if root is None or root * root.conjugate() != _ONE:
                raise ValueError("fixed-coordinate scalar admits no "
                                 "unit square root")
            args[i] = variables[next_var] * root
            next_var += 1
        elif i < j:
            real_part = variables[next_var]
            imag_part = variables[next_var + 1]
            args[i] = real_part + imag_part * imaginary
            args[j] = (real_part - imag_part * imaginary) \
                * structure.scalars[j]
            next_var += 2
    real_poly = quadric.substitute(args)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for exps, coeff in real_poly.terms.items():
        if sum(exps) != 2:
            raise ValueError("expected a homogeneous quadric")
        if not coeff.is_rational():
            raise ValueError("real locus form has irrational coefficients")
        value = coeff.as_rational()
        support = [k for k, e in enumerate(exps) if e]
        if len(support) == 1:
            matrix[support[0]][support[0]] = value
        else:
            i, j = support
            matrix[i][j] = matrix[j][i] = value / 2
    return tuple(tuple(row) for row in matrix)


# ----------------------------------------------------------------------
# witness verification


def _witness_data(kind):
    witnesses = registry._load()["entries"]["witnesses"]
    if kind not in witnesses:
        raise KeyError("no stored witness of kind %r" % kind)
    return witnesses[kind]


def _component_weights(ambient, mono_map):
    weights = []
    for component in mono_map:
        (exps,) = component.terms
        vec = [0] * ambient.rank
        for index, power in enumerate(exps):
            if power:
                for k in range(ambient.rank):
                    vec[k] += power * ambient.weights[index][k]
        weights.append(tuple(vec))
    return weights


def _check_graded_onto_line(source_ambient, mono_map, target_name):
    weights = _component_weights(source_ambient, mono_map)
    if len(set(weights)) != 1:
        raise VerificationError(
            "the map to %s is not multihomogeneous: component weights %r"
            % (target_name, weights))


def _check_psi_g1():
    data = _witness_data("psi_G1")
    source = build_ambient(("fabc", (0, 1, -1)))
    target = build_ambient(("p4", ()))
    psi = parse_monomial_map(data["map"], source.coords)
    if len(psi) != 5:
        raise VerificationError("the contraction witness must have five "
                                "components")
    _check_graded_onto_line(source, psi, target.name)
    quadric = parse_polynomial(data["quadric"], target.coords)
    pulled = quadric.substitute(psi)
    if not pulled.is_zero():
        raise VerificationError("the image does not satisfy the stored "
                                "quadric relation")
    theta = parse_structure(data["source_structure"], source)
    mu = parse_structure(data["target_structure"], target)
    verify_involution(theta)
    verify_involution(mu)
    twisted = quadric.substitute(mu.regular_part()).conj_coeffs()
    if twisted.proportionality(quadric) is None:
        raise VerificationError("the target structure does not preserve "
                                "the quadric relation")
    left = _after(mu.regular_part(),
                  tuple(component.conj_coeffs() for component in psi))
    right = _after(psi, theta.regular_part())
    if not torus_equivalent(target, left, right):
        raise VerificationError("the contraction does not intertwine the "
                                "two real structures")
    rows = real_locus_form(quadric, mu)
    claimed = tuple(data["claimed_signature"])
    computed = signature(rows)
    if computed != claimed and (computed[1], computed[0],
                                computed[2]) != claimed:
        raise VerificationError(
            "real quadric signature is %r, stored %r" % (computed, claimed))
    return {
        "kind": "psi_G1",
        "quadric_relation": True,
        "equivariant": True,
        "signature": list(computed),
        "ok": True,
    }


def _check_delta_h1():
    data = _witness_data("delta_H1")
    source = build_ambient(("fabc", (0, 1, 1)))
    target = build_ambient(("p3", ()))
    delta = parse_monomial_map(data["map"], source.coords)
    epsilon = parse_monomial_map(data["inverse"], target.coords)
    if len(delta) != 4 or len(epsilon) != 6:
        raise VerificationError("stored chart maps have the wrong shape")
    _check_graded_onto_line(source, delta, target.name)
    if not torus_equivalent(target, _after(delta, epsilon),
                            Poly.variables(4)):
        raise VerificationError("the chart section is not a right inverse")
    if not torus_equivalent(source, _after(epsilon, delta),
                            Poly.variables(6)):
        raise VerificationError("the chart section is not a left inverse "
                                "on the dense chart")
    return {
        "kind": "delta_H1",
        "right_inverse": True,
        "left_inverse_on_chart": True,
        "ok": True,
    }


def verify_witness(link, q=None, h=None):
    """Run the exact checks behind a stored link witness.

    For the degree-raising quadric-fibration link the caller supplies
    the fiber polynomial and the twisting form (as polynomials or
    strings); the other witnesses are self-contained.
    """
    witness = (link.witness if isinstance(link, registry.LinkDescriptor)
               else link)
    if not witness:
        raise ValueError("this link has no machine-checkable witness")
    kind = witness.get("kind")
    if kind == "psi_G1":
        return _check_psi_g1()
    if kind == "delta_H1":
        return _check_delta_h1()
    if kind == "psi_h":
        if q is None or h is None:
            raise ValueError("the quadric-fibration witness needs the "
                             "fiber polynomial q and the twisting form h")
        if isinstance(q, str):
            q = parse_poly(q)
        if isinstance(h, str):
            h = parse_poly(h)
        result = quadrics.check_psi_h(q, h)
        result = dict(result)
        result.update({"kind": "psi_h", "ok": True})
        return result
    raise ValueError("unknown witness kind %r" % kind)
