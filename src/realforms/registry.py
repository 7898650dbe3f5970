"""Registry of real forms and equivariant links, with exact validators.

The classification of real forms of the ambient threefold families is a
finite amount of curated data: for each family, the list of forms with
their rationality status, real-point status, connected symmetry group,
and — whenever the form is cut out on a toric or multihomogeneous
ambient — an explicit antiholomorphic coordinate formula.  The data
lives in a versioned JSON file whose checksum is verified at load time;
this module instantiates it per parameter value and backs every stored
formula with symbolic checks:

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
* the real torus helpers enumerate the forms of a torus of given
  dimension and classify an integral Galois involution on the character
  lattice into its split, circle, and restriction-of-scalars parts.

Equations and their pullbacks are ``exact.Poly`` values in the ambient
coordinates, and the rational linear algebra (the grading solve, ranks)
goes through ``exact.solve_linear`` / ``exact.row_reduce``; only the
integral Smith-style diagonalization lives here.
"""

import json
import re
from fractions import Fraction
from functools import cache
from hashlib import sha256
from importlib import resources

from .exact import Cyclo, Poly, VerificationError, row_reduce, solve_linear
from .lattices import FamilyId
from . import quadrics
from . import schwarzenberger
from .parsing import parse_poly, render_scalar

__all__ = [
    "Ambient",
    "FormDescriptor",
    "LinkDescriptor",
    "MonomialMap",
    "StructureMap",
    "TorusShape",
    "VerificationError",
    "fabc_ambient",
    "pb_ambient",
    "wb_ambient",
    "rmn_ambient",
    "p1cube_ambient",
    "flag_ambient",
    "wps_ambient",
    "p3_ambient",
    "p4_ambient",
    "parse_structure",
    "parse_monomial_map",
    "parse_polynomial",
    "verify_involution",
    "verify_witness",
    "torus_equivalent",
    "signature",
    "real_locus_form",
    "torus_forms",
    "tori_conjugate",
    "torus_shape_of_involution",
    "registry_version",
    "forms_of",
    "links_from",
    "validate_descriptor",
    "validate_all",
]

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

_ONE = Cyclo.rational(1)


def _rank_mod2(matrix):
    """Rank over GF(2): rows as bit masks; each nonzero row taken as a
    pivot clears its lowest bit from the remaining rows."""
    rows = [sum((int(v) % 2) << j for j, v in enumerate(row))
            for row in matrix]
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def _identity_int(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _diagonalize_int(matrix):
    """U . A . V = D with U, V unimodular and D diagonal (all integer)."""
    d = [[int(v) for v in row] for row in matrix]
    m = len(d)
    n = len(d[0]) if m else 0
    u = _identity_int(m)
    v = _identity_int(n)
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


def _int_solve(matrix, rhs):
    """An integer solution of matrix . x = rhs, or None."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    d, u, v = _diagonalize_int(matrix)
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


def _int_kernel(matrix):
    """An integral basis of the kernel of an integer matrix."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    d, _, v = _diagonalize_int(matrix)
    basis = []
    for j in range(n):
        if j >= min(m, n) or d[j][j] == 0:
            basis.append([v[i][j] for i in range(n)])
    return basis


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
        weights = tuple(tuple(int(w) for w in vec) for vec in weights)
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

    def index(self, name):
        try:
            return self.coords.index(name)
        except ValueError:
            raise ValueError("unknown coordinate %r on %s"
                             % (name, self.name)) from None

    def weight_matrix(self):
        """Torus-rank x coordinate-count integer matrix of weights."""
        return [[self.weights[c][k] for c in range(len(self.coords))]
                for k in range(self.rank)]

    def __repr__(self):
        return "Ambient(%s)" % self.name


def fabc_ambient(a, b, c):
    """Coordinates and torus weights of the decomposable double bundle."""
    coords = ("x0", "x1", "y0", "y1", "z0", "z1")
    weights = ((1, -b, 0), (1, 0, -c), (0, 1, -a), (0, 1, 0),
               (0, 0, 1), (0, 0, 1))
    return Ambient("F_%d^{%d,%d}" % (a, b, c), coords, weights,
                   ((0, 1), (2, 3), (4, 5)))


def p1cube_ambient():
    ambient = fabc_ambient(0, 0, 0)
    return Ambient("(P1)^3", ambient.coords, ambient.weights, ambient.blocks)


def pb_ambient(b):
    coords = ("y0", "y1", "z0", "z1", "z2")
    weights = ((1, -b), (1, 0), (0, 1), (0, 1), (0, 1))
    return Ambient("P_%d" % b, coords, weights, ((0, 1), (2, 3, 4)))


def wb_ambient(b):
    coords = ("y0", "y1", "z0", "z1", "z2")
    weights = ((1, 1 - 2 * b), (1, 0), (0, 1), (0, 1), (0, 2))
    return Ambient("W_%d" % b, coords, weights, ((0, 1), (2, 3, 4)))


def rmn_ambient(m, n):
    coords = ("x0", "x1", "x2", "y0", "y1")
    weights = ((1, -m), (1, -n), (1, 0), (0, 1), (0, 1))
    return Ambient("R_(%d,%d)" % (m, n), coords, weights, ((0, 1, 2), (3, 4)))


def flag_ambient():
    coords = ("x0", "x1", "x2", "y0", "y1", "y2")
    weights = ((1, 0), (1, 0), (1, 0), (0, 1), (0, 1), (0, 1))
    incidence = Poly({
        (1, 0, 0, 1, 0, 0): 1,
        (0, 1, 0, 0, 1, 0): 1,
        (0, 0, 1, 0, 0, 1): 1,
    })
    return Ambient("flag(P2 x P2)", coords, weights,
                   ((0, 1, 2), (3, 4, 5)), (incidence,))


def wps_ambient(*degrees):
    coords = tuple("t%d" % i for i in range(len(degrees)))
    weights = tuple((int(d),) for d in degrees)
    name = "P(%s)" % ",".join(str(d) for d in degrees)
    return Ambient(name, coords, weights, (tuple(range(len(degrees))),))


def p3_ambient():
    coords = ("w0", "w1", "w2", "w3")
    return Ambient("P^3", coords, ((1,),) * 4, (tuple(range(4)),))


def p4_ambient():
    coords = ("w0", "w1", "w2", "w3", "w4")
    return Ambient("P^4", coords, ((1,),) * 5, (tuple(range(5)),))


_AMBIENT_BUILDERS = {
    "fabc": fabc_ambient,
    "pb": pb_ambient,
    "wb": wb_ambient,
    "rmn": rmn_ambient,
    "p1cube": p1cube_ambient,
    "flag": flag_ambient,
    "wps": wps_ambient,
    "p3": p3_ambient,
    "p4": p4_ambient,
}


def _build_ambient(spec):
    kind, params = spec
    return _AMBIENT_BUILDERS[kind](*params)


# ----------------------------------------------------------------------
# formula parsing


_TOKEN = re.compile(r"conj\(|\d+|[A-Za-z]\w*|[\^\*\(\)\+\-/:;\[\]]")


def _tokenize_map(text):
    out = []
    pos = 0
    for match in _TOKEN.finditer(text):
        if text[pos:match.start()].strip():
            raise ValueError("unexpected input %r in formula"
                             % text[pos:match.start()].strip())
        out.append(match.group())
        pos = match.end()
    if text[pos:].strip():
        raise ValueError("unexpected input %r in formula" % text[pos:].strip())
    return out


class _Term:
    __slots__ = ("coeff", "exps", "conjugated", "plain")

    def __init__(self, coeff, exps, conjugated, plain):
        self.coeff = coeff
        self.exps = exps
        self.conjugated = conjugated
        self.plain = plain


class _MapParser:
    def __init__(self, text, names):
        self.tokens = _tokenize_map(text)
        self.pos = 0
        self.names = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ValueError("formula ended unexpectedly")
        if expected is not None and tok != expected:
            raise ValueError("expected %r, found %r" % (expected, tok))
        self.pos += 1
        return tok

    def components(self):
        if self.peek() == "[":
            self.take()
        comps = [self.poly()]
        while self.peek() in (":", ";"):
            self.take()
            comps.append(self.poly())
        if self.peek() == "]":
            self.take()
        if self.peek() is not None:
            raise ValueError("trailing input after formula")
        return comps

    def poly(self):
        terms = []
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        terms.append(self.term(sign))
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            terms.append(self.term(sign))
        return terms

    def _exponent(self):
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ValueError("expected an integer exponent")
            return int(tok)
        return 1

    def term(self, sign):
        coeff = Cyclo.rational(sign)
        exps = [0] * self.nvars
        conjugated = set()
        plain = set()
        while True:
            if self.peek() == "-":
                self.take()
                coeff = coeff * Cyclo.rational(-1)
                continue
            tok = self.take()
            if tok == "conj(":
                name = self.take()
                if name not in self.names:
                    raise ValueError("unknown coordinate %r" % name)
                self.take(")")
                index = self.names[name]
                exps[index] += self._exponent()
                conjugated.add(index)
            elif tok.isdigit():
                value = Fraction(int(tok))
                if self.peek() == "/":
                    self.take()
                    den = self.take()
                    if not den.isdigit() or int(den) == 0:
                        raise ValueError("expected a nonzero denominator")
                    value /= int(den)
                coeff = coeff * Cyclo.rational(value)
            elif tok == "i":
                power = self._exponent()
                coeff = coeff * Cyclo.zeta(4) ** power
            elif tok in self.names:
                index = self.names[tok]
                exps[index] += self._exponent()
                plain.add(index)
            else:
                raise ValueError("unexpected token %r in formula" % tok)
            if self.peek() == "*":
                self.take()
                continue
            break
        return _Term(coeff, tuple(exps), frozenset(conjugated),
                     frozenset(plain))


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
        n = len(self.ambient.coords)
        comps = []
        for scalar, source in zip(self.scalars, self.perm):
            exps = [0] * n
            exps[source] = 1
            comps.append((scalar, tuple(exps)))
        return MonomialMap(n, tuple(comps))

    def __repr__(self):
        return "StructureMap(%s on %s)" % (self.text, self.ambient.name)


def parse_structure(text, ambient):
    """Parse an antiholomorphic signed coordinate permutation."""
    comps = _MapParser(text, ambient.coords).components()
    if len(comps) != len(ambient.coords):
        raise ValueError(
            "structure has %d components but %s has %d coordinates"
            % (len(comps), ambient.name, len(ambient.coords)))
    scalars = []
    perm = []
    for terms in comps:
        if len(terms) != 1:
            raise ValueError("structure components must be single monomials")
        term = terms[0]
        if sum(term.exps) != 1:
            raise ValueError("structure components must be linear in one "
                             "coordinate")
        if term.plain:
            raise ValueError("a real structure must conjugate the "
                             "coordinates it uses")
        if term.coeff.is_zero():
            raise ValueError("zero component in structure")
        scalars.append(term.coeff)
        perm.append(term.exps.index(1))
    return StructureMap(ambient, scalars, perm, text)


class MonomialMap:
    """A coordinate map whose components are single monomials."""

    __slots__ = ("source_nvars", "components")

    def __init__(self, source_nvars, components):
        self.source_nvars = int(source_nvars)
        self.components = tuple(
            (coeff, tuple(int(e) for e in exps))
            for coeff, exps in components)

    @classmethod
    def identity(cls, nvars):
        comps = []
        for i in range(nvars):
            exps = [0] * nvars
            exps[i] = 1
            comps.append((_ONE, tuple(exps)))
        return cls(nvars, comps)

    def conj_coeffs(self):
        return MonomialMap(
            self.source_nvars,
            tuple((c.conjugate(), e) for c, e in self.components))

    def compose(self, inner):
        """self after inner (apply inner first)."""
        if self.source_nvars != len(inner.components):
            raise ValueError("component count of the inner map must match "
                             "the variable count of the outer map")
        comps = []
        for coeff, exps in self.components:
            total = [0] * inner.source_nvars
            for j, power in enumerate(exps):
                if power:
                    icoeff, iexps = inner.components[j]
                    coeff = coeff * icoeff ** power
                    total = [a + power * b for a, b in zip(total, iexps)]
            comps.append((coeff, tuple(total)))
        return MonomialMap(inner.source_nvars, comps)

    def as_polys(self):
        return [Poly({exps: coeff}) for coeff, exps in self.components]

    def __repr__(self):
        return "MonomialMap(%d -> %d)" % (self.source_nvars,
                                          len(self.components))


def parse_monomial_map(text, source_names):
    """Parse a regular map with monomial components."""
    comps = _MapParser(text, tuple(source_names)).components()
    out = []
    for terms in comps:
        if len(terms) != 1:
            raise ValueError("expected monomial components")
        term = terms[0]
        if term.conjugated:
            raise ValueError("a regular map must not conjugate coordinates")
        if term.coeff.is_zero():
            raise ValueError("zero component in map")
        out.append((term.coeff, term.exps))
    return MonomialMap(len(tuple(source_names)), out)


def parse_polynomial(text, source_names):
    """Parse one polynomial expression over named variables."""
    names = tuple(source_names)
    comps = _MapParser(text, names).components()
    if len(comps) != 1:
        raise ValueError("expected a single polynomial, not a map")
    total = Poly(nvars=len(names))
    for term in comps[0]:
        if term.conjugated:
            raise ValueError("polynomials here must not conjugate variables")
        total = total + Poly({term.exps: term.coeff})
    return total


# ----------------------------------------------------------------------
# involution verification


def _grading_matrix(structure):
    ambient = structure.ambient
    rank = ambient.rank
    ncoords = len(ambient.coords)
    rows = []
    rhs = []
    for i in range(ncoords):
        source = ambient.weights[i]
        target = ambient.weights[structure.perm[i]]
        for k in range(rank):
            row = [Fraction(0)] * (rank * rank)
            for l in range(rank):
                row[k * rank + l] = Fraction(source[l])
            rows.append(row)
            rhs.append(Fraction(target[k]))
    solution = solve_linear(rows, rhs)
    if solution is None:
        return None
    matrix = [[solution[k * rank + l] for l in range(rank)]
              for k in range(rank)]
    for i in range(ncoords):
        source = ambient.weights[i]
        target = ambient.weights[structure.perm[i]]
        for k in range(rank):
            if sum(matrix[k][l] * source[l] for l in range(rank)) != target[k]:
                return None
    if any(v.denominator != 1 for row in matrix for v in row):
        return None
    matrix = [[int(v) for v in row] for row in matrix]
    diagonal, _, _ = _diagonalize_int(matrix)
    if any(abs(diagonal[k][k]) != 1 for k in range(rank)):
        return None
    return matrix


def _torus_realizes_scalars(ambient, scalars):
    """Whether coordinate rescaling by ``scalars`` is a torus element.

    A rescaling lies on the structure torus exactly when it satisfies
    every multiplicative relation among the coordinate weights, and the
    relations are generated by an integral kernel basis of the weight
    matrix.
    """
    kernel = _int_kernel(ambient.weight_matrix())
    for relation in kernel:
        product = _ONE
        for scalar, exponent in zip(scalars, relation):
            if exponent:
                product = product * scalar ** exponent
        if product != _ONE:
            return False
    return True


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
    if not _torus_realizes_scalars(amb, rescaling):
        raise VerificationError(
            "the square rescales the coordinates by a pattern outside "
            "the structure torus of %s" % amb.name)
    comps = structure.regular_part().as_polys()
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
    monomials in the source coordinates.  Existence of ``t`` splits
    into an integral linear system for the monomial exponents and
    multiplicative relations for the coefficients along an integral
    kernel basis of the target weight matrix.
    """
    ncoords = len(target_ambient.coords)
    if len(first.components) != ncoords or len(second.components) != ncoords:
        raise ValueError("maps must have one component per coordinate of %s"
                         % target_ambient.name)
    if first.source_nvars != second.source_nvars:
        raise ValueError("maps must share a source")
    nsrc = first.source_nvars
    ratios = []
    for (c1, e1), (c2, e2) in zip(first.components, second.components):
        ratios.append((c1 * c2.inverse(),
                       tuple(a - b for a, b in zip(e1, e2))))
    weight_rows = target_ambient.weight_matrix()
    for relation in _int_kernel(weight_rows):
        coeff = _ONE
        exps = [0] * nsrc
        for (rc, re), exponent in zip(ratios, relation):
            if exponent:
                coeff = coeff * rc ** exponent
                exps = [a + exponent * b for a, b in zip(exps, re)]
        if coeff != _ONE or any(exps):
            return False
    transpose = [[weight_rows[k][c] for k in range(target_ambient.rank)]
                 for c in range(ncoords)]
    for j in range(nsrc):
        rhs = [ratios[c][1][j] for c in range(ncoords)]
        if _int_solve(transpose, rhs) is None:
            return False
    return True


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


def _variable(nvars, index, coeff=1):
    return Poly({tuple(int(k == index) for k in range(nvars)): coeff})


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
    args = [None] * n
    next_var = 0
    for i in range(n):
        j = structure.perm[i]
        if j == i:
            scalar = structure.scalars[i]
            try:
                root = scalar.sqrt()
            except ValueError:
                root = None
            if root is None or root * root.conjugate() != _ONE:
                raise ValueError("fixed-coordinate scalar admits no "
                                 "unit square root")
            args[i] = _variable(n, next_var, root)
            next_var += 1
        elif i < j:
            real_part = _variable(n, next_var)
            imag_part = _variable(n, next_var + 1)
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
# real tori


class TorusShape(tuple):
    """Isomorphism class of a real torus: restriction-of-scalars pairs,
    circle factors, and split factors."""

    def __new__(cls, p, q, r):
        p, q, r = int(p), int(q), int(r)
        if min(p, q, r) < 0:
            raise ValueError("torus shape entries must be >= 0")
        return super().__new__(cls, (p, q, r))

    @property
    def p(self):
        return self[0]

    @property
    def q(self):
        return self[1]

    @property
    def r(self):
        return self[2]

    @property
    def dimension(self):
        return 2 * self[0] + self[1] + self[2]

    @property
    def label(self):
        parts = []
        if self[0]:
            parts.append("Weil(Gm(C))^%d" % self[0])
        if self[1]:
            parts.append("S1^%d" % self[1])
        if self[2]:
            parts.append("Gm(R)^%d" % self[2])
        return " x ".join(parts) if parts else "1"

    def __repr__(self):
        return "TorusShape(p=%d, q=%d, r=%d)" % self


def torus_forms(dimension):
    """All real forms of a torus of the given dimension."""
    if dimension < 0:
        raise ValueError("dimension must be >= 0")
    shapes = []
    for p in range(dimension // 2, -1, -1):
        for q in range(dimension - 2 * p, -1, -1):
            shapes.append(TorusShape(p, q, dimension - 2 * p - q))
    return shapes


def tori_conjugate(first, second):
    """Conjugacy of two real tori inside the real Cremona group.

    For tori this coincides with abstract isomorphism, which in turn
    is equality of shapes; mismatched dimensions are a domain error.
    """
    first = TorusShape(*first)
    second = TorusShape(*second)
    if first.dimension != second.dimension:
        raise ValueError("tori of different dimension are never conjugate "
                         "inside the same Cremona group")
    return first == second


def torus_shape_of_involution(matrix):
    """Classify an integral Galois involution on a character lattice.

    The lattice splits into swapped pairs (restriction of scalars),
    anti-fixed lines (circle factors), and fixed lines (split factors);
    the counts are recovered from exact ranks.
    """
    rows = [[int(v) for v in row] for row in matrix]
    d = len(rows)
    for row in rows:
        if len(row) != d:
            raise ValueError("matrix must be square")
    square = [[sum(rows[i][k] * rows[k][j] for k in range(d))
               for j in range(d)] for i in range(d)]
    if square != _identity_int(d):
        raise ValueError("matrix must be an involution")
    minus = [[rows[i][j] - (1 if i == j else 0) for j in range(d)]
             for i in range(d)]
    plus = [[rows[i][j] + (1 if i == j else 0) for j in range(d)]
            for i in range(d)]
    pairs = _rank_mod2(minus)
    fixed = d - len(row_reduce(minus))
    anti = d - len(row_reduce(plus))
    shape = TorusShape(pairs, anti - pairs, fixed - pairs)
    if shape.dimension != d:
        raise VerificationError("involution does not decompose; this "
                                "should be impossible for M^2 = I")
    return shape


# ----------------------------------------------------------------------
# descriptors


class FormDescriptor:
    """One real form: statuses, symmetry label, and checkable witness."""

    __slots__ = ("name", "family", "has_real_points", "rational", "aut0",
                 "real_structure", "ambient", "certificate", "notes",
                 "entry", "params")

    def __init__(self, name, family, has_real_points, rational, aut0=None,
                 real_structure=None, ambient=None, certificate=None,
                 notes=None, entry=None, params=None):
        for status in (has_real_points, rational):
            if status not in (YES, NO, UNKNOWN):
                raise ValueError("statuses must be yes/no/unknown")
        self.name = name
        self.family = family
        self.has_real_points = has_real_points
        self.rational = rational
        self.aut0 = aut0
        self.real_structure = real_structure
        self.ambient = ambient
        self.certificate = certificate
        self.notes = notes
        self.entry = entry
        self.params = dict(params or {})

    def as_dict(self):
        ambient = None
        if self.ambient is not None:
            ambient = {"kind": self.ambient[0],
                       "params": list(self.ambient[1])}
        return {
            "name": self.name,
            "family": self.family,
            "has_real_points": self.has_real_points,
            "rational": self.rational,
            "aut0": self.aut0,
            "real_structure": self.real_structure,
            "ambient": ambient,
            "notes": self.notes,
        }

    def __repr__(self):
        return "FormDescriptor(%s)" % self.name


class LinkDescriptor:
    """One equivariant birational link out of a real form."""

    __slots__ = ("source", "link_type", "target", "witness", "notes")

    def __init__(self, source, link_type, target, witness=None, notes=None):
        if link_type not in ("I", "II", "III", "IV", "divisorial"):
            raise ValueError("unknown link type %r" % (link_type,))
        self.source = source
        self.link_type = link_type
        self.target = target
        self.witness = witness
        self.notes = notes

    def as_dict(self):
        return {
            "source": self.source,
            "type": self.link_type,
            "target": self.target,
            "witness": dict(self.witness) if self.witness else None,
            "notes": self.notes,
        }

    def __repr__(self):
        return "LinkDescriptor(%s -> %s, type %s)" % (
            self.source, self.target, self.link_type)


# ----------------------------------------------------------------------
# the data file


@cache
def _load():
    text = (resources.files("realforms") / "data" / "registry.json") \
        .read_text(encoding="utf-8")
    data = json.loads(text)
    canonical = json.dumps(data["entries"], sort_keys=True,
                           separators=(",", ":"))
    digest = sha256(canonical.encode("utf-8")).hexdigest()
    if digest != data["checksum"]:
        raise VerificationError(
            "registry data file failed its integrity checksum")
    return data


def registry_version():
    return _load()["version"]


def _entry(entry_id):
    forms = _load()["entries"]["forms"]
    if entry_id not in forms:
        raise KeyError("registry entry %r is missing" % entry_id)
    return forms[entry_id]


def _make(entry_id, name, family, ambient=None, params=None,
          statuses=None, aut0=None, notes=None):
    record = _entry(entry_id)
    stored = dict(record["statuses"])
    if statuses:
        stored.update(statuses)
    return FormDescriptor(
        name=name,
        family=family,
        has_real_points=stored["has_real_points"],
        rational=stored["rational"],
        aut0=aut0 if aut0 is not None else record.get("aut0"),
        real_structure=record.get("structure"),
        ambient=ambient,
        certificate=record.get("certificate"),
        notes=notes if notes is not None else record.get("notes"),
        entry=entry_id,
        params=params,
    )


# ----------------------------------------------------------------------
# forms


_Z_ORDER = ("z_030", "z_110", "z_021", "z_101", "z_012", "z_003")
_Z_NAMES = {
    "z_030": "Z_{0,3,0}",
    "z_110": "Z_{1,1,0}",
    "z_021": "Z_{0,2,1}",
    "z_101": "Z_{1,0,1}",
    "z_012": "Z_{0,1,2}",
    "z_003": "Z_{0,0,3}",
}

_NAMED_TARGETS = {
    "P3": "p3", "P^3": "p3",
    "Q3": "q3", "Q^3": "q3",
    "P(1,1,1,2)": "wps1112",
    "P(1,1,2,3)": "wps1123",
    "Y5": "y5", "Y_5": "y5",
    "X12": "x12", "X_12": "x12",
    "Q13": "q13", "Q^{1,3}": "q13",
    "(P1)^3": "p1cube", "(P1R)^3": "p1cube",
}


def _trivial_aut0(label):
    return "Aut0(%s)(R)" % label


def _forms_fabc(family):
    a, b, c = family.params
    label = family.label
    if (a, b, c) == (0, 0, 0):
        return [_make(key, _Z_NAMES[key], label, ambient=("p1cube", ()))
                for key in _Z_ORDER]
    if a == 0 and b == abs(c):
        ambient = ("fabc", (0, b, c))
        trivial = _make("fabc_trivial", label, label, ambient=ambient,
                        aut0=_trivial_aut0(label))
        if c < 0:
            return [trivial,
                    _make("gb", "G_%d" % b, label, ambient=ambient,
                          params={"b": b})]
        circle_aut0 = ("extension of Weil(PGL2(C)) x S^1 by Ga^%d"
                       % ((b + 1) ** 2))
        return [trivial,
                _make("hb", "H_%d" % b, label, ambient=ambient,
                      params={"b": b}, aut0=circle_aut0),
                _make("hb_empty", "H'_%d" % b, label, ambient=ambient,
                      params={"b": b})]
    if a == 0:
        return [_make("fabc_trivial", label, label,
                      ambient=("fabc", (a, b, c)),
                      aut0=_trivial_aut0(label),
                      notes="no nontrivial real form has a real point")]
    if b == 0 and a == abs(c):
        raise ValueError(
            "the exchange-symmetric boundary member %s is outside the "
            "classified range" % label)
    ambient = ("fabc", (a, b, c))
    forms = [_make("fabc_trivial", label, label, ambient=ambient,
                   aut0=_trivial_aut0(label),
                   notes="no nontrivial real form has a real point")]
    if a % 2 == 0 and c % 2 == 0:
        forms.append(_make("fabc_conj_twist", "F~_%d^{%d,%d}" % (a, b, c),
                           label, ambient=ambient))
    return forms


def _forms_pb(family):
    (b,) = family.params
    label = family.label
    if b == 0:
        return [
            _make("pb_trivial", "P^1 x P^2", label, ambient=("pb", (0,)),
                  aut0="PGL2(R) x PGL3(R)"),
            _make("p2_x_conic", "P^2 x C", label, ambient=("pb", (0,))),
        ]
    return [_make("pb_trivial", label, label, ambient=("pb", (b,)),
                  aut0=_trivial_aut0(label),
                  notes="the trivial form is the only real form")]


def _forms_sb(family):
    (b,) = family.params
    if b == 1:
        return [
            _make("s1_trivial", "S_1", "S_1", ambient=("flag", ())),
            _make("s1_tilde", "S~_1", "S_1", ambient=("flag", ())),
            _make("s1_hat", "S^_1", "S_1", ambient=("flag", ())),
        ]
    label = family.label
    twisted_status = {
        "has_real_points": YES if b % 2 else NO,
        "rational": YES if b % 2 else NO,
    }
    return [
        _make("sb_trivial", label, label),
        _make("sb_tilde", "S~_%d" % b, label, statuses=twisted_status,
              params={"b": b}),
    ]


def _forms_rmn(family):
    m, n = family.params
    label = family.label
    forms = [_make("rmn_trivial", label, label, ambient=("rmn", (m, n)),
                   aut0=_trivial_aut0(label),
                   notes="the trivial form is the only real form with a "
                         "real point")]
    if m % 2 == 0 and n % 2 == 0:
        forms.append(_make("rmn_conj_twist", "R~_(%d,%d)" % (m, n), label,
                           ambient=("rmn", (m, n))))
    else:
        forms[0] = _make("rmn_trivial", label, label,
                         ambient=("rmn", (m, n)),
                         aut0=_trivial_aut0(label),
                         notes="the trivial form is the only real form")
    return forms


def _forms_named(key):
    if key == "p1cube":
        return _forms_fabc(FamilyId.fabc(0, 0, 0))
    if key == "p3":
        return [_make("p3_trivial", "P^3", "P^3", ambient=("p3", ()))]
    if key == "q3":
        return [
            _make("q3_32", "Q^{3,2}", "Q^3"),
            _make("q3_41", "Q^{4,1}", "Q^3"),
            _make("q3_50", "Q^{5,0}", "Q^3"),
        ]
    if key == "wps1112":
        return [_make("wps1112_trivial", "P(1,1,1,2)", "P(1,1,1,2)",
                      ambient=("wps", (1, 1, 1, 2)))]
    if key == "wps1123":
        return [_make("wps1123_trivial", "P(1,1,2,3)", "P(1,1,2,3)",
                      ambient=("wps", (1, 1, 2, 3)))]
    if key == "y5":
        return [
            _make("y5_trivial", "Y_5", "Y_5"),
            _make("y5_tilde", "Y~_5", "Y_5"),
        ]
    if key == "x12":
        return [
            _make("x12_trivial", "X_12", "X_12"),
            _make("x12_tilde", "X~_12", "X_12"),
        ]
    if key == "q13":
        return [_make("q13", "Q^{1,3}", "Q^{1,3}")]
    raise ValueError("unknown named space %r" % key)


def forms_of(target):
    """The classified real forms of a family member or named threefold.

    Accepts a `FamilyId` or a name such as ``"Q3"``, ``"P(1,1,1,2)"``,
    ``"Y_5"`` or ``"(P1)^3"``.  Quadric fibrations are refused here:
    their forms depend on the fiber polynomial and are produced by the
    quadric-fibration enumerator instead.
    """
    if isinstance(target, str):
        if target in _NAMED_TARGETS:
            return _forms_named(_NAMED_TARGETS[target])
        raise ValueError("unknown named space %r" % target)
    if not isinstance(target, FamilyId):
        raise TypeError("expected a FamilyId or a name")
    kind = target.kind
    if kind == "Fabc":
        return _forms_fabc(target)
    if kind == "Pb":
        return _forms_pb(target)
    if kind == "Sb":
        return _forms_sb(target)
    if kind == "Rmn":
        return _forms_rmn(target)
    if kind == "Uabc":
        label = target.label
        return [_make("uabc_trivial", label, label,
                      aut0=_trivial_aut0(label))]
    if kind == "Vb":
        label = target.label
        return [_make("vb_trivial", label, label,
                      aut0=_trivial_aut0(label))]
    if kind == "Wb":
        label = target.label
        return [_make("wb_trivial", label, label,
                      ambient=("wb", target.params),
                      aut0=_trivial_aut0(label))]
    raise ValueError(
        "real forms of a quadric fibration depend on the fiber "
        "polynomial; use the quadric-fibration enumerator")


# ----------------------------------------------------------------------
# links


def _instantiate_links(key, source):
    stored = _load()["entries"]["links"][key]
    links = []
    for item in stored:
        target = source if item["target"] == "self" else item["target"]
        links.append(LinkDescriptor(source, item["type"], target,
                                    witness=item.get("witness"),
                                    notes=item.get("notes")))
    return links


_NO_LINK_FORMS = {"S~_1", "Q^{3,2}", "Q^{4,1}",
                  "Y_5", "Y~_5", "X_12", "X~_12"}


def links_from(form_name):
    """The equivariant Sarkisov links out of a named real form.

    Returns the classified list (possibly empty, meaning the form
    admits no nontrivial equivariant link); raises a domain error for
    forms outside the link classification, such as twists without real
    points.
    """
    name = form_name.strip()
    if name in _NO_LINK_FORMS:
        return []
    if name in ("Z_{1,1,0}", "Z_{0,3,0}"):
        return _instantiate_links(name, name)
    if name == "Q^{1,3}":
        return _instantiate_links("Q^{1,3}", name)
    if name == "U_g":
        return _instantiate_links("U_g", name)
    match = re.fullmatch(r"([GH])_(\d+)", name)
    if match:
        b = int(match.group(2))
        if b == 0:
            raise ValueError("the parameter-zero member is the triple "
                             "product of lines; use its Z-form names")
        if b == 1:
            return _instantiate_links(name, name)
        return []
    match = re.fullmatch(r"S~_(\d+)", name)
    if match:
        b = int(match.group(1))
        if b % 2 == 0:
            raise ValueError(
                "the twisted form with even parameter has empty real "
                "locus and is outside the equivariant link classification")
        return [] if b == 1 else _instantiate_links("S~_b_odd", name)
    match = re.fullmatch(r"Z_\{(\d+),(\d+),(\d+)\}", name)
    if match:
        raise ValueError(
            "forms of the triple product without real points are outside "
            "the equivariant link classification")
    raise ValueError("unknown form name %r" % form_name)


# ----------------------------------------------------------------------
# witness verification


def _witness_data(kind):
    witnesses = _load()["entries"]["witnesses"]
    if kind not in witnesses:
        raise KeyError("no stored witness of kind %r" % kind)
    return witnesses[kind]


def _component_weights(ambient, mono_map):
    weights = []
    for _, exps in mono_map.components:
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
    source = fabc_ambient(0, 1, -1)
    target = p4_ambient()
    psi = parse_monomial_map(data["map"], source.coords)
    if len(psi.components) != 5:
        raise VerificationError("the contraction witness must have five "
                                "components")
    _check_graded_onto_line(source, psi, target.name)
    quadric = parse_polynomial(data["quadric"], target.coords)
    pulled = quadric.substitute(psi.as_polys())
    if not pulled.is_zero():
        raise VerificationError("the image does not satisfy the stored "
                                "quadric relation")
    theta = parse_structure(data["source_structure"], source)
    mu = parse_structure(data["target_structure"], target)
    verify_involution(theta)
    verify_involution(mu)
    twisted = quadric.substitute(mu.regular_part().as_polys()).conj_coeffs()
    if twisted.proportionality(quadric) is None:
        raise VerificationError("the target structure does not preserve "
                                "the quadric relation")
    left = mu.regular_part().compose(psi.conj_coeffs())
    right = psi.compose(theta.regular_part())
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
    source = fabc_ambient(0, 1, 1)
    target = p3_ambient()
    delta = parse_monomial_map(data["map"], source.coords)
    epsilon = parse_monomial_map(data["inverse"], target.coords)
    if len(delta.components) != 4 or len(epsilon.components) != 6:
        raise VerificationError("stored chart maps have the wrong shape")
    _check_graded_onto_line(source, delta, target.name)
    forward = delta.compose(epsilon)
    if not torus_equivalent(target, forward, MonomialMap.identity(4)):
        raise VerificationError("the chart section is not a right inverse")
    backward = epsilon.compose(delta)
    if not torus_equivalent(source, backward, MonomialMap.identity(6)):
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
    witness = link.witness if isinstance(link, LinkDescriptor) else link
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


# ----------------------------------------------------------------------
# validation


def _points_of_quadform(sig):
    positive, negative, radical = sig
    return YES if (positive and negative) or radical else NO


def validate_descriptor(descriptor):
    """Run every machine check a descriptor carries; raise on failure."""
    checks = []
    if descriptor.rational == YES and descriptor.has_real_points != YES:
        raise VerificationError(
            "%s is marked rational but not marked with real points"
            % descriptor.name)
    checks.append("status-consistency")
    if descriptor.real_structure and descriptor.ambient:
        ambient = _build_ambient(descriptor.ambient)
        structure = parse_structure(descriptor.real_structure, ambient)
        verify_involution(structure)
        checks.append("involution")
    record = _entry(descriptor.entry) if descriptor.entry else {}
    quadform = record.get("quadform")
    if quadform:
        sig = signature(quadform)
        if sig != tuple(record["claimed_signature"]):
            raise VerificationError(
                "%s: stored quadratic form has signature %r, claimed %r"
                % (descriptor.name, sig, record["claimed_signature"]))
        expected = _points_of_quadform(sig)
        if descriptor.has_real_points != expected:
            raise VerificationError(
                "%s: real-point status %r contradicts the quadratic form"
                % (descriptor.name, descriptor.has_real_points))
        if descriptor.rational != expected:
            raise VerificationError(
                "%s: rationality status %r contradicts the quadratic form"
                % (descriptor.name, descriptor.rational))
        checks.append("quadratic-form")
    certificate = descriptor.certificate
    if certificate and certificate.get("kind") == "conic_cover_gluing":
        b = descriptor.params["b"]
        sign = schwarzenberger.verify_gluing(b)["sign"]
        if (descriptor.rational == YES) != (sign == 1):
            raise VerificationError(
                "%s: rationality contradicts the gluing sign" %
                descriptor.name)
        if (descriptor.has_real_points == NO) != (sign == -1):
            raise VerificationError(
                "%s: real-point status contradicts the gluing sign"
                % descriptor.name)
        checks.append("gluing-sign")
    return {"name": descriptor.name, "checks": checks}


_VALIDATION_SWEEP = (
    FamilyId.fabc(0, 0, 0),
    FamilyId.fabc(0, 2, 1),
    FamilyId.fabc(0, 3, 3),
    FamilyId.fabc(0, 2, -2),
    FamilyId.fabc(0, 4, -4),
    FamilyId.fabc(0, 5, 5),
    FamilyId.fabc(2, 1, 1),
    FamilyId.fabc(2, 2, 2),
    FamilyId.fabc(2, 3, 4),
    FamilyId.fabc(3, 2, 2),
    FamilyId.fabc(4, 2, -2),
    FamilyId.pb(0),
    FamilyId.pb(1),
    FamilyId.pb(3),
    FamilyId.uabc(1, 3, 2),
    FamilyId.uabc(2, 2, 4),
    FamilyId.sb(1),
    FamilyId.sb(2),
    FamilyId.sb(3),
    FamilyId.sb(4),
    FamilyId.sb(5),
    FamilyId.sb(6),
    FamilyId.sb(7),
    FamilyId.vb(3),
    FamilyId.wb(2),
    FamilyId.wb(5),
    FamilyId.rmn(0, 0),
    FamilyId.rmn(2, 2),
    FamilyId.rmn(2, 1),
    FamilyId.rmn(3, 1),
    FamilyId.rmn(4, 2),
)

_NAMED_SWEEP = ("P^3", "Q3", "P(1,1,1,2)", "P(1,1,2,3)",
                "Y_5", "X_12", "Q^{1,3}")


def validate_all():
    """Validate every reachable descriptor and stored witness."""
    report = []
    for family in _VALIDATION_SWEEP:
        for descriptor in forms_of(family):
            report.append(validate_descriptor(descriptor))
    for name in _NAMED_SWEEP:
        for descriptor in forms_of(name):
            report.append(validate_descriptor(descriptor))
    for source in ("G_1", "H_1"):
        for link in links_from(source):
            if link.witness:
                verdict = verify_witness(link)
                report.append({"name": "link %s -> %s" % (source,
                                                          link.target),
                               "checks": [verdict["kind"]]})
    for link in links_from("U_g"):
        verdict = verify_witness(link, q="u0^4+u1^4", h="u0^2+u1^2")
        report.append({"name": "link U_g -> U_{g h^2}",
                       "checks": [verdict["kind"]]})
    expected_counts = {1: 2, 2: 4, 3: 6, 4: 9}
    for dimension, count in expected_counts.items():
        shapes = torus_forms(dimension)
        if len(shapes) != count:
            raise VerificationError("torus form count for dimension %d is "
                                    "%d, expected %d"
                                    % (dimension, len(shapes), count))
    report.append({"name": "torus-form counts", "checks": ["enumeration"]})
    samples = (
        (((0, 1), (1, 0)), TorusShape(1, 0, 0)),
        (((1, 0), (0, -1)), TorusShape(0, 1, 1)),
        (((1, 0), (0, 1)), TorusShape(0, 0, 2)),
        (((-1, 0), (0, -1)), TorusShape(0, 2, 0)),
    )
    for matrix, expected in samples:
        if torus_shape_of_involution(matrix) != expected:
            raise VerificationError("involution classifier disagrees on %r"
                                    % (matrix,))
    report.append({"name": "torus involutions", "checks": ["classifier"]})
    return report
