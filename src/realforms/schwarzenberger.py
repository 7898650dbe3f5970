"""Transition matrices of the Schwarzenberger bundles over the conic.

The tautological double cover P1 x P1 -> P2 branched over a smooth conic
turns the symmetric functions s + t, s t into coordinates u, v on the
plane.  The rank-two bundles living on the two affine charts {v != 0}
and {v' != 0} are glued by a matrix A(u, v) built out of the homogenized
symmetric polynomials P_k defined by

    P_0 = 0,  P_1 = 1,  P_k = u P_{k-1} - v P_{k-2},

so that P_k(s + t, s t) (s - t) = s^k - t^k.  Everything here is exact.
Entries are ``exact.Poly`` values in (u, v) with rational coefficients;
a negative v-exponent is allowed, so p / v^k is just a polynomial with
Laurent terms.  The recurrence, the determinant identity det A = v^b,
and the chart-compatibility relation

    A(u, v) A(-u/v, 1/v) = (-1)^(b-1) I2

are all checked coefficient by coefficient.  For odd b the glued bundle
descends to an honest projective-line bundle on the twisted plane; that
geometric consequence is recorded with the real-form registry rather
than re-derived here.
"""

from functools import cache

from .exact import Poly, Poly2, VerificationError

__all__ = [
    "VerificationError",
    "hom_sym",
    "sym_identity_holds",
    "matrix",
    "verify_gluing",
]

_U = Poly({(1, 0): 1})
_V = Poly({(0, 1): 1})
# the coordinate inversion (u, v) -> (-u/v, 1/v) between the two charts
_INVERSION = (-_U * _V ** -1, _V ** -1)


# ----------------------------------------------------------------------
# homogenized symmetric polynomials


@cache
def hom_sym(k):
    """The k-th homogenized symmetric polynomial P_k(u, v).

    Defined by P_0 = 0, P_1 = 1, P_k = u P_{k-1} - v P_{k-2}; these are
    honest polynomials (no denominator) and satisfy the generating
    identity P_k(s + t, s t) (s - t) = s^k - t^k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    prev, cur = Poly(nvars=2), Poly({(0, 0): 1})
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, _U * cur - _V * prev
    return cur


def sym_identity_holds(k):
    """Exact check of P_k(s + t, s t) (s - t) == s^k - t^k."""
    s, t = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    left = hom_sym(k).substitute((s + t, s * t)) * (s - t)
    return left == Poly2.monomial(k, 0) - Poly2.monomial(0, k)


# ----------------------------------------------------------------------
# transition matrices, as pairs of rows


def _mat_mul(x, y):
    return tuple(tuple(row[0] * y[0][j] + row[1] * y[1][j] for j in (0, 1))
                 for row in x)


def matrix(b):
    """The chart-transition matrix of the b-th bundle.

    Its entries are the symmetric polynomials P_b, v P_{b-1}, P_{b+1}
    and v P_b; the determinant is checked to be exactly v^b before the
    matrix is returned.
    """
    if b < 1:
        raise ValueError("the transition matrix is defined for b >= 1")
    mat = ((hom_sym(b), _V * hom_sym(b - 1)),
           (hom_sym(b + 1), _V * hom_sym(b)))
    (p, q), (r, s) = mat
    if p * s - q * r != _V ** b:
        raise VerificationError(
            "determinant of the transition matrix for b = %d is not v^%d"
            % (b, b))
    return mat


def verify_gluing(b):
    """Exact check of the two-chart compatibility relation.

    The matrix composed with itself through the coordinate inversion
    (u, v) -> (-u/v, 1/v) must be the scalar matrix (-1)^(b-1) I2; any
    deviation raises `VerificationError`.  Returns a small verdict
    record on success.
    """
    mat = matrix(b)
    inverted = tuple(tuple(entry.substitute(_INVERSION) for entry in row)
                     for row in mat)
    product = _mat_mul(mat, inverted)
    sign = -1 if b % 2 == 0 else 1
    scalar, zero = Poly({(0, 0): sign}), Poly(nvars=2)
    if product != ((scalar, zero), (zero, scalar)):
        raise VerificationError(
            "gluing relation fails for b = %d: product is %r"
            % (b, product))
    return {"b": b, "product": "(-1)^(b-1) I2", "sign": sign, "ok": True}
