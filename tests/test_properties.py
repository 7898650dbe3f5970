"""Algebraic properties of the exact kernel, checked on random inputs:
the ring laws of ``Poly`` (Laurent exponents included), ``substitute`` as
a ring homomorphism and ``Poly2.compose`` as a substitution."""

from hypothesis import given, settings
from hypothesis import strategies as st

from realforms.exact import Cyclo, Mat2, Poly, Poly2

SETTINGS = settings(max_examples=30, deadline=None)

small = st.integers(-3, 3)
# one conductor per example: mixing conductors would multiply in
# Q(zeta_lcm), whose degree grows far beyond the fields the package uses
conductors = st.integers(1, 12)


def cyclos(n):
    return st.lists(small, min_size=n, max_size=n).map(
        lambda coeffs: Cyclo(n, coeffs))


def laurent_polys(n, min_exp=-3):
    exps = st.tuples(st.integers(min_exp, 3), st.integers(min_exp, 3))
    return st.dictionaries(exps, cyclos(n), max_size=3).map(
        lambda terms: Poly(terms, nvars=2))


def monomials(n):
    return st.builds(lambda e0, e1, c: Poly({(e0, e1): c}),
                     small, small, cyclos(n).filter(bool))


def binary_forms(n):
    return st.integers(0, 6).flatmap(lambda d: st.dictionaries(
        st.integers(0, d), cyclos(n), max_size=4).map(
        lambda terms: Poly2(d, {(a, d - a): c for a, c in terms.items()})))


@SETTINGS
@given(conductors.flatmap(lambda n: st.tuples(*[laurent_polys(n)] * 3)))
def test_ring_laws(polys):
    p, q, r = polys
    zero, one = Poly(nvars=2), Poly({(0, 0): 1})
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p
    assert p - p == zero
    assert p ** 2 == p * p and p ** 0 == one


@SETTINGS
@given(conductors.flatmap(lambda n: st.tuples(
    laurent_polys(n), laurent_polys(n), monomials(n), monomials(n))))
def test_substitute_is_a_ring_homomorphism(values):
    # Laurent exponents need invertible (monomial) arguments
    p, q, *args = values
    assert (p + q).substitute(args) == p.substitute(args) + q.substitute(args)
    assert (p * q).substitute(args) == p.substitute(args) * q.substitute(args)


@SETTINGS
@given(conductors.flatmap(lambda n: st.tuples(
    *[laurent_polys(n, min_exp=0)] * 4)))
def test_polynomial_substitution_is_a_ring_homomorphism(values):
    p, q, *args = values
    assert (p * q).substitute(args) == p.substitute(args) * q.substitute(args)
    assert (p - q).substitute(args) == p.substitute(args) - q.substitute(args)


@SETTINGS
@given(conductors.flatmap(lambda n: st.tuples(binary_forms(n),
                                              *[cyclos(n)] * 4)))
def test_compose_is_substitution_of_linear_forms(values):
    g, m00, m01, m10, m11 = values
    composed = g.compose(Mat2(m00, m01, m10, m11))
    rows = (Poly2(1, {(1, 0): m00, (0, 1): m01}),
            Poly2(1, {(1, 0): m10, (0, 1): m11}))
    assert isinstance(composed, Poly2) and composed.degree == g.degree
    assert composed == g.substitute(rows)
