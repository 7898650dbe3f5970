"""Algebraic properties of the exact kernel, checked on random inputs:
the ring laws of ``Poly`` (Laurent exponents included), ``substitute`` as
a ring homomorphism, ``Poly2.compose`` as a substitution,
``Poly.proportionality`` against the full product, and the parser
against the same expression evaluated by ``Poly`` arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realforms.exact import Cyclo, Mat2, Poly, Poly2
from realforms.parsing import parse_formula, parse_poly

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


# Random texts of the parser's grammar, each with its value computed by
# ``Poly`` arithmetic from the same tree.  ``depth`` is the number of
# parenthesis levels that may still open, at most 2.  A term has at most
# two factors, and a factor's power is at most 3, 2 or 1 at depth 0, 1
# or 2 (or the degree d of a binary form's factor, as in u0^d), so that
# every text stays small.  One conductor N per text keeps the field of
# zeta(N) and i small.


def _expression(draw, n, nvars, depth, degree):
    """(text, value) of 1-2 signed terms, each homogeneous of ``degree``
    unless it is None, and at times one of them again with the other
    sign, so that the two cancel."""
    terms = [(draw(st.sampled_from("+-")),
              *_term(draw, n, nvars, depth, degree))
             for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        sign, text, value = draw(st.sampled_from(terms))
        terms.append(("-" if sign == "+" else "+", text, value))
    (sign, text, value), rest = terms[0], terms[1:]
    out = ("-" if sign == "-" else draw(st.sampled_from(["", "+"]))) + text
    total = -value if sign == "-" else value
    for sign, text, value in rest:
        out += " %s %s" % (sign, text)
        total = total - value if sign == "-" else total + value
    return out, total


def _term(draw, n, nvars, depth, degree):
    count = draw(st.integers(1, 2))
    if degree is None:
        degrees = [None] * count
    else:
        cut = draw(st.integers(0, degree)) if count == 2 else degree
        degrees = [cut, degree - cut][:count]
    factors = [_factor(draw, n, nvars, depth, d) for d in degrees]
    value = factors[0][1]
    for _, v in factors[1:]:
        value = value * v
    return "*".join(text for text, _ in factors), value


def _factor(draw, n, nvars, depth, degree):
    """A chain of unary minus, an atom and a power ^0, ^1 or ^k."""
    powers = [None, *range((3, 2, 1)[depth] + 1)]
    if degree is not None:
        # an atom outside parentheses has degree at most 1
        powers = [k for k in powers + [degree]
                  if (degree == 0 if k == 0 else
                      (k is None or degree % k == 0)
                      and (depth or (degree if k is None
                                     else degree // k) < 2))]
    k = draw(st.sampled_from(powers))
    inner = degree if k in (None, 1) or degree is None \
        else None if k == 0 else degree // k
    text, value = _atom(draw, n, nvars, depth, inner)
    if k is not None:
        text, value = "%s^%d" % (text, k), value ** k
    minus = draw(st.integers(0, 3))
    return "-" * minus + text, -value if minus % 2 else value


def _atom(draw, n, nvars, depth, degree):
    kinds = []
    if degree in (None, 0):
        kinds += ["number", "i", "zeta"]
    if degree in (None, 1):
        kinds += ["variable"] + (["conj"] if nvars == 4 else [])
    if depth:
        kinds.append("sum")
    kind = draw(st.sampled_from(kinds))
    if kind == "sum":
        text, value = _expression(draw, n, nvars, depth - 1, degree)
        return "(%s)" % text, value
    if kind in ("variable", "conj"):
        k = draw(st.integers(0, 1))
        if kind == "conj":
            return "conj(u%d)" % k, Poly.variables(nvars)[2 + k]
        return "u%d" % k, Poly.variables(nvars)[k]
    if kind == "i":
        scalar, text = Cyclo.i(), "i"
    elif kind == "zeta":
        scalar, text = Cyclo.zeta(n), "zeta(%d)" % n
    else:
        a, b = draw(st.integers(0, 9)), draw(st.integers(1, 4))
        scalar, text = Fraction(a, b), "%d/%d" % (a, b) if b > 1 else str(a)
    return text, Poly({(0,) * nvars: scalar}, nvars)


@st.composite
def binary_form_texts(draw):
    return _expression(draw, draw(conductors), 2, draw(st.integers(0, 2)),
                       draw(st.integers(0, 4)))


@st.composite
def formula_texts(draw):
    return _expression(draw, draw(conductors), 4, draw(st.integers(0, 2)),
                       None)


@SETTINGS
@given(binary_form_texts())
def test_parse_poly_agrees_with_poly_arithmetic(case):
    text, value = case
    if value.is_zero():
        with pytest.raises(ValueError, match="^zero polynomial$"):
            parse_poly(text)
        return
    parsed = parse_poly(text)
    assert isinstance(parsed, Poly2), text
    assert parsed == value and parsed.degree == sum(next(iter(value.terms)))


@SETTINGS
@given(formula_texts(), st.booleans())
def test_parse_formula_agrees_with_poly_arithmetic(case, bracketed):
    text, value = case
    if bracketed:
        text = "[%s]" % text
    assert parse_formula(text, ("u0", "u1")) == [value], text


def _full_product_proportionality(p, q):
    """Poly.proportionality as it was: other * lam built in full."""
    if not q.terms:
        return None
    key = max(q.terms)
    cand = p.terms.get(key)
    if cand is None:
        return None
    lam = cand / q.terms[key]
    return lam if p == q * lam else None


@SETTINGS
@given(conductors.flatmap(lambda n: st.tuples(
    laurent_polys(n), laurent_polys(n), cyclos(n).filter(bool),
    cyclos(n).filter(bool), st.integers(0, 2))))
def test_proportionality_matches_the_full_product(data):
    p, q, s, t, k = data
    multiple = q * s
    # the same support as the multiple, one coefficient off by t
    changed = dict(multiple.terms)
    if changed:
        key = sorted(changed)[k % len(changed)]
        changed[key] = changed[key] + t or t
    changed = Poly(changed, nvars=2)
    assert changed.terms.keys() == multiple.terms.keys()
    for a, b in ((multiple, q), (changed, q), (q, changed), (p, q),
                 (q, p), (p, p), (p, Poly(nvars=2)), (Poly(nvars=2), q)):
        assert a.proportionality(b) == _full_product_proportionality(a, b)
    if q.terms:
        assert multiple.proportionality(q) == s
    # a different number of variables is never proportional
    wide = Poly({e + (0,): c for e, c in q.terms.items()}, nvars=3)
    assert q.proportionality(wide) is None
    assert wide.proportionality(q) is None
