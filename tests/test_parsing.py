"""Polynomial grammar, rendering, and the JSON scalar encoding."""

import random
import sys
import time
from fractions import Fraction

import pytest

from realforms.exact import Cyclo, Mat2, Poly, Poly2, euler_phi
from realforms.parsing import (MAX_CONDUCTOR, MAX_DEGREE, MAX_NESTING,
                               ParseError, matrix_json, parse_formula,
                               parse_poly, render_poly, render_scalar,
                               scalar_json)


def test_basic_polynomials():
    g = parse_poly("u0^2 + u1^2")
    assert g.degree == 2
    assert g.coeff(2, 0) == 1 and g.coeff(0, 2) == 1
    assert parse_poly("u0*u1").coeff(1, 1) == 1


def test_coefficients_and_signs():
    g = parse_poly("-3*u0^4 + 1/2*u0^2*u1^2 - u1^4")
    assert g.coeff(4, 0) == -3
    assert g.coeff(2, 2) == Cyclo.rational(Fraction(1, 2))
    assert g.coeff(0, 4) == -1


def test_constants_i_and_zeta():
    g = parse_poly("i*u0^2 + zeta(8)*u1^2")
    assert g.coeff(2, 0) == Cyclo.i()
    assert g.coeff(0, 2) == Cyclo.zeta(8)
    powered = parse_poly("zeta(8)^2*u0*u1")
    assert powered.coeff(1, 1) == Cyclo.i()


def test_parentheses_and_products():
    g = parse_poly("(u0 + u1)^2 - 2*u0*u1")
    assert g == parse_poly("u0^2 + u1^2")
    h = parse_poly("(1 + i)*(1 - i)*u0^2")
    assert h.coeff(2, 0) == 2


def test_sums_cancel_across_terms():
    assert parse_poly("u0^2 - u0^2 + 3*u1^2 + u0^2 - 2*u1^2") \
        == parse_poly("u0^2 + u1^2")
    with pytest.raises(ValueError, match="zero polynomial"):
        parse_poly("u0^2 - 3*u1^2 + 2*u1^2 - u0^2 + u1^2")


def test_whitespace_is_free():
    assert parse_poly(" u0 ^ 2+ u1^2 ") == parse_poly("u0^2+u1^2")


def test_rejects_garbage():
    for bad in ("u0^2 + v^2", "u0^2 +", "u0^(2)", "u0^-2", "3/0*u0",
                "u0^2 ++ u1^2", "zeta(0)*u0", "@", ""):
        with pytest.raises((ParseError, ValueError)):
            parse_poly(bad)


def test_leading_plus_is_accepted():
    assert parse_poly("+u0^4+u1^4") == parse_poly("u0^4+u1^4")


@pytest.mark.parametrize("text, message", [
    ("u0^1/2+u1^4", "exponent must be a nonnegative integer"),
    ("u0^4/2+u1^2", "exponent must be a nonnegative integer"),
    ("zeta(8/2)*u0^2+u1^2", "zeta takes a positive integer"),
    ("1/u0", "expected digits after '/'"),
])
def test_malformed_numbers_are_named(text, message):
    with pytest.raises(ParseError, match=message):
        parse_poly(text)


def test_poly_rejects_the_formula_constructs():
    for bad in ("conj(u0)^4+u1^4", "[u0^4+u1^4]", "u0^4:u1^4", "u0^4;u1^4"):
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_formula_components_number_conjugates_after_plain_names():
    x0, x1, c0, c1 = (Poly({tuple(int(j == k) for j in range(4)): 1})
                      for k in range(4))
    i = Cyclo.i()
    assert parse_formula("[-conj(x1):1/2*x0; (x0 + i*conj(x0))^2]",
                         ("x0", "x1")) \
        == [-c1, x0 * Cyclo.rational(Fraction(1, 2)), (x0 + c0 * i) ** 2]
    assert parse_formula("zeta(8)*x1", ("x0", "x1")) == [x1 * Cyclo.zeta(8)]


@pytest.mark.parametrize("text", [
    "[x0:x1", "x0:x1]", "[2 / 3*x0:x1]", "conj(x2)", "conj(i)", "x0:",
    "[conj(x0)x1]", "v0"])
def test_formula_rejects(text):
    with pytest.raises(ParseError):
        parse_formula(text, ("x0", "x1"))


def test_degree_bound():
    top = parse_poly("u0^%d+u1^%d" % (MAX_DEGREE, MAX_DEGREE))
    assert top.degree == MAX_DEGREE
    assert parse_poly("u0^%d*u1^%d" % (MAX_DEGREE - 1, 1)).degree \
        == MAX_DEGREE
    for bad, message in (
            ("u0^%d+u1^%d" % (MAX_DEGREE + 1, MAX_DEGREE + 1), "exponent"),
            ("2^%d*u0^2+u1^2" % (MAX_DEGREE + 1), "exponent"),
            ("u0^%d*u1+u0*u1^%d" % (MAX_DEGREE, MAX_DEGREE), "degree"),
            ("(u0*u1)^%d" % (MAX_DEGREE // 2 + 1), "degree"),
            ("(u0+u1)*u0^%d" % MAX_DEGREE, "degree")):
        with pytest.raises(ParseError, match=message):
            parse_poly(bad)


def test_conductor_bound():
    assert parse_poly("zeta(%d)*u0^2+u1^2" % MAX_CONDUCTOR).coeff(2, 0) \
        == Cyclo.zeta(MAX_CONDUCTOR)
    parse_poly("i*zeta(3)*u0^2+u1^2")
    # the zeta and i of one text share a field: conductor lcm(N, M, 4)
    for bad in ("zeta(%d)*u0^2+u1^2" % (MAX_CONDUCTOR + 1),
                "zeta(%d)*zeta(3)*u0^2+u1^2" % MAX_CONDUCTOR,
                "zeta(%d)*u0^2+i*u1^2" % (MAX_CONDUCTOR // 2 + 1)):
        with pytest.raises(ParseError, match="conductor"):
            parse_poly(bad)
    with pytest.raises(ParseError, match="conductor"):
        parse_formula("zeta(100003)*x0", ("x0",))


def test_huge_input_fails_before_it_is_evaluated():
    for bad in ("zeta(100003)*u0^4+u1^4", "3^10000000*u0^2+u1^2",
                "u0^20000+u1^20000", "u0^520+u1^520",
                "(u0+u1)^3000+u0^3000", "u0^150*u1^150",
                "(" * 250 + "u0^4+u1^4" + ")" * 250):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_poly(bad)
        assert time.perf_counter() - start < 0.1, bad


def test_coefficient_digit_bound():
    # a numerator or denominator of exactly `digits` digits parses, one
    # more digit is refused, with a cyclotomic coefficient too; no limit
    # (0) refuses nothing
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (4300, 1000):  # CPython's default, and a lower one
            sys.set_int_max_str_digits(digits)
            nines = "9" * digits
            for coeff in (nines, "-" + nines, "1/" + nines,
                          "(%s+zeta(5)*1/7)" % nines):
                parse_poly("%s*u0^2+u1^2" % coeff)
            for coeff in (nines + "*10", "-" + nines + "*10",
                          "1/" + nines + "*(1/10)",
                          "(%s+zeta(5)*1/7)*10" % nines):
                with pytest.raises(ValueError,
                                   match="more than %d digits" % digits):
                    parse_poly("%s*u0^2+u1^2" % coeff)
        sys.set_int_max_str_digits(0)
        assert parse_poly("%s*10*u0^2+u1^2" % nines).coeff(2, 0) == \
            10 ** 1001 - 10
        # a 300-digit literal to the 200th is refused before any report
        sys.set_int_max_str_digits(4300)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 4300 digits"):
            parse_poly("(%s*u0+u1)^200+u0^200" % ("9" * 300))
        assert time.perf_counter() - start < 0.5
    finally:
        sys.set_int_max_str_digits(limit)


def test_nesting_bound():
    deepest = "(" * MAX_NESTING + "u0^4+u1^4" + ")" * MAX_NESTING
    assert parse_poly(deepest) == parse_poly("u0^4+u1^4")
    with pytest.raises(ParseError, match="nested deeper"):
        parse_poly("(" + deepest + ")")


def test_long_chains_of_unary_minus():
    short = parse_poly("u0^4+u1^4")
    assert parse_poly("-" * 2000 + "u0^4+u1^4") == short
    assert parse_poly("-" * 2001 + "u0^4+u1^4") == parse_poly("-u0^4+u1^4")
    assert parse_poly("u0^4-" + "-" * 2000 + "u1^4") == \
        parse_poly("u0^4-u1^4")


def test_rejects_inhomogeneous_and_zero():
    with pytest.raises(ValueError):
        parse_poly("u0^2 + u1^3")
    with pytest.raises(ValueError):
        parse_poly("u0 - u0")


def test_round_trip_simple():
    # the constant renders in parentheses, as its scalar has two parts
    for text in ("u0^2 + u1^2", "u0^8 + 14*u0^4*u1^4 + u1^8",
                 "u0^5*u1 - u0*u1^5", "-u0^3*u1 + i*u0*u1^3",
                 "1 + 2*zeta(12)"):
        g = parse_poly(text)
        assert parse_poly(render_poly(g)) == g


def test_round_trip_cyclotomic_coefficients():
    # every conductor up to 16, mixing basis powers and rational parts
    for n in range(1, 17):
        coeff = Cyclo.zeta(n) + Cyclo.rational(Fraction(3, 7))
        g = Poly2(4, {(4, 0): coeff, (1, 3): -coeff * coeff, (0, 4): coeff ** 3})
        assert parse_poly(render_poly(g)) == g, "conductor %d" % n


def test_render_scalar_round_trip():
    values = [Cyclo.rational(Fraction(-5, 3)), Cyclo.i(), -Cyclo.i(),
              Cyclo.zeta(12) * 2 + 1, Cyclo.zeta(7, 3)]
    for v in values:
        g = parse_poly("(%s)*u0*u1" % render_scalar(v))
        assert g.coeff(1, 1) == v


def _fraction_render_scalar(c):
    """render_scalar as it was written with Fractions: the oracle."""
    if c.is_rational():
        return str(c.as_rational())
    if c in (Cyclo.i(), -Cyclo.i()):
        return "i" if c == Cyclo.i() else "-i"
    parts = []
    for j, q in enumerate(c.coeffs):
        if q:
            base = "zeta(%d)" % c.n if j == 1 else "zeta(%d)^%d" % (c.n, j)
            parts.append(str(q) if j == 0 else base if q == 1
                         else "-" + base if q == -1
                         else "%s*%s" % (q, base))
    return " + ".join(parts)


def test_rendering_from_integers_matches_fraction_rendering():
    rng = random.Random(11)
    for n in (1, 3, 4, 5, 8, 12, 15):
        for _ in range(40):
            den = rng.choice([1, 1, 2, 3, 6, 35])
            v = Cyclo(n, [Fraction(rng.choice([0, 1, -1, den, -den,
                                               rng.randint(-50, 50)]), den)
                          for _ in range(euler_phi(n))])
            assert render_scalar(v) == _fraction_render_scalar(v)
            g = Poly2(3, {(3, 0): v, (2, 1): Fraction(-7, 4), (1, 2): -1,
                          (0, 3): 1}) if v else Poly2.monomial(0, 3)
            text = render_poly(g)
            # negative, non-integral and +-1 coefficients come back exactly
            assert parse_poly(text) == g, text
    assert render_poly(parse_poly("-u0^2 + 3/4*u0*u1 - 5/2*u1^2")) == \
        "-u0^2 + 3/4*u0*u1 - 5/2*u1^2"


def _fraction_render_poly(terms):
    """render_poly of {(a, b): Fraction} as written with Fractions."""
    pieces = []
    for (a, b), q in sorted(terms.items(), reverse=True):
        mono = "*".join(name if e == 1 else "%s^%d" % (name, e)
                        for name, e in (("u0", a), ("u1", b)) if e)
        if not mono:
            pieces.append(str(q))
        elif abs(q) == 1:
            pieces.append(mono if q > 0 else "-" + mono)
        else:
            pieces.append("%s*%s" % (q, mono))
    out = pieces[0]
    for text in pieces[1:]:
        out += " - " + text[1:] if text.startswith("-") else " + " + text
    return out


def test_rational_coefficients_render_from_their_slots(monkeypatch):
    # no Cyclo comparison: a rational coefficient prints from num and den
    rng = random.Random(33)
    cases = []
    for degree in (0, 1, 2, 7, 12, 40):
        for _ in range(10):
            terms = {}
            for a in rng.sample(range(degree + 1),
                                rng.randint(1, min(degree + 1, 5))):
                terms[(a, degree - a)] = Fraction(
                    rng.choice([1, -1, 2, -3, 17, -120, 10 ** 20 + 1]),
                    rng.choice([1, 1, 2, 3, 7, 12]))
            cases.append((Poly2(degree, terms), terms))

    def refuse(self, other):
        raise AssertionError("a rational coefficient needs no comparison")

    monkeypatch.setattr(Cyclo, "__eq__", refuse)
    for g, terms in cases:
        assert render_poly(g) == _fraction_render_poly(terms)


def test_literals_and_monomial_products_build_no_poly_by_init(monkeypatch):
    text = "3*u0^4 - 12*u0^2*u1^2 + 7*u1^4 + 2*(u0^3*u1 + u0*u1^3)"
    expected = parse_poly(text)  # also builds the cached variables
    counts = {"init": 0, "rational": 0}
    init, rational = Poly.__init__, Cyclo.rational.__func__

    def counting_init(self, *args, **kwargs):
        counts["init"] += 1
        init(self, *args, **kwargs)

    def counting_rational(cls, value):
        counts["rational"] += 1
        return rational(cls, value)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    monkeypatch.setattr(Cyclo, "rational", classmethod(counting_rational))
    assert parse_poly(text) == expected
    # a monomial is a coefficient and an exponent tuple, each sum and
    # the final Poly2 take terms that are already tidy; the five integer
    # literals become values without a Fraction
    assert counts == {"init": 0, "rational": 0}


def test_scalar_json_shape():
    enc = scalar_json(Cyclo.zeta(4))
    assert enc == {"conductor": 4, "coeffs": ["0", "1"]}
    enc = scalar_json(Cyclo.rational(Fraction(1, 2)))
    assert enc == {"conductor": 1, "coeffs": ["1/2"]}


def test_matrix_json_shape():
    enc = matrix_json(Mat2.identity())
    assert enc["entries"][0][0] == {"conductor": 1, "coeffs": ["1"]}
    assert enc["entries"][0][1] == {"conductor": 1, "coeffs": ["0"]}


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_poly("u0^2 + $")
    assert info.value.position == 7
