"""Exact cyclotomic scalars, binary forms, and 2x2 matrices."""

import random
from fractions import Fraction

import pytest

from realforms import exact
from realforms.exact import (Cyclo, Mat2, Poly, Poly2, as_cyclo,
                             from_factors, root_multiplicities)


def test_rational_arithmetic():
    half = Cyclo.rational(Fraction(1, 2))
    assert (half + half) == 1
    assert (half * 4) == 2
    assert half.is_rational()
    assert half.as_rational() == Fraction(1, 2)


def test_zeta_orders():
    for n in (1, 2, 3, 4, 5, 6, 8, 12, 16):
        z = Cyclo.zeta(n)
        assert z ** n == 1
        for k in range(1, n):
            assert z ** k != 1, "zeta(%d)^%d collapsed early" % (n, k)


def test_i_squares_to_minus_one():
    i = Cyclo.i()
    assert i * i == -1
    assert i.conjugate() == -i


def test_cross_conductor_arithmetic():
    # zeta(3) and i live in different fields; sums land in conductor 12
    z3 = Cyclo.zeta(3)
    total = z3 + Cyclo.i()
    assert total - Cyclo.i() == z3
    assert (z3 * Cyclo.i()) ** 12 == 1


def test_conjugate_fixes_rationals_and_inverts_roots():
    z5 = Cyclo.zeta(5)
    assert z5.conjugate() == z5.inverse()
    assert Cyclo.rational(7).conjugate() == 7
    v = z5 + Cyclo.rational(Fraction(2, 3))
    assert v.conjugate().conjugate() == v


def test_inverse():
    v = Cyclo.zeta(8) + 2
    assert v * v.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        Cyclo.rational(0).inverse()


def test_descent_to_smaller_conductor():
    # zeta(8)^2 is i; equality across representations must hold
    assert Cyclo.zeta(8) ** 2 == Cyclo.i()
    assert (Cyclo.zeta(12) ** 4) == Cyclo.zeta(3)


def test_as_root_of_unity():
    assert Cyclo.rational(1).as_root_of_unity() == (1, 0)
    assert Cyclo.rational(-1).as_root_of_unity() == (2, 1)
    d, t = Cyclo.zeta(8, 3).as_root_of_unity()
    assert (d, t) == (8, 3)
    # 1 + zeta(3) is the sneaky one: it equals zeta(6)
    assert (Cyclo.rational(1) + Cyclo.zeta(3)).as_root_of_unity() == (6, 1)
    assert Cyclo.rational(2).as_root_of_unity() is None
    assert (Cyclo.rational(1) + Cyclo.zeta(5)).as_root_of_unity() is None


def test_sqrt_of_rational_square():
    assert Cyclo.rational(Fraction(9, 4)).sqrt() == Fraction(3, 2)
    assert Cyclo.rational(2).sqrt() is None
    # negative rationals pick up a factor i when the magnitude is square
    assert Cyclo.rational(-4).sqrt() == Cyclo.i() * 2
    assert Cyclo.rational(-2).sqrt() is None


def test_sqrt_of_root_of_unity():
    r = Cyclo.zeta(6).sqrt()
    assert r is not None and r * r == Cyclo.zeta(6)
    mixed = Cyclo.zeta(8) * 9
    s = mixed.sqrt()
    assert s is not None and s * s == mixed
    # not a root of unity times a rational square
    assert (Cyclo.zeta(3) + 2).sqrt() is None


def test_galois_action():
    z7 = Cyclo.zeta(7)
    assert z7.galois(2) == z7 ** 2
    v = z7 + z7 ** 6
    assert v.galois(6) == v  # fixed by inversion: v is real


# ----------------------------------------------------------------------
# binary forms


def p(text_terms):
    # tiny helper: {(a, b): coeff} with implied degree
    degree = max(a + b for a, b in text_terms)
    return Poly2(degree, {k: as_cyclo(v) for k, v in text_terms.items()})


def test_poly_ring_operations():
    f = p({(2, 0): 1, (0, 2): 1})
    g = p({(1, 1): 1})
    assert (f + g).coeff(1, 1) == 1
    assert (f * g).degree == 4
    assert (f ** 2).coeff(2, 2) == 2
    assert f - f == Poly2.zero(2)


def test_compose_with_matrix():
    f = p({(2, 0): 1, (0, 2): 1})
    swap = Mat2(0, 1, 1, 0)
    assert f.compose(swap) == f
    m = Mat2(1, 1, 0, 1)
    g = f.compose(m)  # u0 -> u0 + u1, u1 -> u1
    assert g.coeff(2, 0) == 1
    assert g.coeff(1, 1) == 2
    assert g.coeff(0, 2) == 2


def test_only_homogeneous_results_are_binary_forms():
    s, t = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    assert type(s * t + t * t) is Poly2 and (s * t + t * t).degree == 2
    image = Poly({(1, 0): 1, (0, 1): 1}).substitute((s, s * t))
    assert type(image) is Poly and image == Poly({(1, 0): 1, (1, 1): 1})
    assert type(s ** -1) is Poly and s ** -1 * s == Poly({(0, 0): 1})
    assert type(s * Poly({(0, -1): 1})) is Poly
    composed = (s ** 5 * t).compose(Mat2(1, 1, 0, 1))
    assert type(composed) is Poly2 and composed.degree == 6


def test_compose_is_right_action():
    f = p({(3, 1): 1, (0, 4): 2})
    m1 = Mat2(1, 2, 0, 1)
    m2 = Mat2(0, 1, -1, 0)
    assert f.compose(m1 * m2) == f.compose(m1).compose(m2)


def _substitute_compose(f, m):
    """compose as it was defined before its integer kernel: the generic
    substitution of two linear forms."""
    (m00, m01), (m10, m11) = m
    l0 = Poly2(1, {(1, 0): m00, (0, 1): m01})
    l1 = Poly2(1, {(1, 0): m10, (0, 1): m11})
    return Poly2(f.degree, f.substitute((l0, l1)).terms)


COMPOSE_CONDUCTORS = (1, 3, 4, 5, 8, 12, 15, 20, 24, 60)
COMPOSE_SHAPES = ("diagonal", "antidiagonal", "upper", "lower", "dense",
                  "singular", "zero row")


def _scalar(rng, n):
    """A nonzero int, Fraction or Cyclo (at most conductor n, with a
    denominator) for the compose sweep."""
    kind = rng.randrange(3)
    if kind == 0 or n == 1:
        value = rng.choice([-3, -2, -1, 1, 2, 5])
        return value if kind == 0 else Fraction(value, rng.choice([2, 3, 7]))
    coeffs = [0] * n
    for _ in range(rng.randint(1, 3)):
        coeffs[rng.randrange(n)] = Fraction(rng.choice([-2, -1, 1, 3]),
                                            rng.choice([1, 2, 5]))
    value = Cyclo(n, coeffs)
    return value if value else Cyclo.zeta(n)


def _sweep_matrix(rng, shape, n):
    a, b, c, d = (_scalar(rng, n) for _ in range(4))
    if shape == "singular":  # rank one: the second row is t times the first
        t = _scalar(rng, n)
        return ((a, b), (as_cyclo(a) * t, as_cyclo(b) * t))
    return {"diagonal": ((a, 0), (0, d)),
            "antidiagonal": ((0, b), (c, 0)),
            "upper": ((a, b), (0, d)),
            "lower": ((a, 0), (c, d)),
            "dense": ((a, b), (c, d)),
            "zero row": ((a, b), (0, 0))}[shape]


def _sweep_form(rng, degree, n):
    return Poly2(degree, {(a, degree - a): _scalar(rng, n)
                          for a in range(degree + 1) if rng.random() < 0.7})


def test_compose_matches_substitution_on_seeded_sweep():
    rng = random.Random(20240321)
    cases = []
    for i, degree in enumerate(list(range(31)) * 2):
        shape = COMPOSE_SHAPES[i % len(COMPOSE_SHAPES)]
        n_form = COMPOSE_CONDUCTORS[i % len(COMPOSE_CONDUCTORS)]
        n_matrix = rng.choice(COMPOSE_CONDUCTORS)
        cases.append((_sweep_form(rng, degree, n_form),
                      _sweep_matrix(rng, shape, n_matrix)))
    for shape in COMPOSE_SHAPES:
        cases.append((Poly2.zero(7), _sweep_matrix(rng, shape, 12)))
    cases.append((cases[3][0], ((0, 0), (0, 0))))
    sparse = Poly2(200, {(200, 0): 1, (117, 83): Fraction(-2, 3),
                         (0, 200): Cyclo.zeta(4)})
    cases.append((sparse, ((1, Fraction(1, 2)), (-3, 2))))
    cases.append((sparse, Mat2(0, Cyclo.zeta(8), 2, 0)))
    for f, m in cases:
        got = f.compose(m)
        assert type(got) is Poly2 and got.degree == f.degree
        assert got == _substitute_compose(f, m), (f, m)


def test_dense_compose_builds_each_output_coefficient_once(monkeypatch):
    rng = random.Random(60)
    f = Poly2(30, {(a, 30 - a): _scalar(rng, 60) for a in range(31)})
    m = Mat2(Cyclo.zeta(60), Fraction(1, 3), Cyclo.zeta(60, 7) + 2, -1)
    expected = _substitute_compose(f, m)
    built = []
    make = exact._make

    def counting_make(*args):
        built.append(args[0])
        return make(*args)

    monkeypatch.setattr(exact, "_make", counting_make)
    got = f.compose(m)
    monkeypatch.setattr(exact, "_make", make)
    assert got == expected
    assert len(built) <= 31


def _repeated_product(base, k):
    out = base._one()
    for _ in range(k):
        out = out * base
    return out


def test_two_term_power_matches_repeated_multiplication():
    u0, u1 = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    base = u0 + u1 * Cyclo.zeta(251)
    power = base ** 200
    assert type(power) is Poly2 and len(power.terms) == 201
    assert power == _repeated_product(base, 200)
    laurent = Poly({(2, 0, 1): Fraction(2, 3), (-1, 3, 0): -Cyclo.zeta(12)})
    for k in (0, 1, 2, 9):
        assert laurent ** k == _repeated_product(laurent, k)


def test_real_coefficients():
    assert p({(2, 0): 1, (0, 2): Fraction(-5, 3)}).real_coefficients()
    assert not p({(2, 0): Cyclo.i()}).real_coefficients()
    # zeta(5) + zeta(5)^-1 is real though irrational
    v = Cyclo.zeta(5) + Cyclo.zeta(5, 4)
    assert p({(2, 0): v}).real_coefficients()


def test_from_factors_and_multiplicities():
    one = Cyclo.rational(1)
    factors = (((one, Cyclo.rational(0)), 2),      # u1^2
               ((one, -one), 1),                   # (u0 - ... ) root [1:-1]
               ((Cyclo.rational(0), one), 3))      # u0^3
    g = from_factors(factors)
    assert g.degree == 6
    assert root_multiplicities(g) == [3, 2, 1]


def test_multiplicities_of_products():
    g = p({(1, 0): 1, (0, 1): 1}) ** 3 * p({(1, 0): 1, (0, 1): -1})
    assert root_multiplicities(g) == [3, 1]


# ----------------------------------------------------------------------
# matrices and linear solving


def test_mat2_algebra():
    m = Mat2(1, 2, 3, 4)
    assert m.det() == -2
    assert m * m.inverse() == Mat2.identity()
    assert Mat2.diag(2, 3).det() == 6


def test_mat2_conj_and_normalized():
    m = Mat2(Cyclo.i(), 0, 0, 1)
    assert m.conj() == Mat2(-Cyclo.i(), 0, 0, 1)
    n = Mat2(2, 0, 0, 4).normalized()
    assert n == Mat2(1, 0, 0, 2)


def test_mat2_is_scalar():
    assert Mat2(3, 0, 0, 3).is_scalar()
    assert not Mat2(3, 0, 0, 2).is_scalar()
    assert not Mat2(0, 1, 1, 0).is_scalar()


def test_mat2_immutable():
    m = Mat2.identity()
    with pytest.raises(AttributeError):
        m.a = Cyclo.rational(5)
