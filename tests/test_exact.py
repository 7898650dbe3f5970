"""Exact cyclotomic scalars, binary forms, and 2x2 matrices."""

import importlib.util
import json
import math
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import yun
from realforms import exact
from realforms.errors import UndecidableError
from realforms.exact import (Cyclo, Mat2, Poly, Poly2, as_cyclo,
                             root_multiplicities)
from realforms.groups import F_SWAP, rotation_gen
from realforms.parsing import parse_poly


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
    assert f - f == Poly2(2, {})


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
        cases.append((Poly2(7, {}), _sweep_matrix(rng, shape, 12)))
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
    built, reduced = [], []
    make, reduce = exact._make, exact._reduce

    def counting_make(*args):
        built.append(args[0])
        return make(*args)

    def counting_reduce(*args):
        reduced.append(args[0])
        return reduce(*args)

    monkeypatch.setattr(exact, "_make", counting_make)
    monkeypatch.setattr(exact, "_reduce", counting_reduce)
    got = f.compose(m)
    monkeypatch.setattr(exact, "_make", make)
    monkeypatch.setattr(exact, "_reduce", reduce)
    assert got == expected
    assert len(built) <= 31
    assert len(reduced) <= 2 * 31 + 4


MONOMIAL_MATRICES = (rotation_gen(8), F_SWAP, Mat2.diag(2, Fraction(1, 3)))


def test_monomial_compose_tables_are_shared_across_forms():
    rng = random.Random(22)
    forms = [_sweep_form(rng, 16, 1), _sweep_form(rng, 16, 12)]
    assert forms[0] != forms[1]
    for m in MONOMIAL_MATRICES:
        forms[0].compose(m)
        before = exact._units.cache_info()
        for f in forms:
            assert f.compose(m) == _substitute_compose(f, m), (f, m)
        after = exact._units.cache_info()
        # both forms read the table that the first compose built
        assert (after.hits - before.hits, after.misses - before.misses) \
            == (2, 0), m


@pytest.mark.parametrize("m", MONOMIAL_MATRICES)
def test_warm_monomial_compose_makes_one_product_per_term(monkeypatch, m):
    f = parse_poly("u0^16 - 3*u0^9*u1^7 + 1/2*u0^2*u1^14 + 5*u1^16")
    expected = f.compose(m)  # builds the table
    calls = []
    mul = Cyclo.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Cyclo, "__mul__", counting)
    got = f.compose(m)
    monkeypatch.setattr(Cyclo, "__mul__", mul)
    assert got == expected
    assert len(calls) == len(f.terms) == 4


def _positive(rng, n, sign=1):
    """A value of conductor n whose power-basis numerators all have the
    sign ``sign``, over a small denominator."""
    while True:
        value = Cyclo(n, [Fraction(sign * rng.randint(1, 9),
                                   rng.choice([1, 2]))
                          for _ in range(exact.euler_phi(n))])
        if value.n == n and all(sign * c > 0 for c in value.num):
            return value


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 9, 12, 15, 60])
def test_compose_at_the_slot_width_bound(n):
    # with every numerator of one sign nothing cancels before the wrap
    # mod z^h +- 1, so the packed coefficients come near the bound B
    # that sets the slot width
    rng = random.Random(n)
    for sign in (1, -1):
        for d in (1, 5, 9):
            g = Poly2(d, {(a, d - a): _positive(rng, n, sign)
                          for a in range(d + 1)})
            m = Mat2(*(_positive(rng, n) for _ in range(4)))
            assert g.compose(m) == _substitute_compose(g, m), (n, sign, d)
            lower = Mat2(_positive(rng, n), 0, _positive(rng, n), 1)
            assert g.compose(lower) == _substitute_compose(g, lower)


def test_one_coefficient_reaches_the_bound_exactly(monkeypatch):
    # c u0^d under u0 -> K u0, u1 -> u0 + u1 has the coefficient c K^d
    # at u0^d, and B = |c| max(K, 2)^d: the top slot holds +-B itself
    digits = []
    reduce = exact._reduce

    def recording_reduce(n, vec):
        digits.extend(vec)
        return reduce(n, vec)

    for c in (7, -7):
        g = Poly2.monomial(12, 0, c)
        digits.clear()
        monkeypatch.setattr(exact, "_reduce", recording_reduce)
        got = g.compose(Mat2(5, 0, 1, 1))
        monkeypatch.setattr(exact, "_reduce", reduce)
        assert got == Poly2.monomial(12, 0, c * 5 ** 12)
        assert digits == [0] * 12 + [c * 5 ** 12]


def test_compose_at_conductor_1004():
    # zeta(251) with i: h = 502 slots in Z / (2^(502 s) + 1)
    rng = random.Random(1004)
    z, i = Cyclo.zeta(251), Cyclo.i()
    dense = Poly2(2, {(a, 2 - a): _positive(rng, 251) + a * i
                      for a in range(3)})
    sparse = Poly2(6, {(a, 6 - a): z ** (40 * a) + (3 - a) * i * z
                       for a in range(7)})
    for g, m in ((dense, Mat2(_positive(rng, 251), i, 2 - i * z ** 7,
                              _positive(rng, 251))),
                 (sparse, Mat2(z, i, 2 - i * z ** 7, 1 + z ** 3))):
        got = g.compose(m)
        assert got == _substitute_compose(g, m)
        assert {c.n for c in got.terms.values()} == {1004}


@pytest.mark.parametrize("n", range(1, 61))
def test_signed_root_of_unity_powers_match_repeated_products(n):
    rng = random.Random(n)
    for j in sorted({1, n - 1, rng.randrange(n)}):
        for sign in (1, -1):
            base = sign * Cyclo.zeta(n, j)
            power = Cyclo.rational(1)
            for k in range(2 * n + 1):
                assert base ** k == power, (n, j, sign, k)
                power = power * base
            power = inverse = base.inverse()
            for k in (-1, -2, -3):
                assert base ** k == power, (n, j, sign, k)
                power = power * inverse


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


def _seeded_base(rng, t):
    """A t-term binary form of degree t - 1 with small coefficients,
    about half of them times a root of unity of conductor dividing 60."""
    terms = {}
    for a in range(t):
        c = Cyclo.rational(Fraction(rng.choice([-3, -1, 1, 2, 5]),
                                    rng.choice([1, 1, 2, 3])))
        if rng.random() < 0.5:
            n = rng.choice([3, 4, 5, 12, 15, 20, 60])
            c = c * Cyclo.zeta(n, rng.randrange(n))
        terms[(a, t - 1 - a)] = c
    return Poly2(t - 1, terms)


@pytest.mark.parametrize("t", [3, 4])
def test_multinomial_power_matches_repeated_multiplication(t):
    rng = random.Random(t)
    for k in (0, 1, 2, 5, 11):
        base = _seeded_base(rng, t)
        assert base ** k == _repeated_product(base, k)
    # a Laurent polynomial in three variables and a base whose expansion
    # has more than _MULTINOMIAL_TERMS terms, which is squared instead
    laurent = Poly({(1, 0, -2): Cyclo.zeta(7), (0, 2, 1): Fraction(-1, 2),
                    (3, -1, 0): 2, (0, 0, 0): Cyclo.zeta(12, 5)})
    assert laurent ** 6 == _repeated_product(laurent, 6)
    wide = _seeded_base(rng, 10)
    assert comb(10 + 9, 10) > exact._MULTINOMIAL_TERMS
    assert wide ** 10 == _repeated_product(wide, 10)


def test_power_zero_and_one_of_a_wide_base():
    # exponents 0 and 1 must not reach the multinomial sum, which
    # recurses once per base term
    wide = Poly({(a, -b, a - b): Fraction(a + 1, b + 2)
                 for a in range(40) for b in range(25)})
    assert len(wide.terms) == 1000
    assert wide ** 0 == Poly({(0, 0, 0): 1})
    assert wide ** 1 == wide


def test_real_coefficients():
    assert p({(2, 0): 1, (0, 2): Fraction(-5, 3)}).real_coefficients()
    assert not p({(2, 0): Cyclo.i()}).real_coefficients()
    # zeta(5) + zeta(5)^-1 is real though irrational
    v = Cyclo.zeta(5) + Cyclo.zeta(5, 4)
    assert p({(2, 0): v}).real_coefficients()


def test_multiplicities_of_a_product_of_linear_factors():
    # u1^2 * (u0 + u1) * u0^3, roots [1:0], [1:-1] and [0:1]
    g = p({(0, 1): 1}) ** 2 * p({(1, 0): 1, (0, 1): 1}) * p({(1, 0): 1}) ** 3
    assert g.degree == 6
    assert root_multiplicities(g) == [3, 2, 1]


def test_multiplicities_of_products():
    g = p({(1, 0): 1, (0, 1): 1}) ** 3 * p({(1, 0): 1, (0, 1): -1})
    assert root_multiplicities(g) == [3, 1]


def test_inverse_of_one_term_values_matches_extended_euclid():
    for n in range(1, 61):
        for j in range(n):
            for q in (1, -1, Fraction(2, 3), Fraction(-5, 7)):
                x = Cyclo.zeta(n, j) * q
                if sum(1 for c in x.num if c) != 1 or x.n == 1:
                    continue
                u, r = exact._invert(x.n, list(x.num))
                if r < 0:
                    u, r = [-c for c in u], -r
                assert x.inverse() == exact._lowest(
                    x.n, [c * x.den for c in u], r), (n, j, q)
                assert x * x.inverse() == 1


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


# ----------------------------------------------------------------------
# arithmetic modulo a split prime


def _random_cyclo(rng, n):
    return Cyclo(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                     for _ in range(exact.euler_phi(n))])


def _trial_division_prime(p):
    return p > 1 and all(p % d for d in range(2, exact.isqrt(p) + 1))


def test_split_primes_carry_an_element_of_exact_order():
    for n in (1, 2, 5, 12, 60, 77, 251):
        pairs = exact._split_primes(n)
        assert len(pairs) == 3 and len({p for p, _ in pairs}) == 3
        for p, w in pairs:
            assert p > 2 ** 30 and (p - 1) % n == 0
            assert _trial_division_prime(p)
            assert pow(w, n, p) == 1
            assert all(pow(w, d, p) != 1 for d in range(1, n) if n % d == 0)


def test_reduction_is_a_ring_homomorphism():
    rng = random.Random(2718)
    for n in range(1, 61):
        x = _random_cyclo(rng, n)
        y = _random_cyclo(rng, rng.choice([d for d in range(1, n + 1)
                                            if n % d == 0]))
        assert n % x.n == 0 and n % y.n == 0
        for p, w in exact._split_primes(n):
            def image(v):
                return exact._mod_p(v, n, p, w)
            assert image(Cyclo.rational(1)) == 1
            assert image(x + y) == (image(x) + image(y)) % p
            assert image(x - y) == (image(x) - image(y)) % p
            assert image(x * y) == image(x) * image(y) % p
            if x:
                assert image(x.inverse()) * image(x) % p == 1
    p, w = exact._split_primes(12)[0]
    assert exact._mod_p(Cyclo.zeta(12) / p, 12, p, w) is None


def _fp_value(a, x, p):
    return sum(c * pow(x, k, p) for k, c in enumerate(a)) % p


def _fp_random(rng, p, degree):
    a = [rng.randrange(p) for _ in range(degree + 1)]
    while a and not a[-1]:
        a.pop()
    return a


def _fp_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_fp_divmod_and_gcd_against_brute_force(p):
    rng = random.Random(p)
    for _ in range(200):
        a = _fp_random(rng, p, rng.randint(0, 7))
        b = _fp_random(rng, p, rng.randint(0, 4)) or [1]
        q, r = exact._fp_divmod(a, b, p)
        assert len(r) < len(b) and (not r or r[-1])
        # q b + r == a, checked at every point and by degree
        assert len(q) + len(b) - 1 == len(a) or not q and len(a) < len(b)
        for x in range(p):
            assert (_fp_value(q, x, p) * _fp_value(b, x, p)
                    + _fp_value(r, x, p)) % p == _fp_value(a, x, p)
        # a common factor makes the gcd nontrivial more often
        common = _fp_random(rng, p, rng.randint(0, 2))
        if common:
            a = _fp_mul(a, common, p)
            b = _fp_mul(b, common, p)
        g = exact._fp_gcd(a, b, p)
        if not a and not b:
            assert g == []
            continue
        assert g[-1] == 1
        assert exact._fp_divmod(a, g, p)[1] == []
        assert exact._fp_divmod(b, g, p)[1] == []
        assert {x for x in range(p) if not _fp_value(g, x, p)} == \
            {x for x in range(p)
             if not _fp_value(a, x, p) and not _fp_value(b, x, p)}


def _sparse_cyclo(rng, n):
    return Cyclo.rational(rng.randint(-3, 3)) \
        + rng.choice([1, -1, 2]) * Cyclo.zeta(n, rng.randrange(n))


def _expand(factors, lead):
    """lead * prod f_m^m for {m: f_m}, little-endian Cyclo lists."""
    out = [lead]
    for m, f in factors.items():
        for _ in range(m):
            out = [sum((out[k] * f[j - k] for k in range(len(out))
                        if 0 <= j - k < len(f)), Cyclo.rational(0))
                   for j in range(len(out) + len(f) - 1)]
    return out


def _rng77_non_squarefree_forms():
    """h^power * f with random cyclotomic coefficients, seeded: the inputs
    that exact Yun decomposed before the lift replaced it."""
    rng = random.Random(77)
    for n in (5, 7, 8, 12, 15, 21, 35, 60, 77):
        for _ in range(3):
            power = rng.choice([2, 3])
            d = rng.randint(1, 4 // power)
            h = Poly2(d, {(a, d - a): _sparse_cyclo(rng, n)
                          for a in range(d + 1)})
            rest = rng.randint(0, 8 - power * d)
            f = Poly2(rest, {(a, rest - a): _sparse_cyclo(rng, n)
                             for a in range(rest + 1)})
            g = h ** power * f
            # a monomial h repeats only the roots u0 = 0 and u1 = 0
            if len(h.terms) >= 2 and not g.is_zero():
                yield g


def test_non_squarefree_forms_are_lifted_and_certified():
    checked = 0
    for g in _rng77_non_squarefree_forms():
        e0, e1, p = exact._to_univariate(g)
        checked += 1
        assert not exact._squarefree_mod_p(p)
        factors = exact._multiplicity_factors(p)
        # the certificate's identity, checked here by expansion: the
        # factors are monic up to a constant
        monic = {m: [c / f[-1] for c in f] for m, f in factors.items()}
        assert _expand(monic, p[-1]) == p
        assert root_multiplicities(g) == yun.multiplicities(g)
    assert checked >= 20


def _distinct_roots(rng, n, count):
    roots = set()
    while len(roots) < count:
        r = Cyclo.rational(rng.randint(-4, 4)) \
            + rng.randint(1, 3) * Cyclo.zeta(n, rng.randrange(n))
        if r:  # u0 - 0 u1 would repeat the root of the u0^e0 factor
            roots.add(r)
    return sorted(roots, key=repr)


def _seeded_products():
    """(g, multiplicities): g = u0^e0 u1^e1 prod h_i^i with h_i products of
    distinct linear forms u0 - r u1, so the multiplicities are known."""
    rng = random.Random(256)
    for n in (1, 3, 20, 64, 77, 105, 128, 211, 251, 256):
        powers = rng.sample(range(1, 6), rng.randint(1, 3))
        roots = _distinct_roots(rng, n, len(powers) + rng.randint(0, 1))
        e0, e1 = rng.choice([(0, 0), (1, 0), (0, 2), (3, 1)])
        g = Poly2.monomial(e0, e1, rng.choice([1, -2, Fraction(3, 5)]))
        mults = [e for e in (e0, e1) if e]
        for k, r in enumerate(roots):
            m = powers[k % len(powers)]
            g = g * Poly2(1, {(1, 0): 1, (0, 1): -r}) ** m
            mults.append(m)
        yield n, g, sorted(mults, reverse=True)


def test_seeded_products_of_powers_at_conductors_up_to_256():
    for n, g, mults in _seeded_products():
        assert root_multiplicities(g) == mults, n


def test_an_unlucky_first_prime_is_outvoted():
    # roots 1 and 1 + p meet modulo the first split prime p, which then
    # shows fewer distinct roots than the primes after it and proves no
    # product of distinct factors squarefree
    p = exact._split_primes(1)[0][0]
    x, y = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    for g, mults in [((x - y) ** 2 * (x - (1 + p) * y), [2, 1]),
                     ((x - y) * (x - (1 + p) * y) * (x + y), [1, 1, 1]),
                     ((x - y) * (x - (1 + p) * y) ** 3 * x, [3, 1, 1])]:
        p_of_g = exact._to_univariate(g)[2]
        assert not exact._squarefree_mod_p(p_of_g)
        assert exact._squarefree_mod_p(p_of_g, tries=2) == (max(mults) == 1)
        assert root_multiplicities(g) == mults


def test_the_fibers_that_hung_in_exact_yun():
    # the golden cases classify-repeated-conductor77,
    # error-repeated-conductor251 and error-square-conductor251
    cases = json.loads((Path(__file__).with_name("golden") / "cases.json")
                       .read_text(encoding="utf-8"))
    expected = {"classify-repeated-conductor77": [2] + [1] * 12,
                "error-repeated-conductor251": [6, 6, 6, 1, 1],
                "error-square-conductor251": [66, 66, 66]}
    for name, mults in expected.items():
        assert root_multiplicities(parse_poly(cases[name][2])) == mults


def test_no_euclid_over_the_field(monkeypatch):
    fibers = [g for g in map(_parsed, _golden_and_bench_fibers()) if g]
    forms = fibers + list(_rng77_non_squarefree_forms()) \
        + [g for _, g, _ in _seeded_products()]

    def refuse(self):
        raise AssertionError("Cyclo.inverse called")

    monkeypatch.setattr(Cyclo, "inverse", refuse)
    for g in forms:
        root_multiplicities(g)
    assert len(fibers) >= 140


def test_refuses_past_the_prime_cap(monkeypatch):
    g = parse_poly("(u0+3*u1)^7*(2*u0-u1)^3")
    assert root_multiplicities(g) == [7, 3]
    monkeypatch.setattr(exact, "MAX_LIFT_IMAGES", 0)
    with pytest.raises(UndecidableError, match="0 split primes"):
        root_multiplicities(g)
    # a squarefree fiber needs no lift
    assert root_multiplicities(parse_poly("u0^4+u1^4")) == [1, 1, 1, 1]


@pytest.mark.parametrize("p", [11, 13, 17])
def test_fp_yun_against_brute_force(p):
    rng = random.Random(p)
    for _ in range(60):
        parts = {m: _fp_random(rng, p, rng.randint(0, 2)) or [1]
                 for m in rng.sample(range(1, 4), rng.randint(1, 3))}
        a = [1]
        for m, f in parts.items():
            for _ in range(m):
                a = _fp_mul(a, f, p)
        if len(a) > p or len(a) < 2:
            continue
        a = [v * pow(a[-1], -1, p) % p for v in a]
        ys = exact._fp_yun(a, p)
        prod = [1]
        for m, y in ys.items():
            assert len(y) > 1 and y[-1] == 1
            for _ in range(m):
                prod = _fp_mul(prod, y, p)
        assert prod == a
        # each root of a has the multiplicity of its factor
        for m, y in ys.items():
            for x in range(p):
                if not _fp_value(y, x, p):
                    assert _root_order(a, x, p) == m
        assert exact._fp_yun(a, p, list(ys)) == ys


def _root_order(a, x, p):
    order = 0
    while len(a) > 1 and not _fp_value(a, x, p):
        a = exact._fp_divmod(a, [(-x) % p, 1], p)[0]
        order += 1
    return order


def test_rational_reconstruction():
    M = 1000003 * 1000033
    for a, b in [(0, 1), (1, 1), (-7, 3), (355, 113), (-1, 707)]:
        x = a * pow(b, -1, M) % M
        assert exact._rational_reconstruction(x, M) == (a, b)
    rng, bound = random.Random(5), math.isqrt(M // 2)
    for x in [rng.randrange(M) for _ in range(200)]:
        found = exact._rational_reconstruction(x, M)
        if found is not None:
            a, b = found
            assert abs(a) <= bound and 0 < b <= bound
            assert (a - b * x) % M == 0 and math.gcd(b, M) == 1


def test_lift_from_split_primes_recovers_values():
    rng = random.Random(2024)
    for n in (1, 4, 9, 15, 77, 128, 251):
        units = [k for k in range(n) if math.gcd(k, n) == 1]
        values = [_random_cyclo(rng, n) * rng.randint(1, 10 ** 12)
                  for _ in range(3)]
        state = lifted = None
        for i in range(6):
            p, w = exact._split_primes(n, i + 1)[i]
            images = [[exact._mod_p(v, n, p, pow(w, k, p)) for v in values]
                      for k in units]
            state, lifted = exact._lift_from_split_primes(n, state, p, w,
                                                          images)
            if lifted == values:
                break
        assert lifted == values, n
        assert i >= 1  # one prime is too few for 40-bit numerators


def _golden_and_bench_fibers():
    root = Path(__file__).resolve().parents[1]
    cases = json.loads((root / "tests" / "golden" / "cases.json")
                       .read_text(encoding="utf-8"))
    texts = [args[2] for args in cases.values()
             if args[:2] == ["classify-qg", "--poly"]]
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", root / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for seed in (0, 2718):
        for item in inputs.qg_cyclic_dihedral(seed) \
                + inputs.qg_polyhedral(seed):
            texts.append(item["text"])
    return texts


def _parsed(text):
    """The nonzero form of ``text``, or None for the corpus's malformed
    and zero inputs."""
    try:
        g = parse_poly(text)
    except ValueError:
        return None
    return None if g.is_zero() else g


def test_multiplicities_equal_exact_yun_on_golden_and_bench_fibers():
    checked = squarefree = 0
    for text in _golden_and_bench_fibers():
        g = _parsed(text)
        # Euclid over Q(zeta_N) takes minutes on the three golden fibers
        # at conductors 77 and 251: test_the_fibers_that_hung_in_exact_yun
        if g is None or math.lcm(*(c.n for c in g.terms.values())) > 60:
            continue
        assert root_multiplicities(g) == yun.multiplicities(g), text
        e0, e1, p = exact._to_univariate(g)
        checked += 1
        squarefree += len(p) > 1 and exact._squarefree_mod_p(p)
    assert checked >= 140 and squarefree >= 100
