"""The integer cyclotomic kernel against an independent oracle.

``FractionCyclo`` follows the earlier ``Cyclo``: Fraction coefficients on
the power basis, reduction through a table of reduced powers of z, and
the minimal conductor found by testing every Galois automorphism over
each maximal subfield and solving for the descended coordinates; it
inverts by solving on the multiplication matrix.  It is slow but shares
nothing with the integer kernel's reduction, descent or inversion, so
agreement on random values at conductors with p || n and p^2 | n checks
all three.  The other properties need no oracle: the
field axioms, equality and hashing of one value built two ways, the
Galois action as a ring homomorphism, and the complex embedding
zeta_n -> exp(2 pi i / n).
"""

import cmath
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_jordan import solve
from realforms.exact import Cyclo, cyclotomic_poly, euler_phi

SETTINGS = settings(max_examples=40, deadline=None)
CONDUCTORS = (4, 8, 9, 12, 15, 20, 24, 60)


# ----------------------------------------------------------------------
# the oracle


@cache
def _power_table(n):
    phi = euler_phi(n)
    top = [Fraction(-c) for c in cyclotomic_poly(n)[:phi]]
    rows = [[Fraction(int(j == k)) for j in range(phi)] for k in range(phi)]
    for _ in range(phi, max(n, 2 * phi - 1)):
        prev = rows[-1]
        row = [Fraction(0)] + prev[:-1]
        rows.append([x + prev[-1] * t for x, t in zip(row, top)])
    return rows


def _reduce_exponents(n, terms):
    table = _power_table(n)
    out = [Fraction(0)] * euler_phi(n)
    for e, c in terms:
        out = [x + c * t for x, t in zip(out, table[e % n])]
    return out


def _primes(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % d for d in range(2, p))]


def _canonicalize(n, coeffs):
    if n % 4 == 2:
        m = n // 2
        return _canonicalize(m, _reduce_exponents(
            m, [(j * ((m + 1) // 2), c if j % 2 == 0 else -c)
                for j, c in enumerate(coeffs) if c]))
    for p in _primes(n):
        m = n // p
        fixed = all(
            _reduce_exponents(n, [(j * k, c) for j, c in enumerate(coeffs)])
            == list(coeffs)
            for k in range(1 + m, n, m) if gcd(k, n) == 1)
        if fixed:
            cols = [_reduce_exponents(n, [(j * p, 1)])
                    for j in range(euler_phi(m))]
            rows = [[col[i] for col in cols] for i in range(len(coeffs))]
            return _canonicalize(m, solve(rows, list(coeffs)))
    if n > 1 and not any(coeffs[1:]):
        return 1, [coeffs[0]]
    return n, list(coeffs)


class FractionCyclo:
    def __init__(self, n, coeffs, reduced=False):
        coeffs = [Fraction(c) for c in coeffs]
        if not reduced:
            coeffs = _reduce_exponents(n, list(enumerate(coeffs)))
        self.n, coeffs = _canonicalize(n, coeffs)
        self.coeffs = tuple(coeffs)

    def _at(self, L):
        step = L // self.n
        return _reduce_exponents(L, [(j * step, c)
                                     for j, c in enumerate(self.coeffs)])

    def __add__(self, other):
        L = lcm(self.n, other.n)
        return FractionCyclo(L, [x + y for x, y in
                                 zip(self._at(L), other._at(L))], True)

    def __neg__(self):
        return FractionCyclo(self.n, [-c for c in self.coeffs], True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        L = lcm(self.n, other.n)
        a, b = self._at(L), other._at(L)
        return FractionCyclo(L, [sum(a[i] * b[j] for i in range(len(a))
                                     for j in range(len(b)) if i + j == k)
                                 for k in range(2 * len(a) - 1)])

    def inverse(self):
        # solve x * y == 1 on the multiplication matrix of x
        cols = [(self * FractionCyclo(self.n, [0] * j + [1]))._at(self.n)
                for j in range(euler_phi(self.n))]
        rows = [[col[i] for col in cols] for i in range(euler_phi(self.n))]
        one = [Fraction(int(i == 0)) for i in range(euler_phi(self.n))]
        return FractionCyclo(self.n, solve(rows, one), True)

    def galois(self, k):
        return FractionCyclo(self.n, _reduce_exponents(
            self.n, [(j * k, c) for j, c in enumerate(self.coeffs)]), True)

    def key(self):
        return self.n, self.coeffs


# ----------------------------------------------------------------------
# strategies

fractions = st.builds(Fraction, st.integers(-5, 5),
                      st.sampled_from([1, 1, 2, 3]))


def raw_values(n):
    """(n, coefficient list) of a value of Q(zeta_n), sparse like the
    group elements, unreduced (any index below n)."""
    return st.dictionaries(st.integers(0, n - 1), fractions, max_size=4).map(
        lambda terms: (n, [terms.get(j, 0) for j in range(n)]))


conductor_pairs = st.tuples(st.sampled_from(CONDUCTORS),
                            st.sampled_from(CONDUCTORS))


def both(raw):
    n, coeffs = raw
    return Cyclo(n, coeffs), FractionCyclo(n, coeffs)


def key(x):
    return x.n, x.coeffs


def numeric(x):
    return sum(complex(c) * cmath.exp(2j * cmath.pi * k / x.n)
               for k, c in enumerate(x.coeffs))


def close(u, v):
    return abs(u - v) <= 1e-9 * (1 + abs(u) + abs(v))


def units(n):
    return [k for k in range(1, n) if gcd(k, n) == 1] or [1]


# ----------------------------------------------------------------------
# properties


@SETTINGS
@given(conductor_pairs.flatmap(lambda ns: st.tuples(raw_values(ns[0]),
                                                    raw_values(ns[1]))),
       fractions, st.data())
def test_every_operation_matches_the_fraction_oracle(raws, q, data):
    (x, ox), (y, oy) = both(raws[0]), both(raws[1])
    assert key(x) == ox.key() and key(y) == oy.key()
    assert hash(x) == hash(ox.key())
    oq = FractionCyclo(1, [q])
    cases = [(x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy),
             (-x, -ox), (x + q, ox + oq), (x * q, ox * oq)]
    if x:
        cases.append((x.inverse(), ox.inverse()))
    k = data.draw(st.sampled_from(units(x.n)))
    cases.append((x.galois(k), ox.galois(k)))
    for got, want in cases:
        assert key(got) == want.key()
        assert hash(got) == hash(want.key())


@SETTINGS
@given(st.sampled_from(CONDUCTORS).flatmap(
    lambda n: st.tuples(*[raw_values(n)] * 3)))
def test_field_axioms(raws):
    x, y, z = (Cyclo(*raw) for raw in raws)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x * 0 == 0 and x - x == 0
    if x:
        assert x * x.inverse() == 1
        assert (y / x) * x == y


@SETTINGS
@given(st.sampled_from(CONDUCTORS).flatmap(raw_values),
       st.integers(2, 5))
def test_one_value_built_two_ways(raw, k):
    # the value at conductor n written again at conductor k * n
    n, coeffs = raw
    x = Cyclo(n, coeffs)
    spread = [0] * (k * n)
    spread[::k] = coeffs
    y = Cyclo(k * n, spread)
    assert x == y and hash(x) == hash(y)
    assert (x.n, x.num, x.den) == (y.n, y.num, y.den)


def test_roots_of_unity_built_two_ways():
    pairs = [(Cyclo.zeta(8) ** 2, Cyclo.i()),
             (Cyclo.zeta(3) * Cyclo.zeta(4), Cyclo.zeta(12, 7)),
             (Cyclo.zeta(6), -Cyclo.zeta(3, 2)),
             (Cyclo.zeta(60, 12), Cyclo.zeta(5)),
             (Cyclo.zeta(20, 4) * Cyclo.zeta(3), Cyclo.zeta(15, 8)),
             (Cyclo.zeta(9, 3), Cyclo.zeta(3)),
             (Cyclo.zeta(24, 8) + Cyclo.zeta(24, 16), Cyclo.rational(-1))]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y), (x, y)
    assert Cyclo.zeta(60, 12).n == 5 and Cyclo.zeta(36, 4).n == 9


@SETTINGS
@given(conductor_pairs.flatmap(lambda ns: st.tuples(
    raw_values(ns[0]), raw_values(ns[1]),
    st.sampled_from(units(lcm(*ns))))))
def test_galois_is_a_ring_homomorphism(values):
    raw_x, raw_y, k = values
    x, y = Cyclo(*raw_x), Cyclo(*raw_y)
    assert (x + y).galois(k) == x.galois(k) + y.galois(k)
    assert (x * y).galois(k) == x.galois(k) * y.galois(k)
    inverse = pow(k, -1, lcm(raw_x[0], raw_y[0]))
    assert x.galois(k).galois(inverse) == x


@SETTINGS
@given(conductor_pairs.flatmap(lambda ns: st.tuples(raw_values(ns[0]),
                                                    raw_values(ns[1]))))
def test_complex_embedding(raws):
    x, y = Cyclo(*raws[0]), Cyclo(*raws[1])
    (n, coeffs) = raws[0]
    assert close(numeric(x), sum(complex(c) * cmath.exp(2j * cmath.pi * k / n)
                                 for k, c in enumerate(coeffs)))
    assert close(numeric(x + y), numeric(x) + numeric(y))
    assert close(numeric(x * y), numeric(x) * numeric(y))
    assert close(numeric(x.conjugate()), numeric(x).conjugate())
    if x:
        assert close(numeric(x.inverse()) * numeric(x), 1)
