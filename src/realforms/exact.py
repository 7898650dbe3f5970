"""Exact arithmetic: cyclotomic scalars, sparse polynomials, 2x2 matrices.

This is the only module that does polynomial arithmetic over a field.
The integer linear algebra of weight matrices and character lattices
lives in `lattices`.

Scalars (``Cyclo``) live in Q(zeta_N) for varying N: integer numerators
on the power basis 1, z, ..., z^{phi(N)-1} modulo the N-th cyclotomic
polynomial over one positive common denominator, in lowest terms.
Products are integer convolutions reduced from the top against the
sparse, monic Phi_N; inverses come from an extended Euclid over Z.
Every value is kept at its minimal conductor, read off the support (a
prime square p^2 | N) or one cached integer matrix (p || N) rather than
solved for, so equal numbers compare and hash equally no matter how
they were produced.

``Poly`` is the one polynomial type: a map from exponent tuples (one
entry per variable, negative entries allowed) to nonzero scalars.  It
serves the multihomogeneous ambient equations of `certificates` and
their coordinate maps (a map is a tuple of ``Poly`` values, one per
target coordinate, composed by ``substitute``), the Laurent polynomials
of the Schwarzenberger gluing, and the loose values of the parser.
``Poly2`` is its homogeneous two-variable subclass, the binary forms.
``Poly2.compose`` by a diagonal or antidiagonal matrix multiplies each
term by one unit x^a y^(d-a), read from a table of the d + 1 units built
once per (x, y, d); the cache of tables is bounded, because one table of
degree d at conductor N holds about d phi(N) integers.  Any other matrix
runs Horner with one big integer per coefficient: z = zeta_N goes to
2^s, so one integer product, folded modulo 2^(sh) +- 1, multiplies two
cyclotomic integers, and each output coefficient is unpacked, reduced
mod Phi_N and canonicalized once.  A power of +-z^j is one exponent map.
gcd / squarefree machinery works on dehomogenized coefficient lists.

The last section, arithmetic modulo a split prime, is the package's only
modular arithmetic: it reduces cyclotomic values modulo a prime
p = 1 mod N and divides polynomials over F_p, so that
``root_multiplicities`` proves a fiber squarefree without Yun's
decomposition over Q(zeta_N), which stays the fallback.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, gcd, lcm, isqrt
from operator import mul

from .errors import VerificationError


# ----------------------------------------------------------------------
# cyclotomic polynomials and reduction


@lru_cache(maxsize=None)
def _prime_factors(n: int):
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    for p in _prime_factors(n):
        n -= n // p
    return n


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int):
    """Coefficients of Phi_n, little-endian, as a tuple of ints: x^n - 1
    divided exactly by Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_poly(d)  # monic
            quo = [0] * (len(poly) - len(den) + 1)
            for i in range(len(quo) - 1, -1, -1):
                c = quo[i] = poly[i + len(den) - 1]
                for j, x in enumerate(den):
                    poly[i + j] -= c * x
            if any(poly):
                raise VerificationError("Phi_%d does not divide x^%d - 1"
                                        % (d, n))
            poly = quo
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_tail(n: int):
    """The nonzero terms of Phi_n below its leading one, as (j, c)."""
    return tuple((j, c) for j, c in enumerate(cyclotomic_poly(n)[:-1]) if c)


def _reduce(n: int, vec):
    """The integer list ``vec`` (vec[k] multiplies z^k, any length) on the
    power basis modulo Phi_n: a list of length phi(n).  ``vec`` is used up."""
    if len(vec) > n:  # z^n == 1
        folded = vec[:n]
        for k in range(n, len(vec)):
            folded[k % n] += vec[k]
        vec = folded
    phi = euler_phi(n)
    tail = _phi_tail(n)
    # Phi_n is monic, so z^k == -sum(c z^(k - phi + j)) from the top down
    for k in range(len(vec) - 1, phi - 1, -1):
        c = vec[k]
        if c:
            base = k - phi
            for j, p in tail:
                vec[base + j] -= c * p
    del vec[phi:]
    vec.extend([0] * (phi - len(vec)))
    return vec


def _exponent_map(n: int, terms):
    """sum(c * z^e) over (e, c) in ``terms`` (e any int), reduced mod Phi_n."""
    vec = [0] * n
    for e, c in terms:
        vec[e % n] += c
    return _reduce(n, vec)


@lru_cache(maxsize=None)
def _split(n: int, p: int):
    """(keep, test) for a prime p with p || n, m = n / p.

    Q(zeta_n) = Q(zeta_m) (x) Q(zeta_p) has the basis z_m^a z_p^b
    (a < phi(m), b < p - 1), where z_m = z^p and z_p = z^m.  By the
    Chinese remainder theorem z^j = z_m^a z_p^b with a = j / p mod m and
    b = j / m mod p, so reducing z_m^a mod Phi_m and z_p^b mod Phi_p
    gives the coordinates of z^j: an integer matrix, whose rows are
    split into ``keep`` (b == 0) and ``test`` (the rest).  A value x
    lies in Q(zeta_m) exactly when every test row kills x, and then
    keep . x is x on the power basis of Q(zeta_m).
    """
    m = n // p
    size = euler_phi(m)
    over_p, over_m = pow(p, -1, m), pow(m, -1, p)
    rows = [[0] * euler_phi(n) for _ in range(size * (p - 1))]
    for j in range(euler_phi(n)):
        zm = _exponent_map(m, [(j * over_p, 1)])
        zp = _exponent_map(p, [(j * over_m, 1)])
        for b, cb in enumerate(zp):
            for a, ca in enumerate(zm):
                rows[b * size + a][j] = ca * cb
    rows = [tuple(row) for row in rows]
    return tuple(rows[:size]), tuple(rows[size:])


def _minimal_conductor(n: int, num):
    """(m, vec): sum(num[j] z_n^j) == sum(vec[j] z_m^j) with m the least
    conductor of the value.  Conductors 2 mod 4 are rewritten by an
    exponent map; a prime square p^2 | n is left when only indices
    divisible by p are nonzero (Phi_n(x) = Phi_{n/p}(x^p)); a prime
    p || n by the rows of ``_split``."""
    while n > 1:
        if not any(num[1:]):
            return 1, num[:1]
        if n % 4 == 2:
            # zeta_n^j = (-1)^j zeta_m^(j(m+1)/2) for n = 2m, m odd
            n //= 2
            half = (n + 1) // 2
            num = _exponent_map(n, [(j * half, -c if j % 2 else c)
                                    for j, c in enumerate(num) if c])
            continue
        for p in _prime_factors(n):
            if n % (p * p) == 0:
                if not any(any(num[r::p]) for r in range(1, p)):
                    num = num[::p]
                    break
                continue
            if p == n:  # only rationals descend, and they left above
                continue
            keep, test = _split(n, p)
            if not any(sum(map(mul, row, num)) for row in test):
                num = [sum(map(mul, row, num)) for row in keep]
                break
        else:
            break
        n //= p
    return n, num


def _invert(n: int, a):
    """(u, r), u an integer list and r a nonzero int with u * a == r mod
    Phi_n, for a nonzero integer list a of length phi(n) that is not a
    constant.  Extended Euclid against Phi_n over Z: every elimination
    step cross-multiplies by the leading coefficients and divides out
    the common content of the remainder and its cofactor."""
    r0, s0 = list(cyclotomic_poly(n)), [0]
    r1, s1 = list(a), [1]
    while not r1[-1]:
        r1.pop()
    while len(r1) > 1:
        while len(r0) >= len(r1):
            shift = len(r0) - len(r1)
            g = gcd(r0[-1], r1[-1])
            f0, f1 = r1[-1] // g, r0[-1] // g
            r0 = [x * f0 for x in r0]
            for j, x in enumerate(r1):
                r0[shift + j] -= f1 * x
            s0 = [x * f0 for x in s0] + [0] * max(0, len(s1) + shift
                                                  - len(s0))
            for j, x in enumerate(s1):
                s0[shift + j] -= f1 * x
            while not r0[-1]:
                r0.pop()
            while len(s0) > 1 and not s0[-1]:
                s0.pop()
            g = gcd(*r0, *s0)
            if g > 1:
                r0 = [x // g for x in r0]
                s0 = [x // g for x in s0]
        r0, r1, s0, s1 = r1, r0, s1, s0
    return _reduce(n, s1), r1[0]


def _raw(n, num, den):
    """The Cyclo with these slots: n least, num a tuple, lowest terms."""
    out = _new(Cyclo)
    _set_n(out, n)
    _set_num(out, num)
    _set_den(out, den)
    return out


def _lowest(n, num, den):
    """The Cyclo sum(num[j] z_n^j) / den, n already its least conductor."""
    g = gcd(den, *num)
    if g > 1:
        return _raw(n, tuple([c // g for c in num]), den // g)
    return _raw(n, tuple(num), den)


def _make(n, num, den):
    """The Cyclo sum(num[j] z_n^j) / den for num reduced mod Phi_n."""
    return _lowest(*_minimal_conductor(n, num), den)


def _rational(p, q):
    """The Cyclo p / q for ints p and q > 0."""
    g = gcd(p, q)
    return _raw(1, (p // g,), q // g)


def _as_fraction(x):
    """(numerator, denominator) of an int or Fraction, else None."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return None


class Cyclo:
    """An element of some cyclotomic field, at its minimal conductor.

    ``num`` holds integers on the power basis 1, z, ..., z^(phi(n)-1) of
    Q(zeta_n) modulo Phi_n, ``den`` one positive common denominator, in
    lowest terms with them.  The conductor n is never 2 mod 4 (such
    fields coincide with their odd half) and no value of Q(zeta_m), m a
    proper divisor of n, is kept at n.  This makes __eq__ / __hash__
    structural.  ``coeffs`` gives the coordinates as Fractions.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n, coeffs):
        if n < 1:
            raise ValueError("conductor must be positive")
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        n, num = _minimal_conductor(n, _reduce(n, num) or [0])
        g = gcd(den, *num)
        _set_n(self, n)
        _set_num(self, tuple([c // g for c in num]))
        _set_den(self, den // g)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    @property
    def coeffs(self):
        """The coordinates on the power basis, as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors

    @classmethod
    def rational(cls, value) -> "Cyclo":
        value = Fraction(value)
        return _raw(1, (value.numerator,), value.denominator)

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "Cyclo":
        """Primitive n-th root of unity to the k-th power."""
        if n < 1:
            raise ValueError("conductor must be positive")
        return _make(n, _exponent_map(n, [(k, 1)]), 1)

    @classmethod
    def i(cls) -> "Cyclo":
        return cls.zeta(4)

    # -- basic predicates

    def is_zero(self) -> bool:
        return self.n == 1 and not self.num[0]

    def is_rational(self) -> bool:
        return self.n == 1

    def as_rational(self) -> Fraction:
        if self.n != 1:
            raise ValueError("not a rational number: %r" % (self,))
        return Fraction(self.num[0], self.den)

    # -- ring structure

    def _embed(self, L: int):
        """The power-basis numerators of this value in Q(zeta_L), n | L."""
        if L == self.n:
            return self.num
        step = L // self.n
        vec = [0] * ((len(self.num) - 1) * step + 1)
        vec[::step] = self.num
        return _reduce(L, vec)

    def _scale(self, p, q):
        """This value times the rational p / q (q > 0)."""
        if not p:
            return ZERO
        return _lowest(self.n, [c * p for c in self.num], self.den * q)

    def __add__(self, other):
        if isinstance(other, Cyclo):
            if self.n == 1:
                self, other = other, self
            if other.n != 1:
                return self._add(other)
            rational = other.num[0], other.den
        else:
            rational = _as_fraction(other)
            if rational is None:
                return NotImplemented
        # a rational summand changes neither conductor nor basis vectors
        p, q = rational
        if self.n == 1:
            return _rational(self.num[0] * q + p * self.den, q * self.den)
        den = lcm(self.den, q)
        num = [c * (den // self.den) for c in self.num]
        num[0] += p * (den // q)
        return _lowest(self.n, num, den)

    __radd__ = __add__

    def _add(self, other):
        n = self.n
        a, b = self.num, other.num
        if other.n != n:
            n = lcm(n, other.n)
            a, b = self._embed(n), other._embed(n)
        da, db = self.den, other.den
        if da == db:
            return _make(n, [x + y for x, y in zip(a, b)], da)
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return _make(n, [x * fa + y * fb for x, y in zip(a, b)], den)

    def __neg__(self):
        return _lowest(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other):
        if not isinstance(other, (Cyclo, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Cyclo):
            if other.n == 1:
                if self.n == 1:
                    return _rational(self.num[0] * other.num[0],
                                     self.den * other.den)
                return self._scale(other.num[0], other.den)
            if self.n == 1:
                return other._scale(self.num[0], self.den)
        else:
            rational = _as_fraction(other)
            if rational is None:
                return NotImplemented
            return self._scale(*rational)
        n = self.n
        a, b = self.num, other.num
        if other.n != n:
            n = lcm(n, other.n)
            a, b = self._embed(n), other._embed(n)
        out = [0] * (2 * len(a) - 1)
        terms = [(j, c) for j, c in enumerate(b) if c]
        for i, x in enumerate(a):
            if x:
                for j, c in terms:
                    out[i + j] += x * c
        return _make(n, _reduce(n, out), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic zero has no inverse")
        if self.n == 1:
            p = self.num[0]
            return _raw(1, (self.den if p > 0 else -self.den,), abs(p))
        # x and 1/x generate the same field: the conductor stays
        u, r = _invert(self.n, self.num)
        if r < 0:
            u, r = [-c for c in u], -r
        return _lowest(self.n, [c * self.den for c in u], r)

    def __truediv__(self, other):
        rational = _as_fraction(other)
        if rational is None:
            return self * other.inverse()
        p, q = rational
        if not p:
            raise ZeroDivisionError("division by rational zero")
        return self._scale(q, p) if p > 0 else self._scale(-q, -p)

    def __rtruediv__(self, other):
        return Cyclo.rational(other) / self if isinstance(other, (int, Fraction)) \
            else NotImplemented

    def __pow__(self, k: int):
        if self.n == 1 and k >= 0:
            # coprime numerator and denominator stay coprime
            return _raw(1, (self.num[0] ** k,), self.den ** k)
        if self.den == 1 and sum(map(abs, self.num)) == 1:
            # +-z^j to the k is one exponent map, for every k
            j = next(j for j, c in enumerate(self.num) if c)
            return _make(self.n, _exponent_map(
                self.n, [(j * k, self.num[j] ** (k & 1))]), 1)
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclo.rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Cyclo):
            return self.n == other.n and self.den == other.den \
                and self.num == other.num
        rational = _as_fraction(other)
        if rational is None:
            return NotImplemented
        return self.n == 1 and (self.num[0], self.den) == rational

    def __hash__(self):
        # the hash of (n, coeffs): a Fraction of denominator 1 hashes
        # as its numerator
        if self.den == 1:
            return hash((self.n, self.num))
        return hash((self.n, self.coeffs))

    def __bool__(self):
        return self.n != 1 or self.num[0] != 0

    # -- Galois structure

    def galois(self, k: int) -> "Cyclo":
        """Apply zeta_n -> zeta_n^k (k must be invertible mod n).

        An automorphism keeps each subfield Q(zeta_m) and permutes
        Z[zeta_n], so conductor and lowest terms carry over."""
        if gcd(k, self.n) != 1:
            raise ValueError("galois exponent not coprime to conductor")
        num = _exponent_map(self.n, [(j * k, c)
                                     for j, c in enumerate(self.num) if c])
        return _raw(self.n, tuple(num), self.den)

    def conjugate(self) -> "Cyclo":
        """Complex conjugation (zeta -> zeta^{-1})."""
        if self.n == 1:
            return self
        return self.galois(self.n - 1)

    # -- roots of unity and square roots

    def as_root_of_unity(self):
        """Return (d, t) with self == zeta_d^t, gcd(t,d) arbitrary, or None.

        The roots of unity in Q(zeta_n) are exactly +-zeta_n^k, so the
        test is self^M == 1 for M = lcm(2, n).
        """
        if self.is_zero():
            return None
        M = lcm(2, self.n)
        if self ** M != 1:
            return None
        z = Cyclo.zeta(M)
        cur = Cyclo.rational(1)
        for t in range(M):
            if cur == self:
                if t == 0:
                    return (1, 0)
                d = gcd(M, t)
                return (M // d, t // d)
            cur = cur * z
        raise VerificationError(
            "unit of finite order not found among powers")

    def sqrt(self):
        """A square root within cyclotomic scalars, or None.

        Handles rational squares, roots of unity, and products of the
        two; anything else returns None (the caller reports it as not
        representable within this scalar domain).
        """
        if self.is_zero():
            return Cyclo.rational(0)
        if self.is_rational():
            q = self.as_rational()
            if q > 0:
                num, den = q.numerator, q.denominator
                rn, rd = isqrt(num), isqrt(den)
                if rn * rn == num and rd * rd == den:
                    return Cyclo.rational(Fraction(rn, rd))
                return None
            r = (-self).sqrt()
            return None if r is None else Cyclo.i() * r
        ru = self.as_root_of_unity()
        if ru is not None:
            d, t = ru
            return Cyclo.zeta(2 * d, t)
        # q * (root of unity) with q rational > 0:  q^2 = self * conj(self)
        norm = self * self.conjugate()
        if norm.is_rational() and norm.as_rational() > 0:
            q = norm.sqrt()
            if q is not None and q.is_rational():
                phase = self / q
                ru = phase.as_root_of_unity()
                if ru is not None:
                    qs = q.sqrt()
                    if qs is None:
                        return None
                    d, t = ru
                    return qs * Cyclo.zeta(2 * d, t)
        return None

    # -- display

    def __repr__(self):
        if self.n == 1:
            return "Cyclo(%s)" % self.coeffs[0]
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("z%d^%d" % (self.n, j) if j > 1 else "z%d" % self.n)
            else:
                parts.append("%s*z%d^%d" % (c, self.n, j))
        return "Cyclo<%s>" % (" + ".join(parts) or "0")


_new = object.__new__
_set_n = Cyclo.n.__set__
_set_num = Cyclo.num.__set__
_set_den = Cyclo.den.__set__

ZERO = Cyclo.rational(0)
ONE = Cyclo.rational(1)


def as_cyclo(x) -> Cyclo:
    if isinstance(x, Cyclo):
        return x
    return Cyclo.rational(x)


# ----------------------------------------------------------------------
# sparse polynomials


def _nonzero(terms):
    return {k: c for k, c in terms.items() if c}


# Past this many terms of the multinomial sum, ``Poly.__pow__`` squares
# instead: the sum grows like k^(t-1) for a t-term base, the squarings
# like the square of the result.  On CPython 3.11 (one core of a shared
# x86-64 host), with coefficients 1, 2, 3, ...: a 6-term quintic to the
# 30th (324,632 terms) took 1.1 s as a sum and 0.05 s squared, a 4-term
# cubic to the 66th (52,394 terms) 0.18 s and 0.08 s; with zeta(251)
# and zeta(251)^3 among the cubic's coefficients, 0.16 s and 2.0 s.
_MULTINOMIAL_TERMS = 50_000


def _group_mul(x, y, n, out=None):
    """The product of two sparse sums {e: int} of powers of z in
    Z[z]/(z^n - 1), added into ``out`` when it is given."""
    out = {} if out is None else out
    for a, u in x.items():
        for b, v in y.items():
            e = (a + b) % n
            out[e] = out.get(e, 0) + u * v
    return out


class Poly:
    """A sparse polynomial in ``nvars`` variables with cyclotomic coefficients.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero Cyclo
    coefficients.  Exponents may be negative, so a Laurent polynomial
    such as p(u, v) / v^k is an ordinary value; a monomial is the only
    kind with an inverse.  Values are immutable and compare and hash by
    their terms.  ``nvars`` is read off the exponent tuples, so it must be
    given only for a polynomial written without terms.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, terms=None, nvars=None):
        terms = terms or {}
        if nvars is None:
            if not terms:
                raise ValueError("a polynomial without terms needs nvars")
            nvars = len(next(iter(terms)))
        tidy = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError("bad exponent vector %r" % (exps,))
            c = as_cyclo(c)
            if c:
                tidy[exps] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", tidy)

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _result(self, terms, other=None):
        """The value holding ``terms`` (already tidy) that an operation of
        this value, with ``other`` if given, yields: a Poly2 only for
        operations that keep a binary form homogeneous."""
        out = object.__new__(Poly)
        object.__setattr__(out, "nvars", self.nvars)
        object.__setattr__(out, "terms", terms)
        return out

    @staticmethod
    @lru_cache(maxsize=None)
    def variables(nvars: int):
        """The coordinates x_0, ..., x_{nvars-1} as monomials, cached."""
        return tuple(Poly({tuple(int(j == k) for j in range(nvars)): 1})
                     for k in range(nvars))

    def _one(self):
        return self._result({(0,) * self.nvars: ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, *exps) -> Cyclo:
        return self.terms.get(exps, ZERO)

    def _check_same(self, other):
        if other.nvars != self.nvars:
            raise ValueError("polynomials in %d and %d variables do not mix"
                             % (self.nvars, other.nvars))

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return self._result(_nonzero(out), other)

    def __neg__(self):
        return self._result({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            c = as_cyclo(other)
            return self._result(_nonzero({k: v * c
                                          for k, v in self.terms.items()}))
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                c = c1 * c2
                out[k] = out[k] + c if k in out else c
        return self._result(_nonzero(out), other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if len(self.terms) == 1:
            # a monomial's power is read off its exponents
            ((exps, c),) = self.terms.items()
            power = {tuple(e * k for e in exps): c ** k}
            return self._result(power) if k >= 0 \
                else Poly._result(self, power)
        if k < 0:
            raise ValueError("only a monomial has an inverse")
        # k <= 1 would recurse once per term below for a trivial answer
        if k <= 1 or not self.terms \
                or comb(k + len(self.terms) - 1, k) > _MULTINOMIAL_TERMS:
            result = self._one()
            base = self
            while k:
                if k & 1:
                    result = result * base
                k >>= 1
                if k:
                    base = base * base
            return result
        # the multinomial theorem: the sum over j_1 + ... + j_t = k of
        # k! / (j_1! ... j_t!) prod (c_i x^e_i)^j_i.  A coefficient
        # c = num(z) / den is kept as a sparse sum {e: int} of powers of z
        # = zeta_N in Z[z]/(z^N - 1), N the lcm of the conductors, and its
        # j-th power as num^j den^(k-j), over the common denominator
        # prod den^k; a root of unity's powers stay one entry, and each
        # output coefficient is reduced mod Phi_N and canonicalized once
        items = list(self.terms.items())
        n = lcm(*(c.n for _, c in items))
        powers = []
        for exps, c in items:
            step = n // c.n
            base = {j * step: v for j, v in enumerate(c.num) if v}
            nums = [{0: 1}]
            for _ in range(k):
                nums.append(_group_mul(nums[-1], base, n))
            powers.append((exps, [{e: v * c.den ** (k - j)
                                   for e, v in num.items()}
                                  for j, num in enumerate(nums)]))
        *head, (ex, xs), (ey, ys) = powers
        pairs, sums = {}, {}

        def binomials(left):
            """C(left, j) x^j y^(left-j) for j <= left, the last two terms."""
            if left not in pairs:
                out, binomial = [], 1
                for j in range(left + 1):
                    term = _group_mul(xs[j], ys[left - j], n)
                    out.append({e: v * binomial for e, v in term.items()})
                    binomial = binomial * (left - j) // (j + 1)
                pairs[left] = out
            return pairs[left]

        def expand(i, left, exps, coeff):
            if i == len(head):
                for j, term in enumerate(binomials(left)):
                    key = tuple(a + j * b + (left - j) * c
                                for a, b, c in zip(exps, ex, ey))
                    _group_mul(coeff, term, n, sums.setdefault(key, {}))
                return
            e, row = head[i]
            binomial = 1
            for j in range(left + 1):
                term = _group_mul(coeff, row[j], n)
                expand(i + 1, left - j,
                       tuple(a + j * b for a, b in zip(exps, e)),
                       {a: v * binomial for a, v in term.items()})
                binomial = binomial * (left - j) // (j + 1)

        expand(0, k, (0,) * self.nvars, {0: 1})
        den = 1
        for _, c in items:
            den *= c.den ** k
        return self._result(_nonzero({
            key: _make(n, _exponent_map(n, acc.items()), den)
            for key, acc in sums.items()}))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def conj_coeffs(self):
        return self._result({k: c.conjugate() for k, c in self.terms.items()})

    def substitute(self, args):
        """The value at ``args``, one polynomial per variable, as a Poly.

        The powers of each argument are tabulated once, by repeated
        multiplication from 1, up to the largest exponent of its
        variable; negative exponents need a monomial argument.
        """
        args = tuple(args)
        if not args or len(args) != self.nvars:
            raise ValueError("need one argument per variable")
        tables = []
        for i, arg in enumerate(args):
            exps = [e[i] for e in self.terms]
            high = max(exps, default=0)
            table = {0: arg._one()}
            for k in range(1, high + 1):
                table[k] = table[k - 1] * arg
            low = min(exps, default=0)
            if low < 0:
                inverse = arg ** -1
                for k in range(-1, low - 1, -1):
                    table[k] = table[k + 1] * inverse
            tables.append(table)
        out = {}
        for exps, c in self.terms.items():
            piece = tables[0][exps[0]]
            for table, e in zip(tables[1:], exps[1:]):
                piece = piece * table[e]
            for k, v in (piece * c).terms.items():
                out[k] = out[k] + v if k in out else v
        return Poly._result(args[0], _nonzero(out))

    def proportionality(self, other):
        """The scalar s with self == s * other, or None."""
        if not other.terms:
            return None
        key = max(other.terms)
        cand = self.terms.get(key)
        if cand is None:
            return None
        lam = cand / other.terms[key]
        return lam if self == other * lam else None

    def __repr__(self):
        bits = ["(%r)*x^%r" % (self.terms[k], k)
                for k in sorted(self.terms, reverse=True)]
        return "%s<%s>" % (type(self).__name__, " + ".join(bits) or "0")


class Poly2(Poly):
    """A homogeneous binary form: a Poly in u0, u1 of fixed ``degree``.

    Sums, products and non-negative powers of binary forms, scalar
    multiples and ``compose`` yield binary forms again; ``substitute``,
    negative powers and mixing with a plain Poly yield a plain Poly.
    """

    __slots__ = ("degree",)

    def __init__(self, degree: int, terms=None):
        terms = terms or {}
        for a, b in terms:
            if a + b != degree:
                raise ValueError("monomial u0^%d u1^%d in degree-%d form"
                                 % (a, b, degree))
        Poly.__init__(self, terms, 2)
        object.__setattr__(self, "degree", degree)

    def _result(self, terms, other=None):
        if other is not None and not isinstance(other, Poly2):
            return Poly._result(self, terms)
        out = object.__new__(Poly2)
        object.__setattr__(out, "nvars", 2)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "degree",
                           sum(next(iter(terms))) if terms else self.degree)
        return out

    @classmethod
    def monomial(cls, a: int, b: int, coeff=1) -> "Poly2":
        return cls(a + b, {(a, b): coeff})

    @classmethod
    def zero(cls, degree: int = 0) -> "Poly2":
        return cls(degree, {})

    def __add__(self, other):
        if isinstance(other, Poly2) and self.terms and other.terms \
                and self.degree != other.degree:
            raise ValueError("degree mismatch %d vs %d"
                             % (self.degree, other.degree))
        return Poly.__add__(self, other)

    def compose(self, m) -> "Poly2":
        """Substitute (u0, u1) -> (m00 u0 + m01 u1, m10 u0 + m11 u1).

        A diagonal or antidiagonal m, with entries x and y off the zero
        pair, sends each term c u0^a u1^b to c x^a y^b: one product with
        the unit x^a y^b from `_units`, whose tables are cached per
        (x, y, d), at most 64 of them, as each holds about d phi(N)
        integers.  Any other m runs homogeneous Horner with one integer
        per coefficient: over common denominators m = M / D_m and
        g = G / D_g, and H_d = G_d, H_j = H_(j+1) L0 + G_j L1^(d-j) with
        L0 = M00 u0 + M01 u1 and L1 = M10 u0 + M11 u1, the powers of L1
        built alongside.

        Ring map: a value of conductor k | N, N the lcm of all, is
        sum(v_j z^(jN/k)), z = zeta_N.  Phi_N divides z^h + 1, h = N/2,
        for even N and z^h - 1, h = N, for odd N, so Z[z]/(z^h +- 1) maps
        onto Z[zeta_N], and z -> 2^s maps it into the integers modulo
        Q = 2^(sh) +- 1.  There a product x is reduced by one fold,
        x = (x & (2^(sh) - 1)) +- (x >> sh) mod Q, and never by ``%``.

        Bound: with |x| the sum of the |v_j|, which is submultiplicative
        in Z[z]/(z^h +- 1), each coefficient of H_0 there is at most
        B = sum_j |G_j| max(|M00| + |M01|, |M10| + |M11|)^d in absolute
        value, and s = bit_length(B) + 2.

        Decoding: with 2^(s-1) added to each of its h slots, an output
        coefficient taken mod Q has the wrapped coefficients plus 2^(s-1)
        as its base-2^s digits.  They are reduced mod Phi_N, and
        H_0 / (D_g D_m^d) becomes a Cyclo once per coefficient.
        """
        (m00, m01), (m10, m11) = [[as_cyclo(x) for x in row] for row in m]
        d = self.degree
        if not (m01 or m10) or not (m00 or m11):
            swap = bool(m01 or m10)
            units = _units(*((m01, m10) if swap else (m00, m11)), d)
            terms = {}
            for (a, b), c in self.terms.items():
                c = c * units[a]
                if c:
                    terms[(b, a) if swap else (a, b)] = c
            return self._result(terms)
        coeffs = [self.terms.get((j, d - j), ZERO) for j in range(d + 1)]
        entries = (m00, m01, m10, m11)
        n = lcm(*(x.n for x in entries), *(c.n for c in coeffs))
        d_m = lcm(*(x.den for x in entries))
        d_g = lcm(*(c.den for c in coeffs))

        def norm(x, den):
            return sum(map(abs, x.num)) * (den // x.den)

        bound = sum(norm(c, d_g) for c in coeffs) * max(
            norm(m00, d_m) + norm(m01, d_m),
            norm(m10, d_m) + norm(m11, d_m)) ** d
        s = bound.bit_length() + 2
        h, sign = (n // 2, -1) if n % 2 == 0 else (n, 1)
        width = s * h
        mask = (1 << width) - 1

        def pack(x, den):
            out, step = 0, s * (n // x.n)
            for c in reversed(x.num):
                out = (out << step) + c
            out *= den // x.den
            return (out & mask) + sign * (out >> width)

        a00, a01, a10, a11 = [pack(x, d_m) for x in entries]
        g = [pack(c, d_g) for c in coeffs]
        power, horner = [1], [g[d]]
        for j in range(d - 1, -1, -1):
            power = [((x := a10 * p + a11 * q) & mask) + sign * (x >> width)
                     for p, q in zip([0] + power, power + [0])]
            horner = [((x := a00 * p + a01 * q + g[j] * r) & mask)
                      + sign * (x >> width)
                      for p, q, r in zip([0] + horner, horner + [0], power)]
        modulus = mask + 1 - sign  # 2^(sh) - 1 for odd N, 2^(sh) + 1 for even
        slot, half = (1 << s) - 1, 1 << (s - 1)
        offset = mask // slot * half  # half in each of the h slots
        den = d_g * d_m ** d
        terms = {}
        for a, x in enumerate(horner):
            x = (x + offset) % modulus
            vec = _reduce(n, [((x >> s * k) & slot) - half for k in range(h)])
            if any(vec):
                terms[(a, d - a)] = _make(n, vec, den)
        return self._result(terms)

    def real_coefficients(self) -> bool:
        return all(c == c.conjugate() for c in self.terms.values())


@lru_cache(maxsize=64)
def _units(x, y, d):
    """x^a y^(d-a), the unit of the term u0^a u1^(d-a), for a = 0..d."""
    return tuple(x ** a * y ** (d - a) for a in range(d + 1))


# ----------------------------------------------------------------------
# gcd / squarefree structure of binary forms
#
# A binary form factors as u0^e0 * u1^e1 * h where h has nonzero
# coefficients at both ends; h corresponds to a univariate polynomial in
# t = u0/u1 with nonzero constant term.  The root multiplicities are
# read off the pair (e0, e1) and Yun's decomposition of that univariate
# polynomial.


def _to_univariate(g: Poly2):
    """Return (e0, e1, coeff list p) with g = u0^e0 u1^e1 * P(u0,u1),
    P the homogenization of p (p[k] multiplies u0^k)."""
    if g.is_zero():
        raise ValueError("zero form has no factor structure")
    e0 = min(a for (a, b) in g.terms)
    e1 = min(b for (a, b) in g.terms)
    d = g.degree - e0 - e1
    p = [ZERO] * (d + 1)
    for (a, b), c in g.terms.items():
        p[a - e0] = c
    return e0, e1, p


def _udeg(p):
    d = len(p) - 1
    while d >= 0 and p[d].is_zero():
        d -= 1
    return d


def _utrim(p):
    return p[: _udeg(p) + 1] or [ZERO]


def _usub(p, q):
    return [a - b for a, b in zip_longest(p, q, fillvalue=ZERO)]


def _udivmod(p, q):
    dq = _udeg(q)
    if dq < 0:
        raise ZeroDivisionError("division by zero polynomial")
    inv = q[dq].inverse()
    rem = list(p)
    quo = [ZERO] * max(1, len(p) - dq)
    while _udeg(rem) >= dq:
        dr = _udeg(rem)
        c = rem[dr] * inv
        quo[dr - dq] = c
        for j in range(dq + 1):
            rem[dr - dq + j] = rem[dr - dq + j] - c * q[j]
        rem[dr] = ZERO  # guard against residue from inexact cancellation
    return _utrim(quo), _utrim(rem)


def _udiv_exact(p, q):
    quo, rem = _udivmod(p, q)
    if _udeg(rem) >= 0:
        raise VerificationError("inexact polynomial division")
    return quo


def _ugcd(p, q):
    a, b = _utrim(list(p)), _utrim(list(q))
    while _udeg(b) >= 0:
        _, r = _udivmod(a, b)
        a, b = b, r
    return _umonic(a)


def _umonic(p):
    d = _udeg(p)
    if d < 0:
        return [ZERO]
    inv = p[d].inverse()
    return [x * inv for x in p]


def _uderiv(p):
    return _utrim([p[k] * k for k in range(1, len(p))]) if len(p) > 1 else [ZERO]


def yun_decomposition(p):
    """Squarefree decomposition: p monic = prod out[i-1]^i (Yun)."""
    p = _umonic(p)
    if _udeg(p) <= 0:
        return []
    dp = _uderiv(p)
    g = _ugcd(p, dp)
    w = _udiv_exact(p, g)
    y = _udiv_exact(dp, g)
    out = []
    while _udeg(w) > 0:
        z = _usub(y, _uderiv(w))
        f = _ugcd(w, _utrim(z))
        out.append(f)
        w = _udiv_exact(w, f)
        y = _udiv_exact(_utrim(z), f)
    return out


def root_multiplicities(g: Poly2):
    """Multiset of root multiplicities of g (roots counted without
    naming them; the roots u1=0 and u0=0 are included).  The rest of g
    is proved squarefree modulo a split prime when it is, and goes
    through Yun's decomposition over Q(zeta_N) otherwise."""
    e0, e1, p = _to_univariate(g)
    mults = [e for e in (e0, e1) if e]
    if len(p) > 1 and _squarefree_mod_p(p):
        mults.extend([1] * (len(p) - 1))
    else:
        for i, f in enumerate(yun_decomposition(p), start=1):
            mults.extend([i] * _udeg(f))
    return sorted(mults, reverse=True)


# ----------------------------------------------------------------------
# 2x2 matrices over the cyclotomic scalars


class Mat2:
    """Exact 2x2 matrix, immutable.

    Iterating yields the two rows, so a Mat2 can be passed straight to
    Poly2.compose.  normalized() scales so the first nonzero row-major
    entry is 1, making projective equality structural.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", as_cyclo(a))
        object.__setattr__(self, "b", as_cyclo(b))
        object.__setattr__(self, "c", as_cyclo(c))
        object.__setattr__(self, "d", as_cyclo(d))

    def __setattr__(self, *argv):
        raise AttributeError("Mat2 is immutable")

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @classmethod
    def diag(cls, x, y) -> "Mat2":
        return cls(x, 0, 0, y)

    def entries(self):
        return ((self.a, self.b), (self.c, self.d))

    def __iter__(self):
        return iter(self.entries())

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def scale(self, s) -> "Mat2":
        s = as_cyclo(s)
        return Mat2(self.a * s, self.b * s, self.c * s, self.d * s)

    def det(self) -> Cyclo:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "Mat2":
        dt = self.det()
        if dt.is_zero():
            raise ZeroDivisionError("singular matrix")
        inv = dt.inverse()
        return Mat2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def conj(self) -> "Mat2":
        """Entrywise complex conjugation."""
        return Mat2(self.a.conjugate(), self.b.conjugate(),
                    self.c.conjugate(), self.d.conjugate())

    def is_scalar(self) -> bool:
        return self.b.is_zero() and self.c.is_zero() and self.a == self.d

    def normalized(self) -> "Mat2":
        """Projective canonical form: first nonzero row-major entry = 1."""
        for e in (self.a, self.b, self.c, self.d):
            if not e.is_zero():
                return self.scale(e.inverse())
        raise ValueError("zero matrix has no projective class")

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == \
               (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "Mat2[[%r, %r], [%r, %r]]" % (self.a, self.b, self.c, self.d)


# ----------------------------------------------------------------------
# arithmetic modulo a split prime
#
# The package's only modular arithmetic.  For a prime p = 1 mod N the
# cyclotomic polynomial Phi_N splits over F_p, so an element w of exact
# order N gives a ring map from the values of Q(zeta_N) whose
# denominators p does not divide onto F_p: zeta_N -> w, and so
# zeta_m -> w^(N/m) for m | N.  Polynomials over F_p are little-endian
# lists of ints in [0, p) without trailing zeros; [] is zero.


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 37, exact below 3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    d = (n - 1) >> s
    return all(pow(b, d, n) == 1
               or any(pow(b, d << r, n) == n - 1 for r in range(s))
               for b in bases)


@lru_cache(maxsize=None)
def _split_primes(N: int):
    """The first three primes p > 2^30 with p = 1 mod N, each as (p, w)
    with w of exact order N in F_p."""
    out = []
    p = (2 ** 30 // N + 1) * N + 1
    while len(out) < 3:
        if _is_prime(p):
            for g in range(2, p):
                w = pow(g, (p - 1) // N, p)
                if all(pow(w, N // q, p) != 1 for q in _prime_factors(N)):
                    out.append((p, w))
                    break
        p += N
    return tuple(out)


def _mod_p(x: Cyclo, N: int, p: int, w: int):
    """The image of x (conductor dividing N) in F_p under zeta_N -> w, or
    None when p divides its denominator."""
    if x.den % p == 0:
        return None
    z = pow(w, N // x.n, p)
    acc = 0
    for c in reversed(x.num):
        acc = (acc * z + c) % p
    return acc * pow(x.den, -1, p) % p


def _fp_divmod(a, b, p: int):
    """(q, r) with a = q b + r and deg r < deg b in F_p[x], b nonzero."""
    r, db = list(a), len(b) - 1
    q = [0] * max(0, len(a) - db)
    inv = pow(b[-1], -1, p)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] * inv % p
        if c:
            for j, v in enumerate(b):
                r[k + j] = (r[k + j] - c * v) % p
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return q, r


def _fp_gcd(a, b, p: int):
    """The monic gcd of a and b in F_p[x] ([] when both are zero)."""
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [v * inv % p for v in a]


def _squarefree_mod_p(coeffs) -> bool:
    """True when a split prime proves the univariate polynomial ``coeffs``
    (Cyclo values, leading one nonzero) squarefree over Q(zeta_N), N the
    lcm of their conductors.

    A prime is good when it divides no denominator and keeps the leading
    coefficient, so the reduction keeps the degree.  Then the test is
    sound.  Let P be the prime of Z[zeta_N] over p that contains
    zeta_N - w.  If h^2 divides g, h monic of positive degree, then h
    is P-integral: g / lc(g) is monic and P-integral, and the monic
    factors of such a polynomial are P-integral too.  So the reduction
    of h^2, of the same positive degree, divides that of g, and
    gcd(g, g') mod p is not 1.  The first good prime decides; False
    sends the caller to exact Yun.
    """
    N = lcm(*(c.n for c in coeffs))
    for p, w in _split_primes(N):
        image = [_mod_p(c, N, p, w) for c in coeffs]
        if None in image or not image[-1]:
            continue
        deriv = [k * v % p for k, v in enumerate(image)][1:]
        while deriv and not deriv[-1]:
            deriv.pop()
        return len(_fp_gcd(image, deriv, p)) == 1
    return False
