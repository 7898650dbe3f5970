"""Yun's squarefree decomposition over Q(zeta_N), for the test oracles.

The package finds root multiplicities modulo split primes and lifts
them (`realforms.exact.root_multiplicities`).  The oracles that check it
run Euclid's remainder sequence over the cyclotomic field with this
instead, so they share no code with what they check beyond the field
arithmetic.  It is slow at large conductors: the oracles keep to small
ones.
"""

from itertools import zip_longest

from realforms.exact import ZERO
from realforms.errors import VerificationError


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
        rem[dr] = ZERO
    return _utrim(quo), _utrim(rem)


def _udiv_exact(p, q):
    quo, rem = _udivmod(p, q)
    if _udeg(rem) >= 0:
        raise VerificationError("inexact polynomial division")
    return quo


def _umonic(p):
    d = _udeg(p)
    if d < 0:
        return [ZERO]
    inv = p[d].inverse()
    return [x * inv for x in p]


def _ugcd(p, q):
    a, b = _utrim(list(p)), _utrim(list(q))
    while _udeg(b) >= 0:
        a, b = b, _udivmod(a, b)[1]
    return _umonic(a)


def _uderiv(p):
    return _utrim([p[k] * k for k in range(1, len(p))]) if len(p) > 1 \
        else [ZERO]


def yun_decomposition(p):
    """[f_1, f_2, ...], monic, with p / lc(p) = prod f_i^i (Yun)."""
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


def multiplicities(g):
    """The root multiplicities of the binary form g, largest first, by
    Yun's decomposition of its dehomogenization."""
    terms = g.terms
    e0 = min(a for a, _ in terms)
    e1 = min(b for _, b in terms)
    p = [ZERO] * (g.degree - e0 - e1 + 1)
    for (a, _), c in terms.items():
        p[a - e0] = c
    mults = [e for e in (e0, e1) if e]
    for i, f in enumerate(yun_decomposition(p), start=1):
        mults.extend([i] * _udeg(f))
    return sorted(mults, reverse=True)
