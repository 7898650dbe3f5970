"""Polynomials over F_p and a squarefree test modulo split primes, for the
test oracles.

The package divides over F_p only by exact divisors
(`realforms.exact._fp_quotient`) and proves the product of the lifted
root-multiplicity factors squarefree by how they were built, with no
second test.  The oracles that check it use the long division, the
product and the multi-factor, multi-prime squarefree test here.
Polynomials are little-endian lists of ints in [0, p) without trailing
zeros; [] is zero.
"""

from math import lcm

from realforms import exact


def div_rem(a, b, p):
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


def mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def squarefree(factors, primes=8):
    """True when one of the first ``primes`` split primes that divide no
    denominator and keep every leading coefficient proves the product of
    ``factors`` (Cyclo lists, leading entries nonzero) squarefree over
    Q(zeta_N), N the lcm of their conductors: gcd(f, f') = 1 mod p."""
    N = lcm(*(c.n for f in factors for c in f))
    for p, w in exact._split_primes(N, primes):
        images = [[exact._mod_p(c, N, p, w) for c in f] for f in factors]
        if any(None in f or not f[-1] for f in images):
            continue
        f = [1]
        for image in images:
            f = mul(f, image, p)
        if len(exact._fp_gcd(f, exact._fp_deriv(f, p), p)) == 1:
            return True
    return False
