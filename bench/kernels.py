"""Kernel rows for the exact layer, timed on seeded operands.

``exact.mul_us.c<N>`` and ``exact.inverse_us.c<N>`` time one field
multiplication / inversion at conductor N, on sparse operands (three
powers of zeta_N, as in the group elements); ``exact.compose_ms.d<D>``
times one ``Poly2.compose`` of a seeded degree-D form with a fixed
product of two icosahedral generators.  Each row is the median over timed batches.
"""

import random
from fractions import Fraction
from time import perf_counter

from .stats import median

CONDUCTORS = (1, 4, 8, 12, 60, 120)
DEGREES = (12, 20, 30)
BUDGET = 0.05  # seconds of timed batches per row, at least


def _element(rng, n):
    from realforms.exact import Cyclo
    while True:
        if n == 1:
            x = Cyclo.rational(Fraction(rng.choice([-7, -3, 2, 5, 9]),
                                        rng.randint(1, 9)))
        else:
            coeffs = [0] * n
            for _ in range(3):
                coeffs[rng.randrange(n)] = rng.choice([-3, -2, -1, 1, 2, 3])
            x = Cyclo(n, coeffs)
        if x.n == n and not x.is_zero():
            return x


def _per_op(fn, count, min_batches=3):
    batches = []
    spent = 0.0
    while spent < BUDGET or len(batches) < min_batches:
        start = perf_counter()
        fn()
        elapsed = perf_counter() - start
        spent += elapsed
        batches.append(elapsed / count)
    return median(batches)


def rows(seed):
    from realforms.exact import Poly2
    from realforms.groups import GroupSpec, generators

    rng = random.Random("kernels/%d" % seed)
    out = {}
    for n in CONDUCTORS:
        ops = [_element(rng, n) for _ in range(4)]
        pairs = list(zip(ops, ops[1:] + ops[:1]))
        out["exact.mul_us.c%d" % n] = 1e6 * _per_op(
            lambda: [a * b for a, b in pairs], len(pairs))
        out["exact.inverse_us.c%d" % n] = 1e6 * _per_op(
            lambda: [a.inverse() for a in ops], len(ops))
    rotation, _, beta = generators(GroupSpec("E8"))
    m = beta * rotation
    for d in DEGREES:
        p = Poly2(d, {(a, d - a): rng.choice([-3, -2, -1, 1, 2, 3])
                      for a in range(d + 1)})
        out["exact.compose_ms.d%d" % d] = 1e3 * _per_op(
            lambda: p.compose(m), 1, min_batches=1)
    return out
