"""Rational Gauss-Jordan elimination for the test oracles.

The package solves only over the integers (`realforms.lattices`).  The
oracles that check its grading solve and its cyclotomic kernel solve
over Q with this instead, so they share no code with what they check.
"""

from fractions import Fraction


def solve(rows, rhs):
    """One solution x of rows * x = rhs over Q, or None if there is none.

    Unknowns without a pivot are set to zero.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        lead = aug[r][c]
        aug[r] = [x / lead for x in aug[r]]
        for i, row in enumerate(aug):
            if i != r and row[c]:
                f = row[c]
                aug[i] = [x - f * y for x, y in zip(row, aug[r])]
        pivots.append(c)
    if any(row[ncols] for row in aug[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for row, c in zip(aug, pivots):
        sol[c] = row[ncols]
    return sol
