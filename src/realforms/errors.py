"""The package's one exception that is not a domain error, and its one
integer check.

They live in a module of their own so that code which only raises or
catches the exception (the lattices, the registry's data check, the
CLI's exit-3 contract) or reads integer input does not execute the
arithmetic kernel to get them.
"""


class VerificationError(AssertionError):
    """An exact identity that was asserted to hold failed to hold."""


def as_int(value, what):
    """``value`` as an int, refusing anything whose ``denominator`` is
    not 1 (a float, a string, a Fraction that is not whole) with a
    ValueError instead of truncating it."""
    if getattr(value, "denominator", 0) != 1:
        raise ValueError("%s must be integers, got %r" % (what, value))
    return int(value)


class UndecidableError(ValueError):
    """The exact search cannot settle the question within its scalars or
    its bounds."""
