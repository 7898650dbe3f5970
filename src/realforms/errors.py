"""The package's one exception that is not a domain error.

It lives in a module of its own so that code which only raises or
catches it (the lattices, the registry's data check, the CLI's exit-3
contract) does not execute the arithmetic kernel to get it.
"""


class VerificationError(AssertionError):
    """An exact identity that was asserted to hold failed to hold."""
