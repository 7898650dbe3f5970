"""The recursive-descent parser before monomial tokens, for the oracles.

`realforms.parsing` lexes a monomial ``c*u0^a*u1^b`` as one token.  The
differential test in `tests/test_parsing.py` reads random texts with this
copy of the parser it had before, one token per number, name and symbol,
and with `realforms.parsing` itself, and asks for the same value or the
same error message and position.  It shares the bounds and `ParseError`
with the package, and nothing of its lexer or grammar.  A numeral past
``sys.get_int_max_str_digits()`` makes this copy raise CPython's own
``ValueError``: the oracles leave such texts out.
"""

import re
import sys
from fractions import Fraction
from math import lcm
from operator import add

from realforms.exact import Cyclo, Poly, Poly2, _nonzero, _rational, as_cyclo
from realforms.parsing import (MAX_CONDUCTOR, MAX_DEGREE, MAX_NESTING,
                               ParseError)


_TOKEN = re.compile(r"([0-9]+)(/[0-9]*)?|([A-Za-z][A-Za-z0-9_]*)|(\S)")
_SYMBOLS = "+-*^():;[]"


def _tokenize(text):
    tokens = []
    depth = 0
    for match in _TOKEN.finditer(text):
        digits, fraction, name, other = match.groups()
        pos = match.start()
        if digits:
            value = int(digits)
            if fraction is not None:
                if len(fraction) == 1:
                    raise ParseError("expected digits after '/'",
                                     match.end())
                den = int(fraction[1:])
                if den == 0:
                    raise ParseError("zero denominator", match.start(2) + 1)
                value = Fraction(value, den)
            tokens.append(("num", value, pos))
        elif name:
            tokens.append(("name", name, pos))
        elif other in _SYMBOLS:
            if other == "(":
                depth += 1
                if depth > MAX_NESTING:
                    raise ParseError("parentheses nested deeper than %d"
                                     % MAX_NESTING, pos)
            elif other == ")":
                depth -= 1
            tokens.append((other, None, pos))
        else:
            raise ParseError("unexpected character %r" % other, pos)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens of ``text``.

    ``names`` are the plain variables; only a ``formula`` may also use
    ``conj(name)``, and only `components` reads brackets, ``:`` and ``;``.
    """

    def __init__(self, text, names, formula=False):
        self.tokens = _tokenize(text)
        self.k = 0
        self.index = {name: k for k, name in enumerate(names)}
        self.formula = formula
        # x_0 makes each sum a Poly by `_result`; x_k's exponents are units
        variables = Poly.variables(len(names) * (2 if formula else 1))
        self.x0 = variables[0]
        self.units = [next(iter(x.terms)) for x in variables]
        self.origin = (0,) * len(variables)
        self.conductor = 1

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %r" % kind, tok[2])
        self.k += 1
        return tok

    def end(self):
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)

    def components(self):
        bracketed = self.peek()[0] == "["
        if bracketed:
            self.take()
        comps = [self.expr()[0]]
        while self.peek()[0] in (":", ";"):
            self.take()
            comps.append(self.expr()[0])
        if bracketed:
            self.take("]")
        self.end()
        return comps

    # expr, term, factor and atom return (value, degree), the degree
    # read off the text, so that a bound is checked before evaluation

    def expr(self):
        # one dict for all terms: a Poly per + would be quadratic in them
        op = self.take()[0] if self.peek()[0] in ("+", "-") else "+"
        sums, degree = {}, 0
        while True:
            value, rdeg = self.term()
            degree = max(degree, rdeg)
            if type(value) is tuple:
                c, k = value
                c = _cyclo(-c if op == "-" else c)
                sums[k] = sums[k] + c if k in sums else c
            else:
                for k, c in value.terms.items():
                    if op == "-":
                        c = -c
                    sums[k] = sums[k] + c if k in sums else c
            if self.peek()[0] not in ("+", "-"):
                return self.x0._result(_nonzero(sums)), degree
            op = self.take()[0]

    def poly(self, value):
        """A monomial (c, exps) as a Poly; a Poly as it is."""
        if type(value) is tuple:
            c, k = value
            return self.x0._result({k: _cyclo(c)} if c else {})
        return value

    def term(self):
        value, degree = self.factor()
        while self.peek()[0] == "*":
            pos = self.take()[2]
            rhs, rdeg = self.factor()
            degree = self.bound_degree(degree + rdeg, pos)
            if type(value) is tuple and type(rhs) is tuple:
                value = (value[0] * rhs[0], tuple(map(add, value[1], rhs[1])))
            else:
                value = self.poly(value) * self.poly(rhs)
        return value, degree

    @staticmethod
    def bound_degree(degree, pos):
        if degree > MAX_DEGREE:
            raise ParseError("degree %d exceeds the bound %d"
                             % (degree, MAX_DEGREE), pos)
        return degree

    def factor(self):
        negate = False
        while self.peek()[0] == "-":
            self.take()
            negate = not negate
        value, degree = self.atom()
        if self.peek()[0] == "^":
            self.take()
            kind, k, pos = self.take("num")
            if type(k) is not int:
                raise ParseError("exponent must be a nonnegative integer",
                                 pos)
            if k > MAX_DEGREE:
                raise ParseError("exponent %d exceeds the bound %d"
                                 % (k, MAX_DEGREE), pos)
            degree = self.bound_degree(degree * k, pos)
            value = (value[0] ** k, tuple([e * k for e in value[1]])) \
                if type(value) is tuple else value ** k
        if negate:
            value = (-value[0], value[1]) if type(value) is tuple else -value
        return value, degree

    def field(self, conductor, pos):
        """Widen the text's field to include conductor, within the bound."""
        self.conductor = lcm(self.conductor, conductor)
        if self.conductor > MAX_CONDUCTOR:
            raise ParseError("the text's scalars need conductor %d, past "
                             "the bound %d"
                             % (self.conductor, MAX_CONDUCTOR), pos)

    def atom(self):
        kind, value, pos = self.take()
        if kind == "num":
            return (value, self.origin), 0
        if kind == "(":
            inner = self.expr()
            self.take(")")
            return inner
        if kind != "name":
            raise ParseError("unexpected token", pos)
        if value == "i":
            self.field(4, pos)
            return (Cyclo.i(), self.origin), 0
        if value == "zeta":
            self.take("(")
            nkind, nval, npos = self.take("num")
            if type(nval) is not int or nval < 1:
                raise ParseError("zeta takes a positive integer", npos)
            self.field(nval, npos)
            self.take(")")
            return (Cyclo.zeta(nval), self.origin), 0
        if value == "conj" and self.formula:
            self.take("(")
            nkind, name, npos = self.take("name")
            if name not in self.index:
                raise ParseError("conj takes a coordinate name", npos)
            self.take(")")
            return (1, self.units[len(self.index) + self.index[name]]), 1
        if value not in self.index:
            raise ParseError("unknown name %r" % value, pos)
        return (1, self.units[self.index[value]]), 1


def _cyclo(c):
    """A monomial's coefficient, an int, Fraction or Cyclo, as a Cyclo."""
    return _rational(c, 1) if type(c) is int else as_cyclo(c)


def parse_poly(text):
    """Exact homogeneous polynomial from its textual form."""
    parser = _Parser(text, ("u0", "u1"))
    value = parser.expr()[0]
    parser.end()
    if value.is_zero():
        raise ValueError("zero polynomial")
    degrees = sorted({a + b for (a, b) in value.terms})
    if len(degrees) > 1:
        raise ValueError("non-homogeneous polynomial: degrees {%s}"
                         % ", ".join(map(str, degrees)))
    # at most 3 * limit bits means at most limit digits, as 8 < 10
    limit = sys.get_int_max_str_digits()
    for c in value.terms.values():
        if limit and max(c.den, *map(abs, c.num)).bit_length() > 3 * limit \
                and any(max(abs(q.numerator), q.denominator) >= 10 ** limit
                        for q in c.coeffs):
            raise ValueError("a coefficient has more than %d digits, the "
                             "limit for printing an integer" % limit)
    # the terms are tidy and of one degree: no second tidy loop
    return Poly2._result(value, value.terms)


def parse_formula(text, names):
    """The components of a stored coordinate formula over ``names``.

    Each component is a ``Poly`` in 2 * len(names) variables: the plain
    coordinates, then their conjugates ``conj(name)`` in the same order.
    """
    return _Parser(text, tuple(names), formula=True).components()
