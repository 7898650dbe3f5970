"""Text and JSON forms of the exact scalars, binary forms and formulas.

One grammar, one parser.  An expression is a sum of products of
factors, each with an optional nonnegative integer power ``^k``; a
factor is an integer or rational (``1/2``, no spaces around the
slash), ``i``, ``zeta(N)``, a variable, a parenthesized expression or
a negated factor.  An exponent and the N of ``zeta(N)`` are integer
literals: ``u0^4/2`` and ``zeta(8/2)`` are malformed, like ``u0^1/2``,
whatever the value of the fraction.  Whitespace is ignored.  While it is
parsed, a monomial is a coefficient (an int or Fraction until ``i`` or
``zeta`` enters it) and an exponent tuple; each sum merges its terms into
one ``exact.Poly``, and a monomial times such a sum is a ``Poly`` product.
`parse_poly` reads a binary form in u0 and u1 and rejects ``conj``,
brackets, ``:`` and ``;``; the form must be homogeneous and nonzero,
checked once at the end so that the error can list every term degree.
`parse_formula` reads a stored coordinate formula: component expressions
separated by ``:`` or ``;``, optionally in one pair of brackets, where
``conj(name)`` is one more variable, numbered after the plain ones
(``certificates`` checks the shapes).

Huge input fails fast: the parser refuses, before evaluating it, a
``^`` exponent past `MAX_DEGREE`, a product or power whose total degree
would pass it, and a ``zeta(N)`` whose field, together with the other
``zeta`` and ``i`` of the text, has conductor past `MAX_CONDUCTOR`,
and parentheses nested deeper than `MAX_NESTING`.  `parse_poly` also
refuses a form that no report could print: one with a coefficient whose
numerator or denominator (of a ``Cyclo.coeffs`` Fraction) has more
digits than ``sys.get_int_max_str_digits()`` allows (0 means no limit).
A bit-length screen passes ordinary forms without building a Fraction.

render_poly and render_scalar produce text that parse_poly maps back to
the same object, and scalar_json gives the stable dictionary form
{"conductor": N, "coeffs": [...]} used by the command-line reports.
"""

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .exact import Cyclo, Poly, Poly2, _nonzero, _rational, as_cyclo


class ParseError(ValueError):
    """Syntax error with the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


# Largest exponent and total degree of a parsed expression.  Cold medians
# of one ``classify-qg --poly`` run (CPython 3.11.7, shared 2-CPU
# container): u0^d+u1^d takes 0.16 s at d = 50, 0.29 s at 100, 0.67 s at
# 200, 1.28 s at 256, 2.66 s at 300 and 19-21 s at 520;
# u0^199*u1+u0*u1^199 takes 1.08 s and (u0+u1)^200+u0^200 0.57 s.  At
# 200 no accepted fiber costs much more than a second.
MAX_DEGREE = 200

# Largest conductor of the field that the ``zeta(N)`` and ``i`` of one
# text generate (the lcm of the N, with 4 for i): mixing conductors
# multiplies in their lcm.  In-process parse times of
# (u0+zeta(N)*u1)^200+u0^200: 0.69 s at N = 60, 0.77 s at 127, 1.42 s
# at 251, 2.89 s at 509 and 3.78 s at 1021; cold ``classify-qg`` of
# zeta(N)*u0^4+u1^4 takes 0.24 s at 1021, 7.2 s at 10007 and more than
# 30 s at 100003.  At 256 the worst parse stays near the degree bound's.
MAX_CONDUCTOR = 256

# Deepest nesting of parentheses, checked while tokenizing.  The parser
# recurses through four frames a level (atom, expr, term, factor), and
# the innermost ``^`` may add about 315 more: the multinomial
# `Poly.__pow__` recurses once per base term, and at most that many
# terms fit under `exact._MULTINOMIAL_TERMS` for an exponent of 2.  At
# 100 levels, about 400 frames, the worst text stays well inside
# CPython's default recursion limit of 1000 under a test runner; no
# stored or tested text nests deeper than 2.
MAX_NESTING = 100

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


def _ratio(p, q):
    """The rational p / q (q > 0) as ``str(Fraction(p, q))`` writes it."""
    g = gcd(p, q)
    return "%d" % (p // g) if g == q else "%d/%d" % (p // g, q // g)


def render_scalar(c):
    """Textual form of an exact scalar, parseable by parse_poly."""
    c = as_cyclo(c)
    if c.is_rational():
        return _ratio(c.num[0], c.den)
    if c.n == 4 and c.den == 1 and not c.num[0] and abs(c.num[1]) == 1:
        return "i" if c.num[1] == 1 else "-i"
    parts = []
    for j, v in enumerate(c.num):
        if not v:
            continue
        if j == 0:
            parts.append(_ratio(v, c.den))
            continue
        base = "zeta(%d)" % c.n if j == 1 else "zeta(%d)^%d" % (c.n, j)
        if v == c.den:
            parts.append(base)
        elif v == -c.den:
            parts.append("-" + base)
        else:
            parts.append("%s*%s" % (_ratio(v, c.den), base))
    return " + ".join(parts)


def _monomial_text(a, b):
    bits = []
    if a:
        bits.append("u0" if a == 1 else "u0^%d" % a)
    if b:
        bits.append("u1" if b == 1 else "u1^%d" % b)
    return "*".join(bits)


def render_poly(p):
    """Textual form of a binary form, parseable by parse_poly."""
    if p.is_zero():
        return "0"
    pieces = []
    for (a, b) in sorted(p.terms, reverse=True):
        c = p.terms[(a, b)]
        mono = _monomial_text(a, b)
        if c.n == 1:  # a Cyclo is in lowest terms: print its slots
            text = "%d" % c.num[0] if c.den == 1 \
                else "%d/%d" % (c.num[0], c.den)
            if mono:
                text = mono if text == "1" else "-" + mono \
                    if text == "-1" else text + "*" + mono
        elif not mono:
            text = render_scalar(c)
            if " " in text:
                text = "(%s)" % text
        else:
            text = "(%s)*%s" % (render_scalar(c), mono)
        pieces.append(text)
    out = pieces[0]
    for text in pieces[1:]:
        if text.startswith("-"):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out


def scalar_json(c):
    """Stable dictionary form of an exact scalar."""
    c = as_cyclo(c)
    return {"conductor": c.n, "coeffs": [str(q) for q in c.coeffs]}


def matrix_json(m):
    """Stable dictionary form of an exact 2x2 matrix."""
    return {"entries": [[scalar_json(m.a), scalar_json(m.b)],
                        [scalar_json(m.c), scalar_json(m.d)]]}
