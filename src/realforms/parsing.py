"""Text and JSON forms of the exact scalars, binary forms and formulas.

One grammar, one parser.  An expression is a sum of products of
factors, each with an optional nonnegative integer power ``^k``; a
factor is an integer or rational (``1/2``, no spaces around the
slash), ``i``, ``zeta(N)``, a variable, a parenthesized expression or
a negated factor.  An exponent and the N of ``zeta(N)`` are integer
literals: ``u0^4/2`` and ``zeta(8/2)`` are malformed, like ``u0^1/2``,
whatever the value of the fraction.  Whitespace is ignored.

The lexer reads a monomial (an optional literal, then each plain
variable at most once and in order, each with an optional ``^k``,
joined by ``*`` and not followed by ``^``) as one token, except right
after ``^`` or ``*`` (a unary minus between aside) and in ``zeta(`` or
``conj(``.  It holds (c, exps) and the degree, or the ParseError of the
first bound it passes, raised when the parser reaches it, so errors
keep their order and positions; a term that is one such token goes
straight into its sum.  Any other token is a (c, exps) too (``i`` and
``zeta`` give a Cyclo c), products and powers are ``Poly`` ones, and
each sum merges its terms into one ``exact.Poly``.
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
and parentheses nested deeper than `MAX_NESTING`.  A numeral with more
digits (leading zeros aside) than ``sys.get_int_max_str_digits()``
allows (0 means no limit) is past the exponent or conductor bound by
its length; as a coefficient it is refused in the words of the last
bound: `parse_poly` also refuses a form that no report could print, one
with a coefficient whose numerator or denominator (of a
``Cyclo.coeffs`` Fraction) has more such digits.
A bit-length screen passes ordinary forms without building a Fraction.

render_poly and render_scalar produce text that parse_poly maps back to
the same object, and scalar_json gives the stable dictionary form
{"conductor": N, "coeffs": [...]} used by the command-line reports.
"""

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .exact import Cyclo, Poly, Poly2, _nonzero, _rational, as_cyclo


class ParseError(ValueError):
    """Syntax error with the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


# Largest exponent and total degree of a parsed expression.  Cold best
# of 5 of one ``classify-qg --poly`` run (CPython 3.11.7, shared 2-CPU
# container; past 200 with the bound raised): u0^d+u1^d takes 83-88 ms
# for d from 50 to 520, as at d = 6, u0^199*u1+u0*u1^199 86 ms and
# (u0+u1)^200+u0^200 95 ms.  The E8 test still composes with BETA:
# f^k, f = u0^11*u1+11*u0^6*u1^6-u0*u1^11, takes 3.3 s at degree 180,
# 5.4 s at 204 and 26 s at 300.  At 200 no accepted fiber costs more
# than a few seconds.
MAX_DEGREE = 200

# Largest conductor of the field that the ``zeta(N)`` and ``i`` of one
# text generate (the lcm of the N, with 4 for i): mixing conductors
# multiplies in their lcm.  Parsing no longer needs it: in the same
# setting (u0+zeta(N)*u1)^200+u0^200 parses in 3-5 ms for N up to 251
# and 15 ms at 1021, and cold ``classify-qg`` of zeta(N)*u0^4+u1^4
# (refused as not real) takes 87 ms at 1021 and 175 ms at 100003.  It
# keeps the fields of a classification, where a product convolves
# phi(N) slots, near the tested ones (conductor 60 in the benchmark,
# 77 in the golden corpus).
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
_DIGITS = ("a coefficient has more than %d digits, the limit for printing "
           "an integer")


@lru_cache(maxsize=None)
def _lexer(names):
    """`_TOKEN` behind one more alternative: a monomial over ``names``.

    Group 1 is the literal, 2k + 2 name k and 2k + 3 its exponent; a
    part after another follows a ``*``.  No number in it has a leading
    zero or is followed by ``/``, an exponent has at most three digits,
    and the monomial is not followed by ``^``: such a text lexes as
    separate tokens instead.
    """
    def given(yes, no):  # yes if a group of ``before`` has matched
        for group in reversed(before):
            no = "(?(%d)%s|%s)" % (group, yes, no)
        return no

    number = "(?:0|[1-9][0-9]%s)"
    before, parts = [1], [r"(?:(%s(?:/[1-9][0-9]*)?)(?![0-9/]))?"
                          % (number % "*")]
    for k, name in enumerate(names):
        word = "(?!)" if name in ("i", "zeta", "conj") else re.escape(name)
        parts.append(r"(?:%s(%s)(?![A-Za-z0-9_])(?:\s*\^\s*(%s)(?![0-9/]))?)?"
                     % (given(r"\s*\*\s*", ""), word, number % "{0,2}"))
        before.append(2 * k + 2)
    parts.append(given("", "(?!)") + r"(?!\s*\^)|" + _TOKEN.pattern)
    return re.compile("".join(parts))


def _number(digits):
    """The integer that ``digits`` write, or them as text past the limit."""
    digits = digits.lstrip("0") or "0"
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return digits


def _monomial(match, origin, count):
    """A "mono" token: its (c, exps) and degree, or the ParseError of the
    first bound that it passes, which the parser raises when it reads it."""
    groups, exps, degree, text = match.groups(), list(origin), 0, match.string
    try:
        c = Fraction(groups[0]) if "/" in (groups[0] or "") \
            else int(groups[0] or 1)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return "mono", ParseError(_DIGITS % sys.get_int_max_str_digits(),
                                  match.start()), match.start()
    for k in range(count):
        if groups[2 * k + 1]:
            e = exps[k] = int(groups[2 * k + 2] or 1)
            degree += e
            if degree > MAX_DEGREE:  # at its exponent, or at the * before
                what, value, at = ("exponent", e, match.start(2 * k + 3)) \
                    if e > MAX_DEGREE else ("degree", degree, text.rindex(
                        "*", 0, match.start(2 * k + 2)))
                return "mono", ParseError("%s %d exceeds the bound %d" % (
                    what, value, MAX_DEGREE), at), match.start()
    return "mono", ((c, tuple(exps)), degree), match.start()


def _tokenize(text, names, origin):
    """The (kind, value, position) tokens of ``text``: a monomial over the
    plain ``names`` is one, but not right after ``*`` or ``^`` (unary
    ``-`` between them aside) or in ``zeta(`` or ``conj(``."""
    lexer, width = _lexer(names), 2 * len(names) + 1
    tokens, depth, pos, monomial = [], 0, 0, True
    while True:
        match = (lexer if monomial else _TOKEN).search(text, pos)
        if match is None:
            break
        pos = match.end()
        if monomial and match.lastindex <= width:
            tokens.append(_monomial(match, origin, len(names)))
            continue
        digits, fraction, name, other = match.groups()[-4:]
        start = match.start()
        if digits:
            monomial = True
            value = _number(digits)
            if fraction is not None:
                if len(fraction) == 1:
                    raise ParseError("expected digits after '/'", pos)
                den = _number(fraction[1:])
                if den == 0:
                    raise ParseError("zero denominator",
                                     pos - len(fraction) + 1)
                value = match.group() if str in (type(value), type(den)) \
                    else Fraction(value, den)
            tokens.append(("num", value, start))
        elif name:
            monomial = name not in ("zeta", "conj")
            tokens.append(("name", name, start))
        elif other in _SYMBOLS:
            if other == "(":
                depth += 1
                if depth > MAX_NESTING:
                    raise ParseError("parentheses nested deeper than %d"
                                     % MAX_NESTING, start)
            elif other == ")":
                depth -= 1
            if other not in "(-":  # these two keep the rule before them
                monomial = other not in "*^"
            tokens.append((other, None, start))
        else:
            raise ParseError("unexpected character %r" % other, start)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens of ``text``.

    ``names`` are the plain variables; only a ``formula`` may also use
    ``conj(name)``, and only `components` reads brackets, ``:`` and ``;``.
    """

    def __init__(self, text, names, formula=False):
        self.k = 0
        self.index = {name: k for k, name in enumerate(names)}
        self.formula = formula
        # x_0 makes each sum a Poly by `_result`; x_k's exponents are units
        variables = Poly.variables(len(names) * (2 if formula else 1))
        self.x0 = variables[0]
        self.units = [next(iter(x.terms)) for x in variables]
        self.origin = (0,) * len(variables)
        self.conductor = 1
        self.tokens = _tokenize(text, names, self.origin)

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
        sums, degree, tokens = {}, 0, self.tokens
        while True:
            # a monomial token that is the whole term needs no descent
            if tokens[self.k][0] == "mono" and tokens[self.k + 1][0] != "*":
                value, rdeg = self.atom()
            else:
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
            if type(k) is str and "/" not in k or type(k) is int \
                    and k > MAX_DEGREE:  # text: more digits than int() takes
                raise ParseError("exponent %s exceeds the bound %d"
                                 % (k, MAX_DEGREE), pos)
            if type(k) is not int:
                raise ParseError("exponent must be a nonnegative integer",
                                 pos)
            degree = self.bound_degree(degree * k, pos)
            value = self.poly(value) ** k
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
        if kind == "mono":
            if type(value) is ParseError:
                raise value
            return value
        if kind == "num":
            if type(value) is str:
                raise ParseError(_DIGITS % sys.get_int_max_str_digits(), pos)
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
            if type(nval) is str and "/" not in nval:
                raise ParseError("the text's scalars need a conductor of at "
                                 "least %d digits, past the bound %d"
                                 % (len(nval), MAX_CONDUCTOR), npos)
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
            raise ValueError(_DIGITS % limit)
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
