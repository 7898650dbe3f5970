"""Text and JSON forms of the exact scalars and binary forms.

The polynomial grammar accepts terms in u0 and u1 with integer or
rational coefficients, the constants i and zeta(N), the operators
+ - * ^ and parentheses; whitespace is ignored.  Input must be
homogeneous and nonzero.  While parsing, every value is an
``exact.Poly`` in (u0, u1) with no homogeneity constraint; it is
checked once at the very end, so the error can report every term degree
that occurs.  render_poly and render_scalar produce text that
parse_poly maps back to the same object, and scalar_json gives the
stable dictionary form {"conductor": N, "coeffs": [...]} used by the
command-line reports.
"""

from fractions import Fraction

from .exact import Cyclo, Poly, Poly2, as_cyclo


class ParseError(ValueError):
    """Syntax error with the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


_SYMBOLS = "+-*^()"


def _tokenize(text):
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, None, k))
            k += 1
            continue
        if ch.isdigit():
            start = k
            while k < len(text) and text[k].isdigit():
                k += 1
            num = int(text[start:k])
            den = 1
            if k < len(text) and text[k] == "/":
                k += 1
                dstart = k
                while k < len(text) and text[k].isdigit():
                    k += 1
                if dstart == k:
                    raise ParseError("expected digits after '/'", k)
                den = int(text[dstart:k])
                if den == 0:
                    raise ParseError("zero denominator", dstart)
            tokens.append(("num", Fraction(num, den), start))
            continue
        if ch.isalpha():
            start = k
            while k < len(text) and (text[k].isalnum() or text[k] == "_"):
                k += 1
            name = text[start:k]
            if name not in ("u0", "u1", "i", "zeta"):
                raise ParseError("unknown name %r" % name, start)
            tokens.append(("name", name, start))
            continue
        raise ParseError("unexpected character %r" % ch, k)
    tokens.append(("end", None, len(text)))
    return tokens


_U0 = Poly({(1, 0): 1})
_U1 = Poly({(0, 1): 1})


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %r" % kind, tok[2])
        self.k += 1
        return tok

    def expr(self):
        if self.peek()[0] == "-":
            self.take()
            value = -self.term()
        else:
            if self.peek()[0] == "+":
                self.take()
            value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value - rhs if op == "-" else value + rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self):
        if self.peek()[0] == "-":
            self.take()
            return -self.factor()
        value = self.atom()
        if self.peek()[0] == "^":
            self.take()
            kind, num, pos = self.take("num")
            if num.denominator != 1 or num < 0:
                raise ParseError("exponent must be a nonnegative integer",
                                 pos)
            value = value ** int(num)
        return value

    def atom(self):
        kind, value, pos = self.take()
        if kind == "num":
            return Poly({(0, 0): value})
        if kind == "(":
            inner = self.expr()
            self.take(")")
            return inner
        if kind == "name":
            if value == "u0":
                return _U0
            if value == "u1":
                return _U1
            if value == "i":
                return Poly({(0, 0): Cyclo.i()})
            # zeta(N)
            self.take("(")
            nkind, nval, npos = self.take("num")
            if nval.denominator != 1 or nval < 1:
                raise ParseError("zeta takes a positive integer", npos)
            self.take(")")
            return Poly({(0, 0): Cyclo.zeta(int(nval))})
        raise ParseError("unexpected token", pos)


def parse_poly(text):
    """Exact homogeneous polynomial from its textual form."""
    parser = _Parser(_tokenize(text))
    value = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    if value.is_zero():
        raise ValueError("zero polynomial")
    degrees = sorted({a + b for (a, b) in value.terms})
    if len(degrees) > 1:
        raise ValueError("non-homogeneous polynomial: degrees {%s}"
                         % ", ".join(map(str, degrees)))
    return Poly2(degrees[0], value.terms)


def render_scalar(c):
    """Textual form of an exact scalar, parseable by parse_poly."""
    c = as_cyclo(c)
    if c.is_rational():
        return str(c.as_rational())
    if c == Cyclo.i():
        return "i"
    if c == -Cyclo.i():
        return "-i"
    parts = []
    for j, q in enumerate(c.coeffs):
        if not q:
            continue
        if j == 0:
            parts.append(str(q))
            continue
        base = "zeta(%d)" % c.n if j == 1 else "zeta(%d)^%d" % (c.n, j)
        if q == 1:
            parts.append(base)
        elif q == -1:
            parts.append("-" + base)
        else:
            parts.append("%s*%s" % (q, base))
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
        if not mono:
            text = render_scalar(c)
            if " " in text:
                text = "(%s)" % text
        elif c == 1:
            text = mono
        elif c == -1:
            text = "-" + mono
        elif c.is_rational():
            text = "%s*%s" % (c.as_rational(), mono)
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
