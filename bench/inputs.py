"""Seeded inputs for the benchmark workloads.

This module never imports ``realforms``: it has its own integer
arithmetic for binary forms and hard-codes the classical invariant
forms (Klein), and it emits polynomial *text*.  A change to the exact
layer can therefore never change the inputs, and the same seed always
gives the same input list, byte for byte.

Every classification input carries the group that generated it, so an
answer can be checked on any seed: the detected group must contain the
generating group (its order is a multiple), or the input is a two-root
torus form and must be detected as one.
"""

import random
from fractions import Fraction

# ----------------------------------------------------------------------
# binary forms as {(a, b): int}, the coefficient of u0^a * u1^b


def _mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _add(p, q):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _scale(p, s):
    return {k: c * s for k, c in p.items() if c * s}


def _pow(p, k):
    out = {(0, 0): 1}
    for _ in range(k):
        out = _mul(out, p)
    return out


def _linear(p, q):
    """p*u0 + q*u1."""
    return {k: c for k, c in (((1, 0), p), ((0, 1), q)) if c}


def render(p):
    """Text in the syntax of ``realforms.parsing.parse_poly``."""
    pieces = []
    for (a, b) in sorted(p, reverse=True):
        c = p[(a, b)]
        mono = "*".join(
            [v if e == 1 else "%s^%d" % (v, e)
             for v, e in (("u0", a), ("u1", b)) if e])
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = "%d*%s" % (abs(c), mono)
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += " %s %s" % (sign, body)
    return out


def _text_form(text):
    """The classical forms below, written as {(a, b): coefficient}."""
    p = {}
    for term in text.replace("-", "+-").split("+"):
        if not term:
            continue
        coeff, a, b = 1, 0, 0
        for factor in term.split("*"):
            if factor.startswith("-"):
                coeff, factor = -coeff, factor[1:]
            if factor.startswith("u"):
                var, _, exp = factor.partition("^")
                e = int(exp or 1)
                a, b = (a + e, b) if var == "u0" else (a, b + e)
            elif factor:
                coeff *= int(factor)
        p[(a, b)] = p.get((a, b), 0) + coeff
    return p


# Klein's octahedral forms (vertices, face centres, edge midpoints) and
# the icosahedral vertex form, all in the standard coordinates of the
# catalog groups.
KLEIN_T = _text_form("u0^5*u1-u0*u1^5")
KLEIN_W = _text_form("u0^8+14*u0^4*u1^4+u1^8")
KLEIN_CHI = _text_form("u0^12-33*u0^8*u1^4-33*u0^4*u1^8+u1^12")
ICOSAHEDRAL_TEXT = "u0^11*u1+11*u0^6*u1^6-u0*u1^11"

# ----------------------------------------------------------------------
# root multiplicities over Q, for validity filtering


def _udeg(p):
    return len(p) - 1


def _utrim(p):
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _uderiv(p):
    return _utrim([i * p[i] for i in range(1, len(p))] or [Fraction(0)])


def _udivmod(p, q):
    p = list(p)
    dq = len(q) - 1
    if len(p) <= dq:
        return [Fraction(0)], _utrim(p)
    out = [Fraction(0)] * (len(p) - dq)
    for i in range(len(p) - 1 - dq, -1, -1):
        c = p[i + dq] / q[-1]
        out[i] = c
        for j, qc in enumerate(q):
            p[i + j] -= c * qc
    return _utrim(out), _utrim(p[:dq] or [Fraction(0)])


def _ugcd(p, q):
    while any(q):
        p, q = q, _udivmod(p, q)[1]
    return [c / p[-1] for c in p]


def multiplicities(p):
    """Root multiplicities of a binary form on the projective line."""
    a0 = min(a for a, _ in p)
    b0 = min(b for _, b in p)
    mults = [m for m in (a0, b0) if m]
    # p / (u0^a0 u1^b0) at u1 = 1, as a list indexed by the u0 exponent
    top = max(a for a, _ in p) - a0
    u = [Fraction(0)] * (top + 1)
    for (a, _), c in p.items():
        u[a - a0] += c
    # Yun's square-free decomposition
    g = _ugcd(u, _uderiv(u))
    b = _udivmod(u, g)[0]
    c = _udivmod(_uderiv(u), g)[0]
    i = 1
    while _udeg(b) > 0:
        d = [x - y for x, y in _pad(c, _uderiv(b))]
        a = _ugcd(b, _utrim(d))
        mults.extend([i] * _udeg(a))
        b = _udivmod(b, a)[0]
        c = _udivmod(_utrim(d), a)[0]
        i += 1
    return sorted(mults, reverse=True)


def _pad(p, q):
    n = max(len(p), len(q))
    return zip(list(p) + [Fraction(0)] * (n - len(p)),
               list(q) + [Fraction(0)] * (n - len(q)))


def is_valid_fiber(p):
    """Even degree >= 2 and not a square: some root has odd multiplicity."""
    degree = {a + b for a, b in p}
    if len(degree) != 1 or degree.pop() % 2 or not p:
        return False
    return any(m % 2 for m in multiplicities(p))


def _palindromic(p):
    flipped = {(b, a): c for (a, b), c in p.items()}
    return flipped == p or flipped == _scale(p, -1)


# ----------------------------------------------------------------------
# classification inputs


def _nonzero(rng, bound=9):
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _cyclic(rng, l, degree):
    """u0^a u1^b h(u0^l, u1^l), a odd: symmetric under A_l."""
    a, b, m = next((a, b, (degree - a - b) // l)
                   for a in (1, 3, 5) for b in range(0, 6)
                   if degree - a - b >= l and (degree - a - b) % l == 0)
    while True:
        h = {(a + l * k, b + l * (m - k)): _nonzero(rng)
             for k in range(m + 1)}
        if not _palindromic(h) and is_valid_fiber(h):
            return h


def _dihedral(rng, l, degree):
    """(u0 u1)^a h(u0^l, u1^l), h palindromic: symmetric under D_l."""
    a, m = next((a, (degree - 2 * a) // l) for a in (1, 0, 2, 3)
                if degree - 2 * a >= 2 * l and (degree - 2 * a) % l == 0)
    while True:
        half = [_nonzero(rng) for _ in range(m // 2 + 1)]
        coeffs = half + half[:(m + 1) // 2][::-1]
        h = {(a + l * k, a + l * (m - k)): coeffs[k] for k in range(m + 1)}
        if is_valid_fiber(h):
            return h


def _torus(rng, kind, degree):
    c = _nonzero(rng)
    if kind == "GmZ2":
        return {(degree // 2, degree // 2): c}
    # two roots of different odd multiplicity, in general position
    a = rng.choice([k for k in range(1, degree // 2, 2)])
    while True:
        p, q, r, s = (_nonzero(rng, 3) for _ in range(4))
        if p * s - q * r:
            break
    return _scale(_mul(_pow(_linear(p, q), a),
                       _pow(_linear(r, s), degree - a)), c)


# (generating group, degree); the seed draws only the coefficients and
# the order, so every seed has the same mix of groups and degrees.
CYCLIC_DIHEDRAL_SHAPES = (
    ("A2", 4), ("A2", 6), ("A2", 8), ("A2", 12), ("A2", 16), ("A3", 6),
    ("A3", 10), ("A3", 14), ("A4", 6), ("A4", 10), ("A4", 14), ("A5", 8),
    ("A5", 12), ("A6", 8), ("A6", 14), ("A7", 10), ("A8", 12), ("A8", 16),
    ("D2", 6), ("D2", 8), ("D2", 10), ("D2", 16), ("D3", 8), ("D3", 12),
    ("D3", 14), ("D4", 8), ("D4", 10), ("D4", 12), ("D5", 10), ("D5", 12),
    ("D6", 12), ("D6", 14), ("D7", 16), ("D8", 16),
    ("Gm", 8), ("Gm", 10), ("Gm", 12), ("GmZ2", 6), ("GmZ2", 10),
    ("GmZ2", 14),
)

# (generating group, recipe, count); degrees 6 to 14 (degree 16 has only
# squares), plus the icosahedral form of degree 12 as a fixed member.
# The octahedral forms T and W differ between inputs only by a scalar,
# drawn without repetition.
POLYHEDRAL_SHAPES = (
    ("E8", "icosahedral", 1), ("E7", "T", 9), ("E7", "W", 9),
    ("E7", "TW", 1), ("E6", "T2+CHI", 5),
)


def _polyhedral(rng, recipe, count):
    if recipe == "icosahedral":
        return [None] * count
    if recipe == "T2+CHI":
        out = []
        while len(out) < count:
            p = _add(_scale(_mul(KLEIN_T, KLEIN_T), _nonzero(rng)),
                     _scale(KLEIN_CHI, _nonzero(rng)))
            if is_valid_fiber(p) and p not in out:
                out.append(p)
        return out
    base = {"T": KLEIN_T, "W": KLEIN_W, "TW": _mul(KLEIN_T, KLEIN_W)}[recipe]
    scalars = rng.sample([c for c in range(-9, 10) if c], count)
    return [_scale(base, c) for c in scalars]


def _item(group, p):
    text = ICOSAHEDRAL_TEXT if p is None else render(p)
    degree = 12 if p is None else next(a + b for a, b in p)
    return {"id": "", "group": group, "text": text, "degree": degree}


def _shuffled(rng, items):
    rng.shuffle(items)
    for index, item in enumerate(items):
        item["id"] = "%02d" % index
    return items


def qg_cyclic_dihedral(seed):
    rng = random.Random("qg-cyclic-dihedral/%d" % seed)
    items = []
    for group, degree in CYCLIC_DIHEDRAL_SHAPES:
        if group in ("Gm", "GmZ2"):
            p = _torus(rng, group, degree)
        elif group[0] == "A":
            p = _cyclic(rng, int(group[1:]), degree)
        else:
            p = _dihedral(rng, int(group[1:]), degree)
        items.append(_item(group, p))
    return _shuffled(rng, items)


def qg_polyhedral(seed):
    rng = random.Random("qg-polyhedral/%d" % seed)
    items = []
    for group, recipe, count in POLYHEDRAL_SHAPES:
        items.extend(_item(group, p) for p in _polyhedral(rng, recipe, count))
    return _shuffled(rng, items)


def warmup_forms(degrees):
    """Fixed forms without symmetry, one per degree.

    Classifying them closes every catalog group the scan tries at that
    degree, so the timed passes run with a warm catalog.
    """
    out = []
    for degree in sorted(set(degrees)):
        p = {(degree, 0): 1, (degree - 1, 1): 1, (1, degree - 1): 2,
             (0, degree): 3}
        out.append({"id": "warm%d" % degree, "group": "A1",
                    "text": render(p), "degree": degree})
    return out


# ----------------------------------------------------------------------
# cold CLI commands

_NAMED_SPACES = ("P3", "Q3", "Y5", "X12", "Q13", "P(1,1,1,2)",
                 "P(1,1,2,3)", "(P1)^3")
_LINK_FORMS = ("G_1", "H_1", "Z_{1,1,0}", "Z_{0,3,0}", "Q^{1,3}", "U_g",
               "Y_5", "X_12", "S~_1")
_BAD_GROUPS = ("F4", "G2", "B3", "H4", "A0", "D1")
_BAD_FAMILIES = ("Xabc", "Tb", "Kb", "Fab", "Q4", "P(1,2)")
_BAD_POLYS = ("u0^^2 + u1^2", "u0**u1", "u0^2 + * u1^2", "(u0 + u1",
              "u0^2 + u2^2", "u0^2 u1")


def _family_args(rng, kind):
    if kind == "Fabc":
        while True:
            a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(-3, 3)
            # F_a^{0,+-a}, a > 0, is a boundary member outside the
            # classified range: `forms` rejects it
            if not (b == 0 and a == abs(c) != 0):
                return ["--family", "Fabc", "--a", str(a), "--b", str(b),
                        "--c", str(c)]
    if kind == "Uabc":
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        return ["--family", "Uabc", "--a", str(a), "--b", str(b),
                "--c", str(a * rng.randint(0, b) + 2)]
    if kind == "Rmn":
        return ["--family", "Rmn", "--m", str(rng.randint(0, 4)),
                "--n", str(rng.randint(0, 4))]
    if kind == "Qg":
        return ["--family", "Qg", "--n", str(rng.randint(1, 8))]
    low = {"Pb": 0, "Sb": 1, "Vb": 2, "Wb": 2}[kind]
    return ["--family", kind, "--b", str(rng.randint(low, low + 5))]


def _command(kind, args, expect=0, group=None):
    return {"id": "", "kind": kind, "args": args, "expect": expect,
            "group": group}


def cli_cold(seed):
    """A seeded, fixed-shape list of CLI invocations, ~10 % malformed.

    One `forms`, one `h1` and one `classify-qg` command appear twice, so
    the run can check that repeated invocations print byte-identical
    output.
    """
    rng = random.Random("cli-cold/%d" % seed)
    cmds = []
    for name in rng.sample(_NAMED_SPACES, 3):
        cmds.append(_command("forms", ["forms", "--family", name]))
    for kind in ("Fabc", "Pb", "Uabc", "Wb"):
        cmds.append(_command("forms", ["forms"] + _family_args(rng, kind)))
    for name in rng.sample(_LINK_FORMS, 4):
        cmds.append(_command("links", ["links", "--form", name]))
    for b in rng.sample(range(2, 9), 2):
        cmds.append(_command("links", ["links", "--form",
                                       "%s_%d" % (rng.choice("GH"), b)]))
    cmds.append(_command("links", ["links", "--form",
                                   "S~_%d" % rng.choice((3, 5, 7, 9))]))
    for d in rng.sample(range(1, 7), 3):
        cmds.append(_command("torus", ["torus", "--d", str(d)]))
    for kind in ("Fabc", "Pb", "Uabc", "Sb", "Vb", "Wb", "Rmn", "Qg"):
        cmds.append(_command("lattice", ["lattice"] + _family_args(rng, kind)))
    for name in ("A%d" % rng.randint(2, 8), "D%d" % rng.randint(2, 8),
                 "E6", "E7", "E8"):
        cmds.append(_command("h1", ["h1", "--group", name]))
    # degree 6 throughout, so that these ten cost about the same and the
    # tail percentile (rank n - 10) falls inside their block
    for group in ("A2", "A3", "A4", "A5", "D2", "D3", "A2", "A3", "D2", "D3"):
        build = _cyclic if group[0] == "A" else _dihedral
        text = render(build(rng, int(group[1:]), 6))
        cmds.append(_command("classify-qg", ["classify-qg", "--poly", text],
                             group=group))
    cmds.append(_command("classify-qg", ["classify-qg", "--poly",
                                         render(_scale(KLEIN_W,
                                                       _nonzero(rng)))],
                         group="E7"))
    cmds.append(_command("verify", ["verify", "--suite", "all"]))
    # malformed inputs: each must exit with code 2
    odd = {(3, 0): _nonzero(rng), (1, 2): _nonzero(rng), (0, 3): 1}
    square = _pow({(2, 0): _nonzero(rng), (1, 1): _nonzero(rng),
                   (0, 2): _nonzero(rng)}, 2)
    cmds += [
        _command("bad-degree", ["classify-qg", "--poly", render(odd)], 2),
        _command("bad-square", ["classify-qg", "--poly", render(square)], 2),
        _command("bad-group", ["h1", "--group", rng.choice(_BAD_GROUPS)], 2),
        _command("bad-family", ["forms", "--family",
                                rng.choice(_BAD_FAMILIES)], 2),
        _command("bad-parse", ["classify-qg", "--poly",
                               rng.choice(_BAD_POLYS)], 2),
    ]
    rng.shuffle(cmds)
    for kind in ("forms", "h1", "classify-qg"):
        again = rng.choice([c for c in cmds if c["kind"] == kind])
        cmds.insert(rng.randint(0, len(cmds)), dict(again))
    for index, c in enumerate(cmds):
        c["id"] = "%02d" % index
    return cmds


WORKLOADS = {
    "qg-cyclic-dihedral": qg_cyclic_dihedral,
    "qg-polyhedral": qg_polyhedral,
    "cli-cold": cli_cold,
}
