"""Registry of real forms and equivariant links: the curated lookups.

The classification of real forms of the ambient threefold families is a
finite amount of curated data: for each family, the list of forms with
their rationality status, real-point status, connected symmetry group,
and — whenever the form is cut out on a toric or multihomogeneous
ambient — an explicit antiholomorphic coordinate formula.  The data
lives in a versioned JSON file whose checksum is verified at load time;
this module instantiates it per parameter value:

* `forms_of` and `links_from` list the forms of a family member or
  named space and the equivariant links out of a named form;
* the real torus helpers enumerate the forms of a torus of given
  dimension and classify an integral Galois involution on the character
  lattice into its split, circle, and restriction-of-scalars parts;
* `validate_descriptor` and `validate_all` run every exact check that a
  descriptor or a stored link witness carries.

The checks themselves (the ambient coordinate rings, the coordinate
maps as tuples of ``exact.Poly``, `verify_involution`, `verify_witness`,
`signature`) live in `certificates`, and the stored formulas are read by
the one parser, `parsing.parse_formula`; the involutions are classified
by the integer kernel of `lattices`.  This module reaches
`certificates` and `lattices` only through qualified names on their
lazy stubs, so a lookup executes none of them.
"""

import json
import re
from functools import cache
from hashlib import sha256
from importlib import resources

from . import certificates, lattices, schwarzenberger
from .errors import VerificationError, as_int

__all__ = [
    "FormDescriptor",
    "LinkDescriptor",
    "MAX_TORUS_DIMENSION",
    "TorusShape",
    "VerificationError",
    "torus_forms",
    "torus_shape_of_involution",
    "registry_version",
    "forms_of",
    "links_from",
    "validate_descriptor",
    "validate_all",
]

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


# ----------------------------------------------------------------------
# real tori


class TorusShape(tuple):
    """Isomorphism class of a real torus: restriction-of-scalars pairs,
    circle factors, and split factors."""

    def __new__(cls, p, q, r):
        p, q, r = (as_int(v, "torus shape entries") for v in (p, q, r))
        if min(p, q, r) < 0:
            raise ValueError("torus shape entries must be >= 0")
        return super().__new__(cls, (p, q, r))

    @property
    def p(self):
        return self[0]

    @property
    def q(self):
        return self[1]

    @property
    def r(self):
        return self[2]

    @property
    def dimension(self):
        return 2 * self[0] + self[1] + self[2]

    @property
    def label(self):
        parts = []
        if self[0]:
            parts.append("Weil(Gm(C))^%d" % self[0])
        if self[1]:
            parts.append("S1^%d" % self[1])
        if self[2]:
            parts.append("Gm(R)^%d" % self[2])
        return " x ".join(parts) if parts else "1"

    def __repr__(self):
        return "TorusShape(p=%d, q=%d, r=%d)" % self


# The forms of a d-dimensional torus number about d^2 / 4.  At the bound,
# 2,601 shapes print as 0.28 MB of JSON in about 35 ms on top of a cold
# start of 0.13 s; at d = 1000 that is 28 MB and 4 s.
MAX_TORUS_DIMENSION = 100


def torus_forms(dimension):
    """All real forms of a torus of the given dimension, which is at
    most `MAX_TORUS_DIMENSION`."""
    if not 0 <= dimension <= MAX_TORUS_DIMENSION:
        raise ValueError("dimension must be between 0 and %d"
                         % MAX_TORUS_DIMENSION)
    shapes = []
    for p in range(dimension // 2, -1, -1):
        for q in range(dimension - 2 * p, -1, -1):
            shapes.append(TorusShape(p, q, dimension - 2 * p - q))
    return shapes


def torus_shape_of_involution(matrix):
    """Classify an integral Galois involution on a character lattice.

    The lattice splits into swapped pairs (restriction of scalars),
    anti-fixed lines (circle factors), and fixed lines (split factors).
    The counts are read off the diagonal forms D = U (M -/+ I) V of
    `lattices.diagonalize`: d minus the number of nonzero entries is the
    rank of the fixed and of the anti-fixed sublattice, and the odd
    entries of D(M - I) count the pairs (its rank over GF(2), since U
    and V stay invertible mod 2).
    """
    rows = [[as_int(v, "matrix entries") for v in row] for row in matrix]
    d = len(rows)
    for row in rows:
        if len(row) != d:
            raise ValueError("matrix must be square")
    square = [[sum(rows[i][k] * rows[k][j] for k in range(d))
               for j in range(d)] for i in range(d)]
    if square != [[int(i == j) for j in range(d)] for i in range(d)]:
        raise ValueError("matrix must be an involution")

    def diagonal(sign):
        form, _, _ = lattices.diagonalize(
            [[v + sign * (i == j) for j, v in enumerate(row)]
             for i, row in enumerate(rows)])
        return [form[k][k] for k in range(d)]

    minus, plus = diagonal(-1), diagonal(1)
    pairs = sum(v % 2 for v in minus)
    fixed = d - sum(1 for v in minus if v)
    anti = d - sum(1 for v in plus if v)
    shape = TorusShape(pairs, anti - pairs, fixed - pairs)
    if shape.dimension != d:
        raise VerificationError("involution does not decompose; this "
                                "should be impossible for M^2 = I")
    return shape


# ----------------------------------------------------------------------
# descriptors


class FormDescriptor:
    """One real form: statuses, symmetry label, and checkable witness."""

    __slots__ = ("name", "family", "has_real_points", "rational", "aut0",
                 "real_structure", "ambient", "certificate", "notes",
                 "entry", "params")

    def __init__(self, name, family, has_real_points, rational, aut0=None,
                 real_structure=None, ambient=None, certificate=None,
                 notes=None, entry=None, params=None):
        for status in (has_real_points, rational):
            if status not in (YES, NO, UNKNOWN):
                raise ValueError("statuses must be yes/no/unknown")
        self.name = name
        self.family = family
        self.has_real_points = has_real_points
        self.rational = rational
        self.aut0 = aut0
        self.real_structure = real_structure
        self.ambient = ambient
        self.certificate = certificate
        self.notes = notes
        self.entry = entry
        self.params = dict(params or {})

    def as_dict(self):
        ambient = None
        if self.ambient is not None:
            ambient = {"kind": self.ambient[0],
                       "params": list(self.ambient[1])}
        return {
            "name": self.name,
            "family": self.family,
            "has_real_points": self.has_real_points,
            "rational": self.rational,
            "aut0": self.aut0,
            "real_structure": self.real_structure,
            "ambient": ambient,
            "notes": self.notes,
        }

    def __repr__(self):
        return "FormDescriptor(%s)" % self.name


class LinkDescriptor:
    """One equivariant birational link out of a real form."""

    __slots__ = ("source", "link_type", "target", "witness", "notes")

    def __init__(self, source, link_type, target, witness=None, notes=None):
        if link_type not in ("I", "II", "III", "IV", "divisorial"):
            raise ValueError("unknown link type %r" % (link_type,))
        self.source = source
        self.link_type = link_type
        self.target = target
        self.witness = witness
        self.notes = notes

    def as_dict(self):
        return {
            "source": self.source,
            "type": self.link_type,
            "target": self.target,
            "witness": dict(self.witness) if self.witness else None,
            "notes": self.notes,
        }

    def __repr__(self):
        return "LinkDescriptor(%s -> %s, type %s)" % (
            self.source, self.target, self.link_type)


# ----------------------------------------------------------------------
# the data file


@cache
def _load():
    text = (resources.files("realforms") / "data" / "registry.json") \
        .read_text(encoding="utf-8")
    data = json.loads(text)
    canonical = json.dumps(data["entries"], sort_keys=True,
                           separators=(",", ":"))
    digest = sha256(canonical.encode("utf-8")).hexdigest()
    if digest != data["checksum"]:
        raise VerificationError(
            "registry data file failed its integrity checksum")
    return data


def registry_version():
    return _load()["version"]


def _entry(entry_id):
    forms = _load()["entries"]["forms"]
    if entry_id not in forms:
        raise KeyError("registry entry %r is missing" % entry_id)
    return forms[entry_id]


def _make(entry_id, name, family, ambient=None, params=None,
          statuses=None, aut0=None, notes=None):
    record = _entry(entry_id)
    stored = dict(record["statuses"])
    if statuses:
        stored.update(statuses)
    return FormDescriptor(
        name=name,
        family=family,
        has_real_points=stored["has_real_points"],
        rational=stored["rational"],
        aut0=aut0 if aut0 is not None else record.get("aut0"),
        real_structure=record.get("structure"),
        ambient=ambient,
        certificate=record.get("certificate"),
        notes=notes if notes is not None else record.get("notes"),
        entry=entry_id,
        params=params,
    )


# ----------------------------------------------------------------------
# forms


_Z_ORDER = ("z_030", "z_110", "z_021", "z_101", "z_012", "z_003")
_Z_NAMES = {
    "z_030": "Z_{0,3,0}",
    "z_110": "Z_{1,1,0}",
    "z_021": "Z_{0,2,1}",
    "z_101": "Z_{1,0,1}",
    "z_012": "Z_{0,1,2}",
    "z_003": "Z_{0,0,3}",
}

_NAMED_TARGETS = {
    "P3": "p3", "P^3": "p3",
    "Q3": "q3", "Q^3": "q3",
    "P(1,1,1,2)": "wps1112",
    "P(1,1,2,3)": "wps1123",
    "Y5": "y5", "Y_5": "y5",
    "X12": "x12", "X_12": "x12",
    "Q13": "q13", "Q^{1,3}": "q13",
    "(P1)^3": "p1cube", "(P1R)^3": "p1cube",
}


def _trivial_aut0(label):
    return "Aut0(%s)(R)" % label


def _forms_fabc(family):
    a, b, c = family.params
    label = family.label
    if (a, b, c) == (0, 0, 0):
        return [_make(key, _Z_NAMES[key], label, ambient=("p1cube", ()))
                for key in _Z_ORDER]
    if a == 0 and b == abs(c):
        ambient = ("fabc", (0, b, c))
        trivial = _make("fabc_trivial", label, label, ambient=ambient,
                        aut0=_trivial_aut0(label))
        if c < 0:
            return [trivial,
                    _make("gb", "G_%d" % b, label, ambient=ambient,
                          params={"b": b})]
        circle_aut0 = ("extension of Weil(PGL2(C)) x S^1 by Ga^%d"
                       % ((b + 1) ** 2))
        return [trivial,
                _make("hb", "H_%d" % b, label, ambient=ambient,
                      params={"b": b}, aut0=circle_aut0),
                _make("hb_empty", "H'_%d" % b, label, ambient=ambient,
                      params={"b": b})]
    if a == 0:
        return [_make("fabc_trivial", label, label,
                      ambient=("fabc", (a, b, c)),
                      aut0=_trivial_aut0(label),
                      notes="no nontrivial real form has a real point")]
    if b == 0 and a == abs(c):
        raise ValueError(
            "the exchange-symmetric boundary member %s is outside the "
            "classified range" % label)
    ambient = ("fabc", (a, b, c))
    forms = [_make("fabc_trivial", label, label, ambient=ambient,
                   aut0=_trivial_aut0(label),
                   notes="no nontrivial real form has a real point")]
    if a % 2 == 0 and c % 2 == 0:
        forms.append(_make("fabc_conj_twist", "F~_%d^{%d,%d}" % (a, b, c),
                           label, ambient=ambient))
    return forms


def _forms_pb(family):
    (b,) = family.params
    label = family.label
    if b == 0:
        return [
            _make("pb_trivial", "P^1 x P^2", label, ambient=("pb", (0,)),
                  aut0="PGL2(R) x PGL3(R)"),
            _make("p2_x_conic", "P^2 x C", label, ambient=("pb", (0,))),
        ]
    return [_make("pb_trivial", label, label, ambient=("pb", (b,)),
                  aut0=_trivial_aut0(label),
                  notes="the trivial form is the only real form")]


def _forms_sb(family):
    (b,) = family.params
    if b == 1:
        return [
            _make("s1_trivial", "S_1", "S_1", ambient=("flag", ())),
            _make("s1_tilde", "S~_1", "S_1", ambient=("flag", ())),
            _make("s1_hat", "S^_1", "S_1", ambient=("flag", ())),
        ]
    label = family.label
    twisted_status = {
        "has_real_points": YES if b % 2 else NO,
        "rational": YES if b % 2 else NO,
    }
    return [
        _make("sb_trivial", label, label),
        _make("sb_tilde", "S~_%d" % b, label, statuses=twisted_status,
              params={"b": b}),
    ]


def _forms_rmn(family):
    m, n = family.params
    label = family.label
    forms = [_make("rmn_trivial", label, label, ambient=("rmn", (m, n)),
                   aut0=_trivial_aut0(label),
                   notes="the trivial form is the only real form with a "
                         "real point")]
    if m % 2 == 0 and n % 2 == 0:
        forms.append(_make("rmn_conj_twist", "R~_(%d,%d)" % (m, n), label,
                           ambient=("rmn", (m, n))))
    else:
        forms[0] = _make("rmn_trivial", label, label,
                         ambient=("rmn", (m, n)),
                         aut0=_trivial_aut0(label),
                         notes="the trivial form is the only real form")
    return forms


def _forms_named(key):
    if key == "p1cube":
        return _forms_fabc(lattices.FamilyId("Fabc", (0, 0, 0)))
    if key == "p3":
        return [_make("p3_trivial", "P^3", "P^3", ambient=("p3", ()))]
    if key == "q3":
        return [
            _make("q3_32", "Q^{3,2}", "Q^3"),
            _make("q3_41", "Q^{4,1}", "Q^3"),
            _make("q3_50", "Q^{5,0}", "Q^3"),
        ]
    if key == "wps1112":
        return [_make("wps1112_trivial", "P(1,1,1,2)", "P(1,1,1,2)",
                      ambient=("wps", (1, 1, 1, 2)))]
    if key == "wps1123":
        return [_make("wps1123_trivial", "P(1,1,2,3)", "P(1,1,2,3)",
                      ambient=("wps", (1, 1, 2, 3)))]
    if key == "y5":
        return [
            _make("y5_trivial", "Y_5", "Y_5"),
            _make("y5_tilde", "Y~_5", "Y_5"),
        ]
    if key == "x12":
        return [
            _make("x12_trivial", "X_12", "X_12"),
            _make("x12_tilde", "X~_12", "X_12"),
        ]
    if key == "q13":
        return [_make("q13", "Q^{1,3}", "Q^{1,3}")]
    raise ValueError("unknown named space %r" % key)


def forms_of(target):
    """The classified real forms of a family member or named threefold.

    Accepts a `FamilyId` or a name such as ``"Q3"``, ``"P(1,1,1,2)"``,
    ``"Y_5"`` or ``"(P1)^3"``.  Quadric fibrations are refused here:
    their forms depend on the fiber polynomial and are produced by the
    quadric-fibration enumerator instead.
    """
    if isinstance(target, str):
        if target in _NAMED_TARGETS:
            return _forms_named(_NAMED_TARGETS[target])
        raise ValueError("unknown named space %r" % target)
    if not isinstance(target, lattices.FamilyId):
        raise TypeError("expected a FamilyId or a name")
    kind = target.kind
    if kind == "Fabc":
        return _forms_fabc(target)
    if kind == "Pb":
        return _forms_pb(target)
    if kind == "Sb":
        return _forms_sb(target)
    if kind == "Rmn":
        return _forms_rmn(target)
    if kind == "Uabc":
        label = target.label
        return [_make("uabc_trivial", label, label,
                      aut0=_trivial_aut0(label))]
    if kind == "Vb":
        label = target.label
        return [_make("vb_trivial", label, label,
                      aut0=_trivial_aut0(label))]
    if kind == "Wb":
        label = target.label
        return [_make("wb_trivial", label, label,
                      ambient=("wb", target.params),
                      aut0=_trivial_aut0(label))]
    raise ValueError(
        "real forms of a quadric fibration depend on the fiber "
        "polynomial; use the quadric-fibration enumerator")


# ----------------------------------------------------------------------
# links


def _instantiate_links(key, source):
    stored = _load()["entries"]["links"][key]
    links = []
    for item in stored:
        target = source if item["target"] == "self" else item["target"]
        links.append(LinkDescriptor(source, item["type"], target,
                                    witness=item.get("witness"),
                                    notes=item.get("notes")))
    return links


_NO_LINK_FORMS = {"S~_1", "Q^{3,2}", "Q^{4,1}",
                  "Y_5", "Y~_5", "X_12", "X~_12"}


def links_from(form_name):
    """The equivariant Sarkisov links out of a named real form.

    Returns the classified list (possibly empty, meaning the form
    admits no nontrivial equivariant link); raises a domain error for
    forms outside the link classification, such as twists without real
    points.
    """
    name = form_name.strip()
    if name in _NO_LINK_FORMS:
        return []
    if name in ("Z_{1,1,0}", "Z_{0,3,0}"):
        return _instantiate_links(name, name)
    if name == "Q^{1,3}":
        return _instantiate_links("Q^{1,3}", name)
    if name == "U_g":
        return _instantiate_links("U_g", name)
    match = re.fullmatch(r"([GH])_([0-9]+)", name)
    if match:
        b = int(match.group(2))
        if b == 0:
            raise ValueError("the parameter-zero member is the triple "
                             "product of lines; use its Z-form names")
        if b == 1:
            return _instantiate_links(match.group(1) + "_1", name)
        return []
    match = re.fullmatch(r"S~_([0-9]+)", name)
    if match:
        b = int(match.group(1))
        if b % 2 == 0:
            raise ValueError(
                "the twisted form with even parameter has empty real "
                "locus and is outside the equivariant link classification")
        return [] if b == 1 else _instantiate_links("S~_b_odd", name)
    match = re.fullmatch(r"Z_\{([0-9]+),([0-9]+),([0-9]+)\}", name)
    if match:
        raise ValueError(
            "forms of the triple product without real points are outside "
            "the equivariant link classification")
    raise ValueError("unknown form name %r" % form_name)


# ----------------------------------------------------------------------
# validation


def _points_of_quadform(sig):
    positive, negative, radical = sig
    return YES if (positive and negative) or radical else NO


def validate_descriptor(descriptor):
    """Run every machine check a descriptor carries; raise on failure."""
    checks = []
    if descriptor.rational == YES and descriptor.has_real_points != YES:
        raise VerificationError(
            "%s is marked rational but not marked with real points"
            % descriptor.name)
    checks.append("status-consistency")
    if descriptor.real_structure and descriptor.ambient:
        ambient = certificates.build_ambient(descriptor.ambient)
        structure = certificates.parse_structure(descriptor.real_structure,
                                                 ambient)
        certificates.verify_involution(structure)
        checks.append("involution")
    record = _entry(descriptor.entry) if descriptor.entry else {}
    quadform = record.get("quadform")
    if quadform:
        sig = certificates.signature(quadform)
        if sig != tuple(record["claimed_signature"]):
            raise VerificationError(
                "%s: stored quadratic form has signature %r, claimed %r"
                % (descriptor.name, sig, record["claimed_signature"]))
        expected = _points_of_quadform(sig)
        if descriptor.has_real_points != expected:
            raise VerificationError(
                "%s: real-point status %r contradicts the quadratic form"
                % (descriptor.name, descriptor.has_real_points))
        if descriptor.rational != expected:
            raise VerificationError(
                "%s: rationality status %r contradicts the quadratic form"
                % (descriptor.name, descriptor.rational))
        checks.append("quadratic-form")
    certificate = descriptor.certificate
    if certificate and certificate.get("kind") == "conic_cover_gluing":
        b = descriptor.params["b"]
        sign = schwarzenberger.verify_gluing(b)["sign"]
        if (descriptor.rational == YES) != (sign == 1):
            raise VerificationError(
                "%s: rationality contradicts the gluing sign" %
                descriptor.name)
        if (descriptor.has_real_points == NO) != (sign == -1):
            raise VerificationError(
                "%s: real-point status contradicts the gluing sign"
                % descriptor.name)
        checks.append("gluing-sign")
    return {"name": descriptor.name, "checks": checks}


# the family members the sweep visits: family kind, parameters
_VALIDATION_SWEEP = (
    ("Fabc", (0, 0, 0), (0, 2, 1), (0, 3, 3), (0, 2, -2), (0, 4, -4),
     (0, 5, 5), (2, 1, 1), (2, 2, 2), (2, 3, 4), (3, 2, 2), (4, 2, -2)),
    ("Pb", (0,), (1,), (3,)),
    ("Uabc", (1, 3, 2), (2, 2, 4)),
    ("Sb", *((b,) for b in range(1, 8))),
    ("Vb", (3,)),
    ("Wb", (2,), (5,)),
    ("Rmn", (0, 0), (2, 2), (2, 1), (3, 1), (4, 2)),
)

_NAMED_SWEEP = ("P^3", "Q3", "P(1,1,1,2)", "P(1,1,2,3)",
                "Y_5", "X_12", "Q^{1,3}")


def validate_all():
    """Validate every reachable descriptor and stored witness."""
    report = []
    for kind, *members in _VALIDATION_SWEEP:
        for params in members:
            family = lattices.FamilyId(kind, params)
            for descriptor in forms_of(family):
                report.append(validate_descriptor(descriptor))
    for name in _NAMED_SWEEP:
        for descriptor in forms_of(name):
            report.append(validate_descriptor(descriptor))
    for source in ("G_1", "H_1"):
        for link in links_from(source):
            if link.witness:
                verdict = certificates.verify_witness(link)
                report.append({"name": "link %s -> %s" % (source,
                                                          link.target),
                               "checks": [verdict["kind"]]})
    for link in links_from("U_g"):
        verdict = certificates.verify_witness(link, q="u0^4+u1^4",
                                              h="u0^2+u1^2")
        report.append({"name": "link U_g -> U_{g h^2}",
                       "checks": [verdict["kind"]]})
    expected_counts = {1: 2, 2: 4, 3: 6, 4: 9}
    for dimension, count in expected_counts.items():
        shapes = torus_forms(dimension)
        if len(shapes) != count:
            raise VerificationError("torus form count for dimension %d is "
                                    "%d, expected %d"
                                    % (dimension, len(shapes), count))
    report.append({"name": "torus-form counts", "checks": ["enumeration"]})
    samples = (
        (((0, 1), (1, 0)), TorusShape(1, 0, 0)),
        (((1, 0), (0, -1)), TorusShape(0, 1, 1)),
        (((1, 0), (0, 1)), TorusShape(0, 0, 2)),
        (((-1, 0), (0, -1)), TorusShape(0, 2, 0)),
    )
    for matrix, expected in samples:
        if torus_shape_of_involution(matrix) != expected:
            raise VerificationError("involution classifier disagrees on %r"
                                    % (matrix,))
    report.append({"name": "torus involutions", "checks": ["classifier"]})
    return report
