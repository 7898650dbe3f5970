"""The verification suites behind ``realforms verify``.

Each suite re-derives a family of results with exact arithmetic and
returns its checks as report rows; a violated identity raises
`VerificationError`, which the command line turns into exit code 3.
The suites live apart from `cli` so that only ``verify`` compiles them.
"""

from . import (certificates, groups, lattices, parsing, quadrics, registry,
               schwarzenberger)
from .errors import VerificationError


# Largest --b-max of the gluing checks; the smallest is 1.  Cold medians
# of 3 runs of ``verify --suite schwarzenberger --b-max N`` (CPython
# 3.11.7, shared 2-CPU container): 0.18 s at the default 12, 0.26 s at
# 24, 0.34 s at 30, 0.53 s at 40, 0.93 s at 48, 1.36 s at 60 and 11.5 s
# at 120; the cost grows about as N^3.  At 30 a cold run stays within
# about twice the default's time.
MAX_B = 30

_CATALOG_GROUPS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
                   "D2", "D3", "D4", "D5", "D6", "D7", "D8",
                   "E6", "E7", "E8")

# Independent copy of the per-kind theorem counts: the number of
# rational and status-unknown forms equals r (doubled when the fiber
# count is even), and the quaternionic twist contributes four extra
# forms without real points whenever it exists.
_KIND_TABLE = {
    ("A", 1): (1, False), ("A", 0): (2, False),
    ("D", 1): (2, False), ("D", 0): (3, True),
    ("E6", None): (1, True), ("E7", None): (2, True),
    ("E8", None): (1, True),
}


def _expected_counts(spec, parity):
    key = (spec.kind, spec.l % 2 if spec.kind in ("A", "D") else None)
    r, has_h = _KIND_TABLE[key]
    quaternionic = 4 if has_h else 0
    if parity == "even":
        return (2 * r, 2 * r, quaternionic)
    if spec.kind == "A" and spec.l % 2 == 1:
        return (2, 2, 0)
    return (r, r, quaternionic)


def _suite_h1():
    checks = []
    for name in _CATALOG_GROUPS:
        spec = groups.GroupSpec.parse(name)
        named = groups.h1_named(spec)
        checks.append({"check": "h1 %s" % name,
                       "classes": [n for n, _ in named], "ok": True})
    return checks


def _suite_qg_table():
    checks = []
    for name in _CATALOG_GROUPS:
        spec = groups.GroupSpec.parse(name)
        label = quadrics.FLabel.finite(spec)
        for parity in ("even", "odd"):
            counts = quadrics.form_counts(parity, label)
            expected = _expected_counts(spec, parity)
            if tuple(counts) != expected:
                raise VerificationError(
                    "form counts for %s (%s n) are %r, table says %r"
                    % (name, parity, tuple(counts), expected))
        checks.append({"check": "form counts %s" % name, "ok": True})
    for parity in ("even", "odd"):
        torus = quadrics.form_counts(parity, quadrics.FLabel.torus())
        if tuple(torus) != (1, 1, 0):
            raise VerificationError("torus-fiber counts are %r"
                                          % (torus,))
    twisted = quadrics.form_counts("odd", quadrics.FLabel.torus_z2())
    if tuple(twisted) != (3, 2, 1):
        raise VerificationError("two-root odd counts are %r"
                                      % (twisted,))
    checks.append({"check": "form counts torus fibers", "ok": True})
    witness = quadrics.QgInstance(parsing.parse_poly("u0^8+14*u0^4*u1^4+u1^8"))
    report = quadrics.enumerate_forms(witness)
    if report.symmetry.name != "Finite(E7)" or len(report.forms) != 12:
        raise VerificationError("octahedral witness misclassified")
    expected_twist = parsing.parse_poly("-u0^8+14*u0^4*u1^4-u1^8")
    twisted_forms = [f for f in report.forms
                     if f.over_class == "[omega_8]"]
    if not twisted_forms or any(f.equation != expected_twist
                                for f in twisted_forms):
        raise VerificationError("octahedral twisted equation is wrong")
    checks.append({"check": "octahedral witness bundle", "forms": 12,
                   "ok": True})
    return checks


def _suite_schwarzenberger(b_max):
    checks = []
    for k in range(0, 13):
        if not schwarzenberger.sym_identity_holds(k):
            raise VerificationError(
                "symmetric-power recurrence fails at k = %d" % k)
    checks.append({"check": "symmetric-power identity k <= 12",
                   "ok": True})
    for b in range(1, b_max + 1):
        verdict = schwarzenberger.verify_gluing(b)
        checks.append({"check": "gluing b = %d" % b,
                       "sign": verdict["sign"], "ok": True})
    return checks


def _suite_lattices():
    # computing a toric model checks that every extremal ray is named
    FamilyId = lattices.FamilyId
    families = [FamilyId("Fabc", (a, b, c)) for a in range(0, 6)
                for b in range(0, 6) for c in range(-5, 6)]
    families += [FamilyId("Wb", (b,)) for b in range(2, 11)]
    families += [FamilyId(kind, params) for kind, params in (
        ("Pb", (0,)), ("Pb", (2,)), ("Sb", (3,)), ("Vb", (3,)),
        ("Rmn", (2, 1)), ("Qg", (2,)))]
    # FamilyId maps Fabc(a, 0, -c) onto Fabc(a, 0, c): 381 distinct models
    for family in dict.fromkeys(families):
        lattices.model(family)
    return [{"check": "lattice grid", "members": len(families), "ok": True}]


_INVOLUTION_CORPUS = (
    "u0^2+u1^2",
    "u0^3*u1-u0*u1^3",
    "u0^4+u1^4",
    "u0^4+u1^4+u0^2*u1^2",
    "u0^5*u1",
    "u0^6+u1^6",
    "u0^5*u1-u0*u1^5",
    "u0^8+14*u0^4*u1^4+u1^8",
    "u0^10+u1^10",
    "u0^12-33*u0^8*u1^4-33*u0^4*u1^8+u1^12",
)


def _suite_involutions():
    checks = []
    applicable = 0
    for text in _INVOLUTION_CORPUS:
        instance = quadrics.QgInstance(parsing.parse_poly(text))
        for index in (1, 2, 3, 4):
            quadrics.check_real_structure(index, instance)
        for index in (5, 6, 7, 8):
            try:
                quadrics.check_real_structure(index, instance)
                applicable += 1
            except quadrics.ApplicabilityError:
                continue
    checks.append({"check": "bundle structures on %d fiber polynomials"
                            % len(_INVOLUTION_CORPUS),
                   "optional_structures_applicable": applicable,
                   "ok": True})
    exchange = "[conj(x0):conj(x1); conj(z0):conj(z1); conj(y0):conj(y1)]"
    circle = "[conj(x1):conj(x0); conj(z0):conj(z1); conj(y0):conj(y1)]"
    for b in range(1, 6):
        certificates.verify_involution(
            exchange, certificates.build_ambient(("fabc", (0, b, -b))))
        certificates.verify_involution(
            circle, certificates.build_ambient(("fabc", (0, b, b))))
    checks.append({"check": "bundle exchanges b = 1..5", "ok": True})
    flag_forms = registry.forms_of(lattices.FamilyId("Sb", (1,)))
    for descriptor in flag_forms:
        registry.validate_descriptor(descriptor)
    checks.append({"check": "flag threefold structures",
                   "count": len(flag_forms), "ok": True})
    return checks


_PSI_H_PAIRS = (
    ("u0^4+u1^4", "u0^2+u1^2"),
    ("u0^4+u1^4", "u0^2+2*u1^2"),
    ("u0^4+u1^4+u0^2*u1^2", "u0^2+u1^2"),
    ("u0^6+u1^6", "u0^2+u0*u1+u1^2"),
    ("u0^6+u1^6", "u0"),
    ("u0^6+u1^6", "u1"),
    ("u0^5*u1-u0*u1^5", "u0^2+u1^2"),
    ("u0^8+14*u0^4*u1^4+u1^8", "u0^2+u1^2"),
    ("u0^8+14*u0^4*u1^4+u1^8", "u0"),
    ("u0^10+u1^10", "3*u0^2+u1^2"),
)


def _suite_witnesses():
    checks = []
    checks.append({"check": "quadric-cone contraction",
                   **certificates.verify_witness({"kind": "psi_G1"})})
    checks.append({"check": "projective-space collapse",
                   **certificates.verify_witness({"kind": "delta_H1"})})
    for g_text, h_text in _PSI_H_PAIRS:
        verdict = certificates.verify_witness({"kind": "psi_h"},
                                          q=g_text, h=h_text)
        if not verdict["ok"]:
            raise VerificationError(
                "degree-raising witness failed on (%s, %s)"
                % (g_text, h_text))
    checks.append({"check": "degree-raising links",
                   "pairs": len(_PSI_H_PAIRS), "ok": True})
    for text in ("u0^3*u1+i*u0*u1^3", "i*u0^4+u1^4", "zeta(3)*u0^2+u1^2",
                 "u0^6+zeta(8)*u1^6", "u0^6+i*u0^3*u1^3+u1^6"):
        witness = quadrics.realizable(parsing.parse_poly(text))
        if not witness:
            raise VerificationError("no realization witness for %s"
                                          % text)
    try:
        quadrics.realizable(parsing.parse_poly("(1+2*i)*u0^4+u1^4"))
        undecidable = False
    except quadrics.UndecidableError:
        undecidable = True
    if not undecidable:
        raise VerificationError("transcendental-phase surrogate was "
                                      "not flagged as undecidable")
    checks.append({"check": "realizability witnesses", "ok": True})
    return checks


def _suite_registry():
    report = registry.validate_all()
    return [{"check": "registry sweep", "validated": len(report),
             "ok": True}]


_SUITES = {
    "h1": lambda b_max: _suite_h1(),
    "qg-table": lambda b_max: _suite_qg_table(),
    "schwarzenberger": _suite_schwarzenberger,
    "lattices": lambda b_max: _suite_lattices(),
    "involutions": lambda b_max: _suite_involutions(),
    "witnesses": lambda b_max: _suite_witnesses(),
}


def as_text(data):
    """The human-readable rendering of a ``verify`` report."""
    lines = []
    for item in data["checks"]:
        detail = {k: v for k, v in item.items() if k not in ("check", "ok")}
        suffix = ("  " + ", ".join("%s=%s" % kv
                                   for kv in sorted(detail.items()))
                  if detail else "")
        lines.append("ok  %s%s" % (item["check"], suffix))
    lines.append("all %d checks passed" % len(data["checks"]))
    return "\n".join(lines)


def run(suite, b_max):
    """The checks of one suite, or of every suite for ``"all"``."""
    if suite in ("schwarzenberger", "all") and not 1 <= b_max <= MAX_B:
        raise ValueError("b_max must be at least 1 and at most %d, got %d"
                         % (MAX_B, b_max))
    if suite != "all":
        return _SUITES[suite](b_max)
    checks = []
    for checks_of in _SUITES.values():
        checks.extend(checks_of(b_max))
    return checks + _suite_registry()
