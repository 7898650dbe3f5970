"""Command-line surface: classification queries and verification suites.

Every command prints one JSON report (stable key order, so identical
invocations are byte-identical) or, with ``--format text``, a short
human-readable table of the same data.  Exit codes: 0 on success, 2 on
a usage error or a domain error (bad input, out-of-range parameters,
unclassified cases), 3 when a verification suite finds an exact
identity violated.

A cold command runs only the code it uses.  The library modules are
stubs until first use (see ``realforms/__init__.py``), so this module
reaches them through qualified names (``registry.forms_of``), never
``from ... import``; the arguments are parsed with argparse.
"""

import argparse
import json
import sys

from . import (__version__, exact, groups, lattices, parsing, quadrics,
               registry, schwarzenberger)

# subcommand name -> (function, its options as (flag, argparse keywords))
_COMMANDS = {}
_FORMAT = ("--format", dict(dest="fmt", choices=["json", "text"],
                            default="json",
                            help="machine JSON (default) or a "
                                 "human-readable rendering"))
_HELP = dict(action="help", help="show this message and exit")
_PARAM_OPTIONS = tuple(("--" + key, dict(type=int)) for key in "abcmn")


def _command(name, *options):
    """Register the decorated function as the subcommand ``name``; every
    command also takes ``--format``."""
    def register(fn):
        _COMMANDS[name] = (fn, options + (_FORMAT,))
        return fn
    return register


def _emit(data, fmt, renderer):
    if fmt == "text":
        print(renderer(data))
    else:
        print(json.dumps(data, indent=2, sort_keys=True))


# ----------------------------------------------------------------------
# h1


def _render_matrix(mat):
    rows = ("[" + ", ".join(map(parsing.render_scalar, row)) + "]"
            for row in mat.entries())
    return "[" + ", ".join(rows) + "]"


def _h1_text(data):
    lines = ["group %s of order %d; %d cohomology classes"
             % (data["group"], data["order"], len(data["classes"]))]
    for name, rep in zip(data["classes"], data["reps_rendered"]):
        lines.append("  %-8s %s" % (name, rep))
    return "\n".join(lines)


@_command("h1", ("--group", dict(
    dest="group_name", required=True,
    help="catalog group: A<l>, D<l>, E6, E7 or E8")))
def h1_command(group_name, fmt):
    """Twisted-conjugacy classes of a catalog group."""
    spec = groups.GroupSpec.parse(group_name)
    named = groups.h1_named(spec)
    data = {
        "group": spec.name,
        "order": spec.order(),
        "classes": [name for name, _ in named],
        "reps": [parsing.matrix_json(rep) for _, rep in named],
        "reps_rendered": [_render_matrix(rep) for _, rep in named],
    }
    _emit(data, fmt, _h1_text)


# ----------------------------------------------------------------------
# classify-qg


def _classify_text(data):
    lines = ["g = %s   (degree %d, F = %s)"
             % (data["g"], 2 * data["n"], data["F"])]
    lines.append("%d real forms: %d rational, %d unknown, %d without "
                 "real points" % (len(data["forms"]),
                                  data["counts"]["rational"],
                                  data["counts"]["unknown"],
                                  data["counts"]["no_real_points"]))
    for form in data["forms"]:
        lines.append("  %-10s over %-12s %-16s %s"
                     % (form["form"], form["over_class"], form["status"],
                        form.get("equation", "-")))
    if data.get("note"):
        lines.append("note: %s" % data["note"])
    return "\n".join(lines)


@_command("classify-qg", ("--poly", dict(
    dest="poly_text", required=True,
    help="homogeneous fiber polynomial in u0, u1")))
def classify_qg_command(poly_text, fmt):
    """Classify the real forms of the quadric bundle with fiber g."""
    instance = quadrics.QgInstance(parsing.parse_poly(poly_text))
    report = quadrics.enumerate_forms(instance)
    data = report.as_dict()
    data["symmetry_detected"] = report.symmetry.name
    _emit(data, fmt, _classify_text)


# ----------------------------------------------------------------------
# lattice


# family kind -> the parameters of its FamilyId constructor, in order
_FAMILY_PARAMS = {"Fabc": "abc", "Pb": "b", "Uabc": "abc", "Sb": "b",
                  "Vb": "b", "Wb": "b", "Rmn": "mn", "Qg": "n"}


def _family_id(kind, params):
    if kind not in _FAMILY_PARAMS:
        raise ValueError("unknown family kind %r (one of %s)"
                         % (kind, ", ".join(_FAMILY_PARAMS)))
    keys = _FAMILY_PARAMS[kind]
    missing = [key for key in keys if params[key] is None]
    if missing:
        raise ValueError("family %s needs --%s"
                         % (kind, ", --".join(missing)))
    return getattr(lattices.FamilyId, kind.lower())(
        *(params[key] for key in keys))


def _lattice_text(data):
    lines = ["family %s" % data["family"]]
    if data["k_dots"]:
        lines.append("  canonical degrees: "
                     + ", ".join("K.%s = %s" % (name, value)
                                 for name, value in data["k_dots"].items()))
    for ray in data["cone_generators"]:
        marker = " (K-negative)" if ray["k_negative"] else ""
        contraction = " -> %s" % ray["contraction"] if ray["contraction"] \
            else ""
        lines.append("  ray %s: K.%s = %s%s%s"
                     % (ray["name"], ray["name"], ray["k_dot"], marker,
                        contraction))
    lines.append("  in the classified list: %s"
                 % ("yes" if data["in_classified_list"] else "no"))
    comp = data["aut_components"]
    if comp is None:
        lines.append("  component group: undetermined at this level")
    else:
        lines.append("  component group: %s" % comp.get("group",
                                                        comp["kind"]))
    return "\n".join(lines)


@_command("lattice", ("--family", dict(
    dest="family_kind", required=True,
    help="family kind: Fabc, Pb, Uabc, Sb, Vb, Wb, Rmn, Qg")),
    *_PARAM_OPTIONS)
def lattice_command(family_kind, fmt, **params):
    """Intersection lattice and extremal rays of a family member."""
    family = _family_id(family_kind, params)
    lattice = lattices.model(family)
    data = lattice.as_dict()
    for ray, stored in zip(data["cone_generators"],
                           lattice.cone_generators):
        ray["k_negative"] = stored.k_dot < 0
    data["in_classified_list"] = lattices.in_theorem_list(family)
    try:
        data["aut_components"] = lattices.aut_component_count(family)
    except ValueError:
        data["aut_components"] = None
    _emit(data, fmt, _lattice_text)


# ----------------------------------------------------------------------
# forms


def _forms_text(data):
    lines = ["%s: %d real forms" % (data["family"], data["count"])]
    for form in data["forms"]:
        status = "rational" if form["rational"] == "yes" else (
            "real points" if form["has_real_points"] == "yes"
            else ("no real points" if form["has_real_points"] == "no"
                  else "status unknown"))
        lines.append("  %-12s %-16s %s"
                     % (form["name"], status, form["aut0"] or ""))
        if form["notes"]:
            lines.append("      %s" % form["notes"])
    return "\n".join(lines)


@_command("forms", ("--family", dict(
    dest="family_name", required=True,
    help="family kind with parameters, or a named space such as P3, Q3, "
         "Y5, X12, Q13, P(1,1,1,2) or (P1)^3")),
    *_PARAM_OPTIONS)
def forms_command(family_name, fmt, **params):
    """The classified real forms of a family member."""
    if family_name in _FAMILY_PARAMS:
        target = _family_id(family_name, params)
        label = target.label
    else:
        target = family_name
        label = family_name
    descriptors = registry.forms_of(target)
    data = {
        "family": label,
        "count": len(descriptors),
        "forms": [d.as_dict() for d in descriptors],
    }
    _emit(data, fmt, _forms_text)


# ----------------------------------------------------------------------
# links


def _links_text(data):
    if not data["links"]:
        return "%s admits no nontrivial equivariant link" % data["form"]
    lines = ["%s: %d equivariant links" % (data["form"], data["count"])]
    for link in data["links"]:
        witness = (" [witness: %s]" % link["witness"]["kind"]
                   if link["witness"] else "")
        lines.append("  type %-10s -> %-10s %s%s"
                     % (link["type"], link["target"],
                        link["notes"] or "", witness))
    return "\n".join(lines)


@_command("links", ("--form", dict(
    dest="form_name", required=True,
    help="name of a real form, e.g. G_1, H_1, S~_3, Z_{1,1,0}")))
def links_command(form_name, fmt):
    """Equivariant birational links out of a named real form."""
    links = registry.links_from(form_name)
    data = {
        "form": form_name,
        "count": len(links),
        "links": [link.as_dict() for link in links],
    }
    _emit(data, fmt, _links_text)


# ----------------------------------------------------------------------
# torus


def _torus_text(data):
    lines = ["real forms of a torus of dimension %d:" % data["dimension"]]
    for shape in data["forms"]:
        lines.append("  (p, q, r) = (%d, %d, %d): %s"
                     % (shape["p"], shape["q"], shape["r"], shape["label"]))
    return "\n".join(lines)


@_command("torus", ("--d", dict(
    dest="dimension", type=int, required=True,
    help="dimension of the torus")))
def torus_command(dimension, fmt):
    """Enumerate the real forms of an algebraic torus."""
    shapes = registry.torus_forms(dimension)
    data = {
        "dimension": dimension,
        "count": len(shapes),
        "forms": [{"p": s.p, "q": s.q, "r": s.r, "label": s.label}
                  for s in shapes],
    }
    _emit(data, fmt, _torus_text)


# ----------------------------------------------------------------------
# verify suites


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
                raise exact.VerificationError(
                    "form counts for %s (%s n) are %r, table says %r"
                    % (name, parity, tuple(counts), expected))
        checks.append({"check": "form counts %s" % name, "ok": True})
    for parity in ("even", "odd"):
        torus = quadrics.form_counts(parity, quadrics.FLabel.torus())
        if tuple(torus) != (1, 1, 0):
            raise exact.VerificationError("torus-fiber counts are %r"
                                          % (torus,))
    twisted = quadrics.form_counts("odd", quadrics.FLabel.torus_z2())
    if tuple(twisted) != (3, 2, 1):
        raise exact.VerificationError("two-root odd counts are %r"
                                      % (twisted,))
    checks.append({"check": "form counts torus fibers", "ok": True})
    witness = quadrics.QgInstance(parsing.parse_poly("u0^8+14*u0^4*u1^4+u1^8"))
    report = quadrics.enumerate_forms(witness)
    if report.symmetry.name != "Finite(E7)" or len(report.forms) != 12:
        raise exact.VerificationError("octahedral witness misclassified")
    expected_twist = parsing.parse_poly("-u0^8+14*u0^4*u1^4-u1^8")
    twisted_forms = [f for f in report.forms
                     if f.over_class == "[omega_8]"]
    if not twisted_forms or any(f.equation != expected_twist
                                for f in twisted_forms):
        raise exact.VerificationError("octahedral twisted equation is wrong")
    checks.append({"check": "octahedral witness bundle", "forms": 12,
                   "ok": True})
    return checks


def _suite_schwarzenberger(b_max):
    checks = []
    for k in range(0, 13):
        if not schwarzenberger.sym_identity_holds(k):
            raise exact.VerificationError(
                "symmetric-power recurrence fails at k = %d" % k)
    checks.append({"check": "symmetric-power identity k <= 12",
                   "ok": True})
    for b in range(1, b_max + 1):
        verdict = schwarzenberger.verify_gluing(b)
        checks.append({"check": "gluing b = %d" % b,
                       "sign": verdict["sign"], "ok": True})
    return checks


def _suite_lattices():
    FamilyId = lattices.FamilyId
    count = 0
    for a in range(0, 6):
        for b in range(0, 6):
            for c in range(-5, 6):
                family = FamilyId.fabc(a, b, c)
                na, nb, nc = family.params
                lattice = lattices.model(family)
                if lattice.k_dots["l1"] != na - nc - 2 \
                        or lattice.k_dots["l2"] != nb - 2 \
                        or lattice.k_dots["l3"] != -2 \
                        or lattice.k_dots["l4"] != na + nc - 2:
                    raise exact.VerificationError(
                        "closed-form canonical degrees fail on %s"
                        % family.label)
                if lattice.k_dot_from_table("l4") != na + nc - 2:
                    raise exact.VerificationError(
                        "the derived class l4 = l1 - c l3 pairs wrongly "
                        "on %s" % family.label)
                count += 1
    for b in range(2, 11):
        lattice = lattices.model(FamilyId.wb(b))
        from fractions import Fraction
        if lattice.k_dots["f"] != -2 \
                or lattice.k_dots["l"] != Fraction(2 * b - 5, 2):
            raise exact.VerificationError(
                "closed-form canonical degrees fail on W_%d" % b)
        count += 1
    for family in (FamilyId.pb(0), FamilyId.pb(2), FamilyId.sb(3),
                   FamilyId.vb(3), FamilyId.rmn(2, 1), FamilyId.qg(2)):
        lattices.model(family)
        count += 1
    return [{"check": "lattice grid", "members": count, "ok": True}]


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
        registry.verify_involution(exchange, registry.fabc_ambient(0, b, -b))
        registry.verify_involution(circle, registry.fabc_ambient(0, b, b))
    checks.append({"check": "bundle exchanges b = 1..5", "ok": True})
    flag_forms = registry.forms_of(lattices.FamilyId.sb(1))
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
                   **registry.verify_witness({"kind": "psi_G1"})})
    checks.append({"check": "projective-space collapse",
                   **registry.verify_witness({"kind": "delta_H1"})})
    for g_text, h_text in _PSI_H_PAIRS:
        verdict = registry.verify_witness({"kind": "psi_h"},
                                          q=g_text, h=h_text)
        if not verdict["ok"]:
            raise exact.VerificationError(
                "degree-raising witness failed on (%s, %s)"
                % (g_text, h_text))
    checks.append({"check": "degree-raising links",
                   "pairs": len(_PSI_H_PAIRS), "ok": True})
    for text in ("u0^3*u1+i*u0*u1^3", "i*u0^4+u1^4", "zeta(3)*u0^2+u1^2",
                 "u0^6+zeta(8)*u1^6", "u0^6+i*u0^3*u1^3+u1^6"):
        witness = quadrics.realizable(parsing.parse_poly(text))
        if not witness:
            raise exact.VerificationError("no realization witness for %s"
                                          % text)
    try:
        quadrics.realizable(parsing.parse_poly("(1+2*i)*u0^4+u1^4"))
        undecidable = False
    except quadrics.UndecidableError:
        undecidable = True
    if not undecidable:
        raise exact.VerificationError("transcendental-phase surrogate was "
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


def _verify_text(data):
    lines = []
    for item in data["checks"]:
        detail = {k: v for k, v in item.items() if k not in ("check", "ok")}
        suffix = ("  " + ", ".join("%s=%s" % kv
                                   for kv in sorted(detail.items()))
                  if detail else "")
        lines.append("ok  %s%s" % (item["check"], suffix))
    lines.append("all %d checks passed" % len(data["checks"]))
    return "\n".join(lines)


@_command("verify", ("--suite", dict(
    required=True, choices=["h1", "qg-table", "schwarzenberger", "lattices",
                            "witnesses", "involutions", "all"])),
    ("--b-max", dict(type=int, default=12,
                     help="parameter range for the gluing checks "
                          "(default 12)")))
def verify_command(suite, b_max, fmt):
    """Run a verification suite; any exact failure exits with code 3."""
    checks = []
    if suite == "all":
        for name in ("h1", "qg-table", "schwarzenberger", "lattices",
                     "involutions", "witnesses"):
            checks.extend(_SUITES[name](b_max))
        checks.extend(_suite_registry())
    else:
        checks.extend(_SUITES[suite](b_max))
    data = {"suite": suite, "checks": checks, "passed": len(checks)}
    _emit(data, fmt, _verify_text)


# ----------------------------------------------------------------------
# argument parsing and the exit-code contract


def _parser(prog):
    # ``--help`` but no ``-h``, which is a usage error (exit 2)
    parser = argparse.ArgumentParser(prog=prog, description=main.__doc__,
                                     add_help=False, allow_abbrev=False)
    parser.add_argument("--help", **_HELP)
    parser.add_argument("--version", action="version",
                        version="realforms %s" % __version__)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (fn, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=fn.__doc__,
                                  description=fn.__doc__, add_help=False,
                                  allow_abbrev=False)
        sub.add_argument("--help", **_HELP)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(run=fn)
    return parser


def _join_values(args):
    """Write ``--opt value`` as ``--opt=value``, so that a value starting
    with a dash (``--poly -u0^4-u1^4``, ``--c -1``) stays a value."""
    takes_value = {flag for _, options in _COMMANDS.values()
                   for flag, _ in options}
    joined = []
    tokens = iter(args)
    for token in tokens:
        value = next(tokens, None) if token in takes_value else None
        joined.append(token if value is None else "%s=%s" % (token, value))
    return joined


def main(args=None, prog_name=None):
    """Exact classification of real forms with maximal symmetry."""
    args = sys.argv[1:] if args is None else args
    options = vars(_parser(prog_name or "realforms").parse_args(
        _join_values(args)))
    run = options.pop("run")
    try:
        run(**options)
    except exact.VerificationError as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        raise SystemExit(3)
    except (ValueError, KeyError, TypeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(0)


if __name__ == "__main__":
    main()
