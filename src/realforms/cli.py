"""Command-line surface: classification queries and verification suites.

Every command prints one JSON report (stable key order, so identical
invocations are byte-identical) or, with ``--format text``, a short
human-readable table of the same data.  Exit codes: 0 on success, 2 on
a usage error or a domain error (bad input, out-of-range parameters,
unclassified cases; an integer option takes an optional sign and ASCII
digits only), 3 when a verification suite finds an exact identity
violated.  A report whose reader has closed standard output (``realforms
torus --d 100 | head -1``) ends quietly with code 0: the answer was
computed, and nothing is left to say.

A cold command runs only the code it uses.  The library modules are
stubs until first use (see ``realforms/__init__.py``), so this module
reaches them through qualified names (``registry.forms_of``), never
``from ... import``; the arguments are parsed with argparse.  The
suites of ``verify`` live in `verify`, so that no other command
compiles them.
"""

import argparse
import json
import os
import sys

from . import (__version__, errors, groups, lattices, parsing, quadrics,
               registry, verify)

# subcommand name -> (function, its options as (flag, argparse keywords))
_COMMANDS = {}
_FORMAT = ("--format", dict(dest="fmt", choices=["json", "text"],
                            default="json",
                            help="machine JSON (default) or a "
                                 "human-readable rendering"))
_HELP = dict(action="help", help="show this message and exit")


def _integer(text):
    """An integer option's value: ``int`` also takes other scripts'
    digits, spaces and underscores, this only a sign and ASCII digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return int(text)


_PARAM_OPTIONS = tuple(("--" + key, dict(type=_integer)) for key in "abcmn")


def _command(name, *options):
    """Register the decorated function as the subcommand ``name``; every
    command also takes ``--format``."""
    def register(fn):
        _COMMANDS[name] = (fn, options + (_FORMAT,))
        return fn
    return register


def _emit(data, fmt, renderer):
    text = renderer(data) if fmt == "text" else json.dumps(
        data, indent=2, sort_keys=True)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the flush
        # at shutdown does not report the pipe a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(0)


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
    # parsed before ``quadrics`` is touched, so a malformed polynomial
    # runs no classification code
    g = parsing.parse_poly(poly_text)
    instance = quadrics.QgInstance(g)
    report = quadrics.enumerate_forms(instance)
    data = report.as_dict()
    data["symmetry_detected"] = report.symmetry.name
    _emit(data, fmt, _classify_text)


# ----------------------------------------------------------------------
# lattice


# family kind -> the names of its parameters, in order; a copy of the
# names in ``lattices._KINDS``, so that a lookup such as ``forms --family
# Q3`` need not execute ``lattices`` (tests/test_package.py checks that
# the two agree)
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
    return lattices.FamilyId(kind, [params[key] for key in keys])


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
    dest="dimension", type=_integer, required=True,
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


@_command("verify", ("--suite", dict(
    required=True, choices=["h1", "qg-table", "schwarzenberger", "lattices",
                            "witnesses", "involutions", "all"])),
    ("--b-max", dict(type=_integer, default=12,
                     help="parameter range for the gluing checks "
                          "(default 12)")))
def verify_command(suite, b_max, fmt):
    """Run a verification suite; any exact failure exits with code 3."""
    checks = verify.run(suite, b_max)
    data = {"suite": suite, "checks": checks, "passed": len(checks)}
    _emit(data, fmt, verify.as_text)


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
    except errors.VerificationError as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        raise SystemExit(3)
    except (ValueError, KeyError, TypeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(0)


if __name__ == "__main__":
    main()
