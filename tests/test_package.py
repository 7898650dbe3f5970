"""The package namespace and what a cold process executes.

Every library module is registered in ``sys.modules`` and bound as a
package attribute unexecuted; it runs on its first attribute access.
``import realforms`` and the modules that classify Q_g load neither the
CLI nor the registry and its helpers, each CLI command executes exactly
the modules it uses, and every exported name resolves."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STUBS = ("realforms.errors", "realforms.exact", "realforms.groups",
         "realforms.parsing", "realforms.quadrics", "realforms.lattices",
         "realforms.registry", "realforms.certificates",
         "realforms.schwarzenberger", "realforms.verify")
# what the classification of Q_g never needs: not loaded at all, or (the
# library modules) registered but not executed
ABSENT = ("realforms.cli", "click", "hashlib")
UNEXECUTED = ("realforms.lattices", "realforms.registry",
              "realforms.certificates", "realforms.schwarzenberger",
              "realforms.verify")
PROBE = """
import json, sys, types
def executed():
    return [m for m in %r
            if type(sys.modules.get(m)) is types.ModuleType]
import realforms
from realforms import parsing, quadrics
registered = [m for m in %r if m in sys.modules]
bound = [m for m in registered
         if getattr(realforms, m.split(".")[1]) is sys.modules[m]]
before = executed()
quadrics.detect_symmetry
after = executed()
loaded = [m for m in %r if m in sys.modules]
names = {n: getattr(realforms, n).__module__ if n != "__version__" else n
         for n in realforms.__all__}
print(json.dumps([registered, bound, before, after, loaded, names]))
""" % (STUBS, STUBS, ABSENT)
FABC = ("--family", "Fabc", "--a", "1", "--b", "2", "--c", "3")
LOOKUP = {"errors", "registry"}
# the exit code of a command and exactly the library modules it executes;
# only ``verify`` executes the suites and the registry's certificates
RUNS = {
    ("h1", "--group", "A4"): (0, {"errors", "exact", "groups", "parsing"}),
    ("classify-qg", "--poly", "u0^4+u1^4"):
        (0, {"errors", "exact", "groups", "parsing", "quadrics"}),
    # a malformed polynomial fails in the parser, before any classification
    ("classify-qg", "--poly", "u0^2 + * u1^2"):
        (2, {"errors", "exact", "parsing"}),
    ("lattice", *FABC): (0, {"errors", "lattices"}),
    ("lattice", "--family", "Pb", "--b", "1"): (0, {"errors", "lattices"}),
    ("lattice", "--family", "Wb", "--b", "5"): (0, {"errors", "lattices"}),
    ("lattice", "--family", "Rmn", "--m", "2", "--n", "1"):
        (0, {"errors", "lattices"}),
    ("forms", *FABC): (0, LOOKUP | {"lattices"}),
    ("forms", "--family", "Q3"): (0, LOOKUP),
    ("links", "--form", "H_1"): (0, LOOKUP),
    ("torus", "--d", "2"): (0, LOOKUP),
    ("forms", "--family", "Xabc"): (2, LOOKUP),
    ("lattice", "--family", "Qg", "--n", "0"): (2, {"errors", "lattices"}),
    # the integer kernel lives in ``lattices`` and pulls in no other module
    ("verify", "--suite", "lattices"): (0, {"errors", "lattices", "verify"}),
    # the class table of H^1 lives in ``groups``: reading it pulls in
    # neither the counts of ``quadrics`` nor the classification
    ("verify", "--suite", "h1"): (0, {"errors", "exact", "groups", "verify"}),
    ("verify", "--suite", "qg-table"):
        (0, {"errors", "exact", "groups", "parsing", "quadrics", "verify"}),
    # the certificates build their toric ambients on the Cox data of
    # ``lattices``
    ("verify", "--suite", "witnesses"):
        (0, {"certificates", "errors", "exact", "groups", "lattices",
             "parsing", "quadrics", "registry", "verify"}),
}
# runs ``python -m realforms.cli <args>`` and reports, on the last line of
# stderr, the library modules executed and whether click was imported
COMMAND_PROBE = """
import json, runpy, sys, types
sys.argv[0] = "realforms"
try:
    runpy.run_module("realforms.cli", run_name="__main__", alter_sys=True)
finally:
    ran = sorted(m.split(".")[1] for m, module in sys.modules.items()
                 if m in %r and type(module) is types.ModuleType)
    sys.stderr.write("\\n" + json.dumps([ran, "click" in sys.modules]))
""" % (STUBS,)


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, timeout=120, cwd=ROOT)


def test_import_loads_nothing_heavy_and_every_name_resolves():
    proc = _python("-c", PROBE)
    assert proc.returncode == 0, proc.stderr
    registered, bound, before, after, loaded, names = json.loads(proc.stdout)
    assert registered == bound == list(STUBS)
    assert before == []
    assert sorted(after) == sorted(set(STUBS) - set(UNEXECUTED))
    assert loaded == []
    assert names.pop("__version__") == "__version__"
    assert names["Cyclo"] == "realforms.exact"
    assert names["VerificationError"] == "realforms.errors"
    assert names["verify_gluing"] == "realforms.schwarzenberger"
    assert all(module.startswith("realforms.") for module in names.values())


def test_every_name_in_a_module_all_resolves():
    for stub in STUBS:
        module = importlib.import_module(stub)
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert missing == [], stub


def test_submodule_import_binds_the_package_attribute():
    for name in ("registry", "lattices", "schwarzenberger", "certificates",
                 "verify"):
        proc = _python("-c", "import realforms.%s as m, realforms; "
                             "assert realforms.%s is m; m.__name__"
                       % (name, name))
        assert proc.returncode == 0, proc.stderr


def test_each_command_executes_only_the_modules_it_uses():
    for args, (code, modules) in RUNS.items():
        proc = _python("-c", COMMAND_PROBE, *args)
        assert proc.returncode == code, (args, proc.stderr)
        ran, click = json.loads(proc.stderr.splitlines()[-1])
        assert not click, args
        assert set(ran) == modules, (args, ran)
        if {"verify", "certificates"} & set(ran):
            assert args[0] == "verify", (args, ran)


def test_cli_family_options_are_the_family_kinds():
    # the CLI keeps its own copy of the parameter names, because reading
    # them from ``lattices`` would execute it on lookups such as
    # ``forms --family Q3`` (see RUNS)
    from realforms import cli, lattices
    assert cli._FAMILY_PARAMS == {kind: names for kind, (names, _, _)
                                  in lattices._KINDS.items()}


def test_launcher_prints_what_the_cli_prints(tmp_path):
    plain = _python("-m", "realforms.cli", "torus", "--d", "2")
    traced = _python(str(ROOT / "bench" / "launcher.py"),
                     str(tmp_path / "trace.json"), "torus", "--d", "2")
    assert (traced.returncode, traced.stdout) == (0, plain.stdout)
    assert plain.returncode == 0 and plain.stdout


def test_star_import_and_unknown_names():
    import realforms
    from realforms import registry
    namespace = {}
    exec("from realforms import *", namespace)
    assert namespace["forms_of"] is registry.forms_of
    assert set(realforms.__all__) <= set(namespace)
    try:
        realforms.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("unknown name resolved")


def test_verification_error_is_one_class():
    import realforms
    from realforms import errors, exact
    assert realforms.VerificationError is exact.VerificationError \
        is errors.VerificationError
    assert issubclass(errors.VerificationError, AssertionError)


def test_undecidable_error_is_one_class():
    import realforms
    from realforms import errors, quadrics
    assert realforms.UndecidableError is quadrics.UndecidableError \
        is errors.UndecidableError
    assert issubclass(errors.UndecidableError, ValueError)


def test_no_bytecode_is_shipped_and_bytecode_writing_is_left_alone():
    """Cold start-up is cut by compiling less source, never by shipping
    ``.pyc`` files or by changing whether and where bytecode is written."""
    src = ROOT / "src"
    listed = subprocess.run(["git", "ls-files", "--", "src"],
                            capture_output=True, text=True, cwd=ROOT)
    if listed.returncode == 0:
        files = listed.stdout.split()
    else:  # not a git checkout: every file outside a local cache counts
        files = [str(p) for p in src.rglob("*")
                 if "__pycache__" not in p.parts]
    assert not [f for f in files if f.endswith(".pyc")]
    for path in src.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        for setting in ("dont_write_bytecode", "pycache_prefix"):
            assert setting not in text, (path, setting)


# Library functions that no golden case and no ``verify`` suite calls,
# each with the reason it stays.
KEPT = {
    "exact.Mat2.inverse":
        "checked in test_exact; kept for the lifted matrices of ROADMAP "
        "item 3",
    "groups.twisted_class_of":
        "oracle of the H^1 partition tests in test_groups; ROADMAP item 3 "
        "names lifted classes with it",
    "groups.semi_invariant_character":
        "the exhaustive-scan oracle of test_quadrics; bench/spans.py "
        "wraps it (ROADMAP items 8 and 9)",
    "registry.registry_version":
        "the set-up code of the bench workloads calls it; ROADMAP item 5 "
        "prints it",
}
# replays every golden case and ``verify --suite all`` in one process and
# prints the (file, first line, name) of every library function called
REACH_PROBE = """
import io, json, os, sys
import realforms
package = os.path.dirname(realforms.__file__)
reached = set()

def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and os.path.dirname(code.co_filename) == package:
        reached.add((os.path.basename(code.co_filename),
                     code.co_firstlineno, code.co_name))

with open(sys.argv[1], encoding="utf-8") as f:
    cases = json.load(f)
sys.setprofile(hook)
from realforms.cli import main  # its commands register on import
for args in [*cases.values(), ["verify", "--suite", "all"]]:
    stdout, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO(), "utf-8")
    try:
        main(args, prog_name="realforms")
    except SystemExit:
        pass
    finally:
        sys.stdout = stdout
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""


def _library_functions():
    """{(file, first line, name): "module.qualified.name"} for every
    ``def`` in the package but the dunders; a decorated function's code
    starts at its first decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    found[(path.name, first, child.name)] = \
                        "%s.%s" % (path.stem, name)
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted((ROOT / "src" / "realforms").glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def test_every_library_function_is_reached_or_kept():
    # a fresh process, so that no warm cache hides a call
    proc = _python("-c", REACH_PROBE,
                   str(ROOT / "tests" / "golden" / "cases.json"))
    assert proc.returncode == 0, proc.stderr
    reached = {tuple(key) for key in json.loads(proc.stdout)}
    functions = _library_functions()
    unreached = {name for key, name in functions.items()
                 if key not in reached}
    assert unreached == set(KEPT)
