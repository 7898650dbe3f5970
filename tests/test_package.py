"""The package namespace and what a cold process executes.

Every library module is registered in ``sys.modules`` and bound as a
package attribute unexecuted; it runs on its first attribute access.
``import realforms`` and the modules that classify Q_g load neither the
CLI nor the registry and its helpers, each CLI command executes only the
modules it uses, and every exported name resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STUBS = ("realforms.exact", "realforms.groups", "realforms.parsing",
         "realforms.quadrics", "realforms.lattices", "realforms.registry",
         "realforms.schwarzenberger")
# what the classification of Q_g never needs: not loaded at all, or (the
# three library modules) registered but not executed
ABSENT = ("realforms.cli", "click", "hashlib")
UNEXECUTED = ("realforms.lattices", "realforms.registry",
              "realforms.schwarzenberger")
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
# which library modules a command executes: exactly these, or none of these
RUNS_ONLY = {
    ("h1", "--group", "A4"): {"exact", "groups", "parsing"},
    ("classify-qg", "--poly", "u0^4+u1^4"):
        {"exact", "groups", "parsing", "quadrics"},
}
RUNS_NONE_OF = {
    ("lattice", "--family", "Fabc", "--a", "1", "--b", "2", "--c", "3"):
        {"quadrics", "groups", "registry"},
    ("forms", "--family", "Q3"): {"quadrics", "groups", "schwarzenberger"},
    ("links", "--form", "H_1"): {"quadrics", "groups", "schwarzenberger"},
    ("torus", "--d", "2"): {"quadrics", "groups", "schwarzenberger"},
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
    assert names["verify_gluing"] == "realforms.schwarzenberger"
    assert all(module.startswith("realforms.") for module in names.values())


def test_submodule_import_binds_the_package_attribute():
    for name in ("registry", "lattices", "schwarzenberger"):
        proc = _python("-c", "import realforms.%s as m, realforms; "
                             "assert realforms.%s is m; m.__name__"
                       % (name, name))
        assert proc.returncode == 0, proc.stderr


def test_each_command_executes_only_the_modules_it_uses():
    for args, modules in list(RUNS_ONLY.items()) \
            + list(RUNS_NONE_OF.items()):
        proc = _python("-c", COMMAND_PROBE, *args)
        assert proc.returncode == 0, (args, proc.stderr)
        ran, click = json.loads(proc.stderr.splitlines()[-1])
        assert not click, args
        if args in RUNS_ONLY:
            assert set(ran) == modules, (args, ran)
        else:
            assert not set(ran) & modules, (args, ran)


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
