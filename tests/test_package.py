"""The package namespace: ``import realforms`` and the modules that
classify Q_g load neither the CLI nor the registry and its helpers, and
every exported name resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

# what the classification of Q_g never needs: not loaded, or (the three
# library modules) registered but not executed
ABSENT = ("realforms.cli", "click", "hashlib")
UNEXECUTED = ("realforms.registry", "realforms.lattices",
              "realforms.schwarzenberger")
PROBE = """
import json, sys, types
import realforms
from realforms import parsing, quadrics
loaded = [m for m in %r if m in sys.modules]
registered = [m for m in %r if m in sys.modules]
executed = [m for m in registered if type(sys.modules[m]) is types.ModuleType]
names = {n: getattr(realforms, n).__module__ if n != "__version__" else n
         for n in realforms.__all__}
print(json.dumps([loaded, registered, executed, names]))
""" % (ABSENT, UNEXECUTED)


def _probe():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          env=env, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_import_loads_nothing_heavy_and_every_name_resolves():
    loaded, registered, executed, names = _probe()
    assert loaded == [] and executed == []
    assert registered == list(UNEXECUTED)
    assert names.pop("__version__") == "__version__"
    assert names["Cyclo"] == "realforms.exact"
    assert names["verify_gluing"] == "realforms.schwarzenberger"
    assert all(module.startswith("realforms.") for module in names.values())


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
