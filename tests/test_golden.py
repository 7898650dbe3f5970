"""The CLI contract, byte for byte: stdout and exit code of a frozen corpus.

``golden/cases.json`` maps a case name to its command-line arguments;
``golden/<name>.out`` holds the expected standard output and
``golden/exit_codes.json`` the expected exit codes.  Re-record them only
from code whose output is trusted:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from realforms.cli import main

GOLDEN = Path(__file__).with_name("golden")
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
# fast cases replayed under ``python -O``, where assert statements vanish
OPTIMIZED = ("h1-A4", "forms-Q3", "links-H1", "torus-d2", "lattice-Wb",
             "classify-D4", "verify-schwarzenberger", "error-parse",
             "error-square")


def _run(args):
    result = CliRunner().invoke(main, args)
    return result.stdout_bytes, result.exit_code


def _expected(name):
    codes = json.loads(
        (GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    return (GOLDEN / ("%s.out" % name)).read_bytes(), codes[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert _run(CASES[name]) == _expected(name)


def test_optimized_interpreter_matches_golden():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    for name in OPTIMIZED:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "realforms.cli"] + CASES[name],
            capture_output=True, env=env, timeout=120)
        assert (proc.stdout, proc.returncode) == _expected(name), name


def _record():
    codes = {}
    for name in sorted(CASES):
        stdout, code = _run(CASES[name])
        (GOLDEN / ("%s.out" % name)).write_bytes(stdout)
        codes[name] = code
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
