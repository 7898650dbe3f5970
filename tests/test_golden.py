"""The CLI contract, byte for byte: stdout and exit code of a frozen corpus.

``golden/cases.json`` maps a case name to its command-line arguments;
``golden/<name>.out`` holds the expected standard output and
``golden/exit_codes.json`` the expected exit codes.  Re-record them only
from code whose output is trusted:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import realforms
from realforms import registry, schwarzenberger
from realforms.cli import main

GOLDEN = Path(__file__).with_name("golden")
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
# fast cases replayed under ``python -O``, where assert statements vanish
OPTIMIZED = ("h1-A4", "forms-Q3", "links-H1", "torus-d2", "lattice-Wb",
             "classify-D4", "classify-E7", "classify-D3",
             "verify-schwarzenberger", "verify-involutions",
             "verify-witnesses", "verify-qg-table", "error-parse",
             "error-square")


def _run(args):
    """(stdout bytes, exit code) of one in-process CLI invocation."""
    buffer = io.BytesIO()
    capture = io.TextIOWrapper(buffer, "utf-8")
    stdout, sys.stdout = sys.stdout, capture
    try:
        main(args, prog_name="realforms")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(
            exc.code is not None)
    finally:
        capture.flush()
        sys.stdout = stdout
    return buffer.getvalue(), code


def _expected(name):
    codes = json.loads(
        (GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    return (GOLDEN / ("%s.out" % name)).read_bytes(), codes[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert _run(CASES[name]) == _expected(name)


@pytest.mark.parametrize("command", [
    [], ["h1"], ["classify-qg"], ["lattice"], ["forms"], ["links"],
    ["torus"], ["verify"]])
def test_help_exits_zero(command):
    # the help text itself is not part of the contract
    assert _run(command + ["--help"])[1] == 0


def test_version_prints_the_package_version():
    assert _run(["--version"]) == (
        ("realforms %s\n" % realforms.__version__).encode(), 0)


@pytest.mark.parametrize("args", [
    ["h1", "--group", "A\u0664"],     # ARABIC-INDIC DIGIT FOUR
    ["h1", "--group", "A\u00b2"],     # SUPERSCRIPT TWO
    ["links", "--form", "G_\u0661"],  # ARABIC-INDIC DIGIT ONE
])
def test_names_take_only_ascii_digits(args, capsys):
    assert _run(args) == (b"", 2)
    assert "error: unknown " in capsys.readouterr().err
    assert _run(["links", "--form", "G_01"])[1] == 0


def test_failed_identity_exits_3_with_nothing_on_stdout(monkeypatch, capsys):
    monkeypatch.setattr(schwarzenberger, "sym_identity_holds",
                        lambda k: False)
    assert _run(["verify", "--suite", "schwarzenberger"]) == (b"", 3)
    assert capsys.readouterr().err.startswith("verification failure:")


def test_unexpected_errors_are_not_mapped_to_an_exit_code(monkeypatch):
    def broken(dimension):
        raise RuntimeError("not a domain error")

    monkeypatch.setattr(registry, "torus_forms", broken)
    with pytest.raises(RuntimeError, match="not a domain error"):
        _run(["torus", "--d", "2"])


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
