"""The CLI contract, byte for byte: stdout and exit code of a frozen corpus.

``golden/cases.json`` maps a case name to its command-line arguments;
``golden/<name>.out`` holds the expected standard output and
``golden/exit_codes.json`` the expected exit codes.  Re-record them only
from code whose output is trusted, all cases or only the named ones:

    PYTHONPATH=src python tests/test_golden.py --record [NAME ...]
"""

import io
import json
import os
import shutil
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
             "error-square", "classify-repeated-conductor77",
             "classify-GmZ2", "classify-E8", "classify-D24", "classify-E6")


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


def test_missing_family_option_is_named(capsys):
    assert _run(CASES["error-family-missing-option"]) == (b"", 2)
    assert "family Fabc needs --b, --c" in capsys.readouterr().err


def test_non_real_fiber_error_names_no_library_function(capsys):
    assert _run(["classify-qg", "--poly", "i*u0^4+i*u1^4"]) == (b"", 2)
    assert capsys.readouterr().err == "error: g must have real coefficients\n"


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


def _cli_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_optimized_interpreter_matches_golden():
    env = _cli_env()
    for name in OPTIMIZED:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "realforms.cli"] + CASES[name],
            capture_output=True, env=env, timeout=120)
        assert (proc.stdout, proc.returncode) == _expected(name), name


def test_closed_stdout_ends_quietly():
    # the read end is closed before the command writes its roughly
    # 0.28 MB report, so the first write meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "realforms.cli", "torus", "--d", "100"],
            stdout=write_end, stderr=subprocess.PIPE, env=_cli_env(),
            timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_conductor_77_fiber_classifies_cold():
    # Yun's remainder sequence over Q(zeta_77) ran for minutes on this
    # squarefree fiber; a split prime proves it squarefree at once
    a, b = "(zeta(7)+zeta(7)^6)", "(zeta(11)+zeta(11)^10)"
    poly = ("u0^12 + 2*%s*u0^11*u1 - u0^10*u1^2 + u0^9*u1^3 - 2*u0^8*u1^4"
            " + (1+3*%s)*u0^7*u1^5 + 3*u0^5*u1^7 - 2*u0^4*u1^8"
            " + 2*u0^3*u1^9 - u0^2*u1^10 + 3*u0*u1^11 - u1^12" % (a, b))
    proc = subprocess.run(
        [sys.executable, "-m", "realforms.cli", "classify-qg", "--poly",
         poly], capture_output=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n"] == 6


def test_record_writes_only_the_named_cases(tmp_path):
    # on a copy of the corpus: one case spoiled and re-recorded, one
    # spoiled and left alone, then an unknown name that writes nothing
    shutil.copytree(GOLDEN, tmp_path / "golden")
    script = tmp_path / "record.py"
    shutil.copy(__file__, script)
    copy = tmp_path / "golden"
    for name in ("classify-D4", "error-parse"):
        (copy / ("%s.out" % name)).write_bytes(b"stale\n")
    codes = json.loads((copy / "exit_codes.json").read_text())
    codes["classify-D4"] = 7
    (copy / "exit_codes.json").write_text(json.dumps(codes))

    def snapshot():
        return {f.name: f.read_bytes() for f in copy.iterdir()}

    def record(*names):
        return subprocess.run(
            [sys.executable, str(script), "--record", *names],
            capture_output=True, env=_cli_env(), timeout=120)

    assert record("classify-D4").returncode == 0
    after = snapshot()
    assert after["classify-D4.out"] == _expected("classify-D4")[0]
    assert after["error-parse.out"] == b"stale\n"
    codes["classify-D4"] = 0
    assert json.loads(after["exit_codes.json"]) == codes
    assert {name: data for name, data in after.items()
            if name not in ("error-parse.out", "exit_codes.json")} == \
        {f.name: f.read_bytes() for f in GOLDEN.iterdir()
         if f.name not in ("error-parse.out", "exit_codes.json")}
    proc = record("classify-D4", "no-such-case")
    assert proc.returncode != 0
    assert b"unknown case no-such-case" in proc.stderr
    assert snapshot() == after


def _record(names):
    """Write the output and exit code of the named cases, or of all."""
    codes = {}
    if names:
        codes = json.loads(
            (GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    for name in names or sorted(CASES):
        stdout, code = _run(CASES[name])
        (GOLDEN / ("%s.out" % name)).write_bytes(stdout)
        codes[name] = code
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    usage = "usage: python tests/test_golden.py --record [NAME ...]"
    if sys.argv[1:2] != ["--record"]:
        sys.exit(usage)
    unknown = [name for name in sys.argv[2:] if name not in CASES]
    if unknown:
        sys.exit("unknown case %s\n%s" % (", ".join(unknown), usage))
    _record(sys.argv[2:])
