"""Transition matrices of the Schwarzenberger bundles over the conic."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from realforms.schwarzenberger import (hom_sym, matrix, sym_identity_holds,
                                       verify_gluing)


@pytest.mark.parametrize("k", range(13))
def test_symmetric_power_identity(k):
    assert sym_identity_holds(k)


@pytest.mark.parametrize("b", range(1, 13))
def test_gluing_sign(b):
    assert verify_gluing(b) == {"b": b, "product": "(-1)^(b-1) I2",
                                "sign": (-1) ** (b - 1), "ok": True}


def test_transition_matrices_have_determinant_v_to_the_b():
    # matrix() raises VerificationError unless det A == v^b exactly
    for b in range(1, 8):
        matrix(b)


def test_domain_errors():
    with pytest.raises(ValueError):
        matrix(0)
    with pytest.raises(ValueError):
        hom_sym(-1)


def test_cold_calls_do_not_recurse_with_the_index():
    # P_k is built bottom-up, so a fresh process whose recursion limit is
    # far below b still builds and checks the b-th transition matrix
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys\n"
            "from realforms.schwarzenberger import hom_sym, verify_gluing\n"
            "sys.setrecursionlimit(100)\n"
            "print(len(hom_sym(400).terms), verify_gluing(151)['sign'])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "200 1\n", "")


def test_verify_refuses_a_gluing_range_past_the_bound():
    from realforms import verify
    bound = verify.MAX_B
    rows = verify.run("schwarzenberger", bound)
    assert rows[-1]["check"] == "gluing b = %d" % bound
    for suite in ("schwarzenberger", "all"):
        with pytest.raises(ValueError, match="at most %d" % bound):
            verify.run(suite, bound + 1)


def test_verify_refuses_a_gluing_range_below_one():
    from realforms import verify
    assert verify.run("schwarzenberger", 1)[-1]["check"] == "gluing b = 1"
    for suite in ("schwarzenberger", "all"):
        for b_max in (0, -5):
            with pytest.raises(ValueError, match="at least 1"):
                verify.run(suite, b_max)
