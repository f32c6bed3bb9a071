"""The family conditions of pstwalk.conditions: answered without numpy, and
refusing inputs outside the float range with a named error."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pstwalk as pw
from pstwalk import InvalidArgumentError, NumericFailureError
from pstwalk.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
SRC = str(Path(pw.__file__).resolve().parents[1])

# runs pst as `python -m pstwalk.cli` does, then reports whether numpy loaded
_PROBE = """
import runpy, sys
sys.argv[0] = "pst"
try:
    runpy.run_module("pstwalk.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("numpy loaded: %s\\n" % ("numpy" in sys.modules))
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


_FAMILY_LINES = [
    r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))
    if r["argv"][:1] == ["condition"]
    and r["argv"][1] in ("gluedcone", "cylcone", "p4", "doublecone")
    and r["exit"] == 0
]


@pytest.mark.parametrize("record", _FAMILY_LINES, ids=lambda r: " ".join(r["argv"]))
def test_family_condition_answers_without_numpy(record):
    proc = _python("-c", _PROBE, *record["argv"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "numpy loaded: False\n"
    # no numpy on this path, so the output is the golden one to the byte
    assert proc.stdout == record["stdout"]


# argv, the library call on the same input, and the error it raises
_OUT_OF_RANGE = [
    (["doublecone", "--lam0", "2", "--alpha", "inf"],
     lambda: pw.double_cone_pst_condition(2.0, 0, math.inf), InvalidArgumentError),
    (["doublecone", "--lam0", "1e308", "--alpha", "1e308"],
     lambda: pw.double_cone_pst_condition(1e308, 0, 1e308), NumericFailureError),
    (["doublecone", "--lam0", "inf", "--alpha", "1"],
     lambda: pw.double_cone_pst_condition(math.inf, 0, 1.0), InvalidArgumentError),
    (["doublecone", "--lam0", "nan", "--alpha", "1"],
     lambda: pw.double_cone_pst_condition(math.nan, 0, 1.0), InvalidArgumentError),
    (["doublecone", "--lam0", "0", "--alpha", "1e-200"],  # Delta underflows to 0
     lambda: pw.double_cone_pst_condition(0.0, 0, 1e-200), NumericFailureError),
    (["p4", "--w", "1e300", "--loop", "1e300"],
     lambda: pw.p4_pst_condition(1e300, 1e300), NumericFailureError),
    (["p4", "--w", "1e308", "--loop", "1e308"],  # kappa + gamma is inf
     lambda: pw.p4_pst_condition(1e308, 1e308), NumericFailureError),
    (["p4", "--w", "inf"], lambda: pw.p4_pst_condition(math.inf), InvalidArgumentError),
    (["p4", "--w", "1", "--loop", "nan"],
     lambda: pw.p4_pst_condition(1.0, math.nan), InvalidArgumentError),
    (["p4", "--w", "1", "--loop", "inf"],
     lambda: pw.p4_pst_condition(1.0, math.inf), InvalidArgumentError),
    (["weak", "--g", "K:2", "--h", "K:2", "--time", "nan"],
     lambda: pw.check_weak_pst_condition(pw.complete(2), math.nan, pw.complete(2)),
     InvalidArgumentError),
    (["lex-std", "--g", "K:2", "--h", "Q:2", "--time", "inf"],
     lambda: pw.check_std_lexico_condition(pw.complete(2), pw.hypercube(2), math.inf),
     InvalidArgumentError),
    (["lex-clique", "--g", "K:2", "--h", "K:2", "--time=-inf"],
     lambda: pw.check_lexico_clique_condition(pw.complete(2), pw.complete(2), -math.inf),
     InvalidArgumentError),
    (["weak", "--g", "K:3", "--h", "K:2", "--time", "1e308"],  # t * 2 overflows
     lambda: pw.check_weak_pst_condition(pw.complete(3), 1e308, pw.complete(2)),
     NumericFailureError),
]


@pytest.mark.parametrize(
    "argv, call, error", _OUT_OF_RANGE, ids=[" ".join(c[0]) for c in _OUT_OF_RANGE]
)
def test_out_of_range_condition_input_is_refused(argv, call, error, capsys):
    assert main(["condition", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(error):
        call()


def test_double_cone_fidelity_refuses_an_infinite_scale():
    with pytest.raises(InvalidArgumentError):
        pw.double_cone_fidelity(2.0, 0, math.inf, 1.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
def test_double_cone_condition_refuses_a_nonpositive_scale(alpha):
    with pytest.raises(InvalidArgumentError, match="cone scale alpha must be positive"):
        pw.double_cone_pst_condition(2.0, 0, alpha)


def test_double_cone_condition_refuses_an_apex_weight_the_builder_refuses(capsys):
    message = "apex-apex weight b must be 0 or 1"
    for b in (5, -3):
        assert main(["condition", "doublecone", "--lam0", "2", "--b", str(b), "--alpha", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
        for alpha in (1.0, -1.0):  # the weight is checked before the scale
            with pytest.raises(InvalidArgumentError, match=message):
                pw.double_cone_pst_condition(2.0, b, alpha)
            with pytest.raises(InvalidArgumentError, match=message):
                pw.double_cone(pw.complete(3), b, alpha)


def test_clique_order_beyond_the_float_range_is_refused(capsys):
    m = 10 ** 400
    argv = ["condition", "lex-clique", "--g", "K:2", "--h", "K:2", "--time", "1", "--m", str(m)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(NumericFailureError):
        pw.check_lexico_clique_condition(pw.complete(2), pw.complete(2), 1.0, m)
