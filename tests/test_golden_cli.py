"""Golden outputs of the pst command: exit code, stdout and stderr of each
command line below, recorded in golden_cli.json.

Numbers that carry a decimal point or an exponent are compared to
FLOAT_ATOL absolute, so that last-ulp differences between LAPACK builds
do not count; every other character must match exactly.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from pstwalk.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
FLOAT_ATOL = 1e-9

COMMANDS = (
    # the README command lines
    ("certify", "--expr", "Q:3", "--from", "0", "--to", "7"),
    ("scan", "--expr", "weak(Q:2,K:4)", "--from", "0", "--to", "12", "--tmax", "6.2832"),
    ("fidelity", "--expr", "P:3", "--from", "0", "--to", "2", "--tmax", "2",
     "--pi-units", "--steps", "500"),
    ("spectrum", "--expr", "gluedcone(circ:15:1,2,4; circ:15:1,2,4,7)"),
    ("collapse", "--expr", "Q:4", "--from", "0", "--to", "15", "--format", "json"),
    ("condition", "gluedcone", "--n", "15", "--k", "6", "--gamma", "8"),
    ("condition", "cylcone", "--n", "3", "--k", "2", "--m", "2"),
    ("build", "--expr", "weak(Q:2,K:4)"),
    ("table",),
    # other formats
    ("table", "--format", "json"),
    ("collapse", "--expr", "Q:4", "--from", "0", "--to", "15"),
    # certificates: yes, no, unknown
    ("certify", "--expr", "C:6", "--from", "0", "--to", "3"),
    ("certify", "--expr", "P:5", "--from", "0", "--to", "4"),
    # the remaining conditions
    ("condition", "weak", "--g", "Q:2", "--h", "K:4", "--time", "0.5", "--pi-units"),
    ("condition", "lex-clique", "--g", "K:2", "--h", "Q:2", "--time", "0.5", "--pi-units"),
    ("condition", "lex-std", "--g", "K:2", "--h", "Q:2", "--time", "0.5", "--pi-units"),
    ("condition", "doublecone", "--lam0", "2.8284271247461903", "--alpha",
     "1.7320508075688772"),
    ("condition", "doublecone", "--lam0", "2.0", "--b", "1", "--alpha", "1.5"),
    ("condition", "p4", "--w", "1.1547005383792517"),
    ("condition", "p4", "--w", "0.75", "--loop", "0.75"),
    # errors
    ("condition", "weak", "--g", "Q:2"),
    ("condition", "p4"),
    ("condition", "cylcone", "--n", "3"),
    ("collapse", "--expr", "P:4", "--from", "1", "--to", "3"),
    ("collapse", "--expr", "Q:3", "--from", "0", "--to", "3"),
)

# a decimal number, with or without a sign, a fraction or an exponent
_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def run(argv):
    """(exit code, stdout, stderr) of one in-process pst run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_matches(got, want):
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    if got_parts[0::2] != want_parts[0::2]:
        assert got == want
    for g, w in zip(got_parts[1::2], want_parts[1::2]):
        if g.lstrip("+-").isdigit() and w.lstrip("+-").isdigit():
            assert g == w
        else:
            assert abs(float(g) - float(w)) <= FLOAT_ATOL, (g, w)


@pytest.fixture(scope="module")
def golden():
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(r["argv"]): r for r in records}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv, golden):
    want = golden[argv]
    code, out, err = run(argv)
    assert code == want["exit"]
    _assert_matches(out, want["stdout"])
    _assert_matches(err, want["stderr"])
