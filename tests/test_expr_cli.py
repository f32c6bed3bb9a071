import csv
import io
import json
import math

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import ExprError, GraphFormatError, InvalidSizeError
from pstwalk.cli import main
from pstwalk.expr import GraphExpr, eval_expr, format_expr, parse_expr


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

def test_parse_sized_atoms():
    for text, op, n in [
        ("K:5", "K", 5),
        ("Kbar:3", "Kbar", 3),
        ("P:4", "P", 4),
        ("C:6", "C", 6),
        ("Q:3", "Q", 3),
        ("K:\u0663", "K", 3),  # an Arabic-Indic digit, which int() reads
    ]:
        node = parse_expr(text)
        assert node.op == op and node.param("n") == n and node.args == ()


def test_parse_circulant_and_file_atoms():
    node = parse_expr("circ:15:1,2,4")
    assert node.op == "circ"
    assert node.param("n") == 15 and node.param("jumps") == (1, 2, 4)
    node = parse_expr("file:/tmp/some.graph")
    assert node.op == "file" and node.param("path") == "/tmp/some.graph"
    # only ASCII space, tab, CR and LF end a path; other spaces belong to it
    assert parse_expr("file:a\xa0b").param("path") == "a\xa0b"


def test_parse_operator_arities():
    assert len(parse_expr("weak(Q:2,K:4)").args) == 2
    assert len(parse_expr("glex(Q:2,K:4,Q:2)").args) == 3
    dc = parse_expr("doublecone(K:3;b=1;alpha=1.5)")
    assert dc.args[0].op == "K"
    assert dc.param("b") == 1 and dc.param("alpha") == 1.5
    p4 = parse_expr("p4(w=2.5;loop=0.25)")
    assert p4.param("w") == 2.5 and p4.param("loop") == 0.25
    assert parse_expr("p4(w=2.5)").param("loop") == 0.0
    sc = parse_expr("scale(C:4;2.0)")
    assert sc.param("factor") == 2.0
    cyl = parse_expr("cylcone(C:3;Kbar:2;C:3)")
    assert [a.op for a in cyl.args] == ["C", "Kbar", "C"]


def test_parse_is_whitespace_insensitive():
    tight = parse_expr("weak(Q:2,K:4)")
    spaced = parse_expr("  weak ( Q:2 ,\n\tK:4 )  ")
    assert tight == spaced
    assert parse_expr("weak(Q:2,\u2003K:4)") == tight


def test_circulant_comma_lookahead():
    # the comma after "2" starts the next operator argument, not another jump
    node = parse_expr("cart(circ:5:1,2,K:2)")
    assert node.args[0].param("jumps") == (1, 2)
    assert node.args[1].op == "K"
    node = parse_expr("gluedcone(circ:15:1,2,4 ; circ:15:1,2,4,7)")
    assert node.args[0].param("jumps") == (1, 2, 4)
    assert node.args[1].param("jumps") == (1, 2, 4, 7)


def test_parse_errors_carry_offsets():
    with pytest.raises(ExprError) as ei:
        parse_expr("weak(Q:2")
    assert ei.value.offset == 8
    assert "(offset 8)" in str(ei.value)
    with pytest.raises(ExprError) as ei:
        parse_expr("weak(Q:2, Z:4)")
    assert "unknown name 'Z'" in str(ei.value)
    assert ei.value.offset == 10
    with pytest.raises(ExprError):
        parse_expr("K:x")
    with pytest.raises(ExprError):
        parse_expr("p4(w=abc)")
    with pytest.raises(ExprError) as ei:
        parse_expr("K:2 junk")
    assert "trailing" in str(ei.value)
    with pytest.raises(ExprError):
        parse_expr("")


# Every message and offset below was recorded from the parser before it was
# driven by one table; a rewrite must reproduce each of them exactly.
PARSE_ERRORS = [
    ('', 'expected a name (offset 0)', 0),
    ('   ', 'expected a name (offset 3)', 3),
    ('(K:2)', 'expected a name (offset 0)', 0),
    ('1', 'expected a name (offset 0)', 0),
    ('K', "expected ':' (offset 1)", 1),
    ('K:', 'expected an integer (offset 2)', 2),
    ('K:x', 'expected an integer (offset 2)', 2),
    ('K 5', "expected ':' (offset 2)", 2),
    ('K:-3', 'expected an integer (offset 2)', 2),
    ('Kbar', "expected ':' (offset 4)", 4),
    ('Kbar:', 'expected an integer (offset 5)', 5),
    ('Kbar(3)', "expected ':' (offset 4)", 4),
    ('P:', 'expected an integer (offset 2)', 2),
    ('P:-1', 'expected an integer (offset 2)', 2),
    ('C', "expected ':' (offset 1)", 1),
    ('C:;', 'expected an integer (offset 2)', 2),
    ('Q:', 'expected an integer (offset 2)', 2),
    ('Q:3.5', 'unexpected trailing characters (offset 3)', 3),
    ('circ', "expected ':' (offset 4)", 4),
    ('circ:', 'expected an integer (offset 5)', 5),
    ('circ:5', "expected ':' (offset 6)", 6),
    ('circ:5:', 'expected an integer (offset 7)', 7),
    ('circ:5:1,', 'unexpected trailing characters (offset 8)', 8),
    ('circ:5:x', 'expected an integer (offset 7)', 7),
    ('circ:5;1', "expected ':' (offset 6)", 6),
    ('file', "expected ':' (offset 4)", 4),
    ('file:', 'expected a file path (offset 5)', 5),
    ('file: ', 'expected a file path (offset 6)', 6),
    ('file:(', 'expected a file path (offset 5)', 5),
    ('cart', "expected '(' (offset 4)", 4),
    ('cart(', 'expected a name (offset 5)', 5),
    ('cart(K:2', "expected ',' (offset 8)", 8),
    ('cart(K:2,', 'expected a name (offset 9)', 9),
    ('cart(K:2,K:2', "expected ')' (offset 12)", 12),
    ('cart(K:2;K:2)', "expected ',' (offset 8)", 8),
    ('weak(', 'expected a name (offset 5)', 5),
    ('weak(Q:2,', 'expected a name (offset 9)', 9),
    ('weak:2', "expected '(' (offset 4)", 4),
    ('lex(K:2,K:3', "expected ')' (offset 11)", 11),
    ('lex[K:2,K:3]', "expected '(' (offset 3)", 3),
    ('join(,K:3)', 'expected a name (offset 5)', 5),
    ('join(K:2 K:3)', "expected ',' (offset 9)", 9),
    ('glex(', 'expected a name (offset 5)', 5),
    ('glex(Q:2', "expected ',' (offset 8)", 8),
    ('glex(Q:2,K:4', "expected ',' (offset 12)", 12),
    ('glex(Q:2,K:4,', 'expected a name (offset 13)', 13),
    ('glex(Q:2,K:4,Q:2', "expected ')' (offset 16)", 16),
    ('glex(Q:2,K:4;Q:2)', "expected ',' (offset 12)", 12),
    ('doublecone', "expected '(' (offset 10)", 10),
    ('doublecone(', 'expected a name (offset 11)', 11),
    ('doublecone(K:3', "expected ';' (offset 14)", 14),
    ('doublecone(K:3;', 'expected a name (offset 15)', 15),
    ('doublecone(K:3;c=1;alpha=1)', "expected parameter 'b', got 'c' (offset 16)", 16),
    ('doublecone(K:3;b1;alpha=1)', "expected parameter 'b', got 'b1' (offset 17)", 17),
    ('doublecone(K:3;b=;alpha=1)', 'expected a number (offset 17)', 17),
    ('doublecone(K:3;b=0', "expected ';' (offset 18)", 18),
    ('doublecone(K:3;b=0;', 'expected a name (offset 19)', 19),
    ('doublecone(K:3;b=0;alpha', "expected '=' (offset 24)", 24),
    ('doublecone(K:3;b=0;alpha=', 'expected a number (offset 25)', 25),
    ('doublecone(K:3;b=0;alpha=1', "expected ')' (offset 26)", 26),
    ('doublecone(K:3;b=0;beta=1)', "expected parameter 'alpha', got 'beta' (offset 23)", 23),
    ('doublecone(K:3;b=0;alpha=.e1)', 'expected a number (offset 25)', 25),
    ('doublecone(K:3;b=0;alpha=1.5.2)', "expected ')' (offset 28)", 28),
    ('doublecone(K:3,b=0,alpha=1)', "expected ';' (offset 14)", 14),
    ('doublecone(K:3;alpha=1;b=0)', "expected parameter 'b', got 'alpha' (offset 20)", 20),
    ('gluedcone', "expected '(' (offset 9)", 9),
    ('gluedcone(', 'expected a name (offset 10)', 10),
    ('gluedcone(K:3', "expected ';' (offset 13)", 13),
    ('gluedcone(K:3;', 'expected a name (offset 14)', 14),
    ('gluedcone(K:3;circ:3:1', "expected ')' (offset 22)", 22),
    ('gluedcone(K:3,circ:3:1)', "expected ';' (offset 13)", 13),
    ('cylcone(', 'expected a name (offset 8)', 8),
    ('cylcone(C:3', "expected ';' (offset 11)", 11),
    ('cylcone(C:3;', 'expected a name (offset 12)', 12),
    ('cylcone(C:3;Kbar:2', "expected ';' (offset 18)", 18),
    ('cylcone(C:3;Kbar:2;', 'expected a name (offset 19)', 19),
    ('cylcone(C:3;Kbar:2;C:3', "expected ')' (offset 22)", 22),
    ('cylcone(C:3,Kbar:2,C:3)', "expected ';' (offset 11)", 11),
    ('p4', "expected '(' (offset 2)", 2),
    ('p4(', 'expected a name (offset 3)', 3),
    ('p4(w', "expected '=' (offset 4)", 4),
    ('p4(w=', 'expected a number (offset 5)', 5),
    ('p4(w=-)', 'expected a number (offset 5)', 5),
    ('p4(w=abc)', 'expected a number (offset 5)', 5),
    ('p4(x=1)', "expected parameter 'w', got 'x' (offset 4)", 4),
    ('p4(w 1)', "expected '=' (offset 5)", 5),
    ('p4(w=1;', 'expected a name (offset 7)', 7),
    ('p4(w=1;loop', "expected '=' (offset 11)", 11),
    ('p4(w=1;lop=0)', "expected parameter 'loop', got 'lop' (offset 10)", 10),
    ('p4(w=1;loop=', 'expected a number (offset 12)', 12),
    ('p4(w=1;loop=0', "expected ')' (offset 13)", 13),
    ('p4(w=1,loop=0)', "expected ')' (offset 6)", 6),
    ('p4(w=1;loop=0;)', "expected ')' (offset 13)", 13),
    ('p4(2.5)', 'expected a name (offset 3)', 3),
    ('scale', "expected '(' (offset 5)", 5),
    ('scale(', 'expected a name (offset 6)', 6),
    ('scale(K:3', "expected ';' (offset 9)", 9),
    ('scale(K:3;', 'expected a number (offset 10)', 10),
    ('scale(K:3;x)', 'expected a number (offset 10)', 10),
    ('scale(K:3;1.5', "expected ')' (offset 13)", 13),
    ('scale(K:3;+.)', 'expected a number (offset 10)', 10),
    ('scale(K:3,2)', "expected ';' (offset 9)", 9),
    ('weak(Q:2, Z:4)', "unknown name 'Z' (offset 10)", 10),
    ('cylcone(C:3;foo(K:2);C:3)', "unknown name 'foo' (offset 12)", 12),
    ('scale(k:3;2)', "unknown name 'k' (offset 6)", 6),
    ('doublecone(glex(Q:2,X:1,Q:2);b=0;alpha=1)', "unknown name 'X' (offset 20)", 20),
    ('gluedcone(K:3;circ:3:1;K:2)', "expected ')' (offset 22)", 22),
    ('K:2 junk', 'unexpected trailing characters (offset 4)', 4),
    ('weak(Q:2,K:4))', 'unexpected trailing characters (offset 13)', 13),
    ('p4(w=1) x', 'unexpected trailing characters (offset 8)', 8),
    ('circ:5:1,2 ,', 'unexpected trailing characters (offset 11)', 11),
    ('file:a b', 'unexpected trailing characters (offset 7)', 7),
    ('scale(P:4;0.5)0', 'unexpected trailing characters (offset 14)', 14),
    ('\u00bdK:3', 'expected a name (offset 0)', 0),
    # "\u00b2" passes str.isdigit but not isdecimal, so int() and float() reject it
    ('K:\u00b2', 'expected an integer (offset 2)', 2),
    ('scale(K:3;\u00b2)', 'expected a number (offset 10)', 10),
    ('circ:5:1,\u00b2', 'unexpected trailing characters (offset 8)', 8),
    ('p4(w=1e\u00b2)', "expected ')' (offset 6)", 6),
]


@pytest.mark.parametrize("text,message,offset", PARSE_ERRORS)
def test_parse_error_table(text, message, offset):
    with pytest.raises(ExprError) as ei:
        parse_expr(text)
    assert str(ei.value) == message
    assert ei.value.offset == offset


ROUND_TRIP = [
    "K:4",
    "Kbar:3",
    "P:4",
    "C:6",
    "Q:3",
    "circ:15:1,2,4",
    "file:/tmp/g.pst",
    "weak(Q:2,K:4)",
    "cart(K:2, cart(K:2, K:2))",
    "lex(K:2,Q:2)",
    "join(Kbar:2,K:3)",
    "glex(Q:2,K:4,Q:2)",
    "doublecone(scale(K:3; 1.4142135623730951); b=0; alpha=1.7320508075688772)",
    "gluedcone(circ:15:1,2,4;circ:15:1,2,4,7)",
    "cylcone(C:3;Kbar:2;C:3)",
    "p4(w=1.1547005;loop=0)",
    "p4(w=2.5)",
    "scale(P:4; 0.5)",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_parse_format_parse_round_trip(text):
    node = parse_expr(text)
    canonical = format_expr(node)
    assert parse_expr(canonical) == node
    # the canonical form is a fixed point of another round
    assert format_expr(parse_expr(canonical)) == canonical


def test_round_trip_list_covers_every_head():
    from pstwalk.expr import _HEADS

    assert {parse_expr(text).op for text in ROUND_TRIP} == set(_HEADS)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("doublecone(K:3;b=0.7;alpha=1)", 17),
        ("doublecone(K:3;b=-0.5;alpha=1)", 17),
        ("doublecone(K:3; b = 1.9 ; alpha=1)", 20),
        ("doublecone(K:3;b=1e400;alpha=1)", 17),
    ],
)
def test_doublecone_rejects_non_integral_b(text, offset):
    with pytest.raises(ExprError) as ei:
        parse_expr(text)
    assert str(ei.value) == f"expected an integer (offset {offset})"
    assert ei.value.offset == offset


def test_doublecone_b_accepts_integral_numbers():
    for text in ("b=1", "b=1.0", "b=1e0", "b=+1."):
        b = parse_expr(f"doublecone(K:3;{text};alpha=1)").param("b")
        assert b == 1 and type(b) is int
    with pytest.raises(ExprError) as ei:
        parse_expr("doublecone(K:3;b=.;alpha=1)")
    assert str(ei.value) == "expected a number (offset 17)"


def test_cli_doublecone_b_out_of_range_exits_1(capsys):
    assert main(["build", "--expr", "doublecone(K:3;b=2;alpha=1)"]) == 1
    assert "b must be 0 or 1" in capsys.readouterr().err
    assert main(["build", "--expr", "doublecone(K:3;b=0.7;alpha=1)"]) == 2
    assert "expected an integer (offset 17)" in capsys.readouterr().err


def test_cli_non_finite_weights_exit_1_without_warnings(capsys, recwarn):
    for text, message in (
        ("scale(K:3;1e400)", "scale factor must be finite"),
        ("p4(w=1e400)", "adjacency entries must be finite"),
        ("scale(scale(K:3;1e300);1e300)", "adjacency entries must be finite"),
        ("weak(scale(K:3;1e300),scale(K:3;1e300))", "adjacency entries must be finite"),
        ("glex(scale(K:3;1e300),scale(K:3;1e300),K:3)", "adjacency entries must be finite"),
        ("cart(scale(K:3;1e308),scale(K:3;1e308))", "eigenvalues overflowed to non-finite values"),
    ):
        assert main(["spectrum", "--expr", text]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not recwarn.list


def test_cli_bad_time_windows_exit_1_without_warnings(capsys, recwarn):
    pair = ["--expr", "Q:3", "--from", "0", "--to", "7"]
    grid = "t_grid must hold at least one time, all finite"
    phases = "the phases theta t leave the float range"
    for argv, message in (
        (["fidelity", *pair, "--tmax", "inf", "--steps", "3"], "t_max must be finite"),
        (["scan", *pair, "--tmax", "inf"], "t_max must be finite"),
        (["scan", *pair, "--tmax", "3", "--refine", "-1"], "refine_iters must be non-negative"),
        (["collapse", *pair, "--tmax", "nan", "--steps", "3"], grid),
        (["collapse", *pair, "--tmax", "inf", "--steps", "3"], grid),
        (["collapse", *pair, "--steps", "0"], grid),
        (["collapse", *pair, "--steps", "-1"], grid),
        # finite windows whose phases theta t overflow
        (["scan", *pair, "--tmax", "1e308"], phases),
        (["fidelity", *pair, "--tmax", "1.7e308", "--steps", "3"], phases),
        (["collapse", "--expr", "Q:4", "--from", "0", "--to", "15", "--tmax", "1e308", "--format", "json"], phases),
        # a finite window whose float times cannot resolve the walk
        (["scan", *pair, "--tmax", "1e300"],
         "the scan's rounding bound 5.33e+285 exceeds 0.001: float times up to t_max = 1e+300 cannot resolve the walk"),
    ):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not recwarn.list


def test_path_atom_needs_a_vertex(capsys):
    with pytest.raises(InvalidSizeError):
        eval_expr(parse_expr("P:0"))
    assert np.array_equal(eval_expr(parse_expr("P:1")).adj, pw.complete(1).adj)
    assert main(["build", "--expr", "P:0"]) == 1
    assert "P:n needs n >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------

def test_eval_atoms():
    assert np.array_equal(eval_expr(parse_expr("K:4")).adj, pw.complete(4).adj)
    assert np.array_equal(eval_expr(parse_expr("Kbar:3")).adj, pw.empty_graph(3).adj)
    assert np.array_equal(
        eval_expr(parse_expr("P:4")).adj, pw.path_graph((1.0, 1.0, 1.0)).adj
    )
    assert np.array_equal(eval_expr(parse_expr("C:6")).adj, pw.cycle(6).adj)
    assert np.array_equal(eval_expr(parse_expr("Q:3")).adj, pw.hypercube(3).adj)
    assert np.array_equal(
        eval_expr(parse_expr("circ:8:1,4")).adj, pw.circulant(8, (1, 4)).adj
    )


def test_eval_products_match_library_calls():
    assert np.array_equal(
        eval_expr(parse_expr("cart(K:2,Q:2)")).adj, pw.hypercube(3).adj
    )
    assert np.array_equal(
        eval_expr(parse_expr("weak(Q:2,K:4)")).adj,
        pw.weak_product(pw.hypercube(2), pw.complete(4)).adj,
    )
    g = eval_expr(parse_expr("lex(K:2,Q:2)"))
    assert g.n == 8
    assert np.array_equal(
        g.adj, pw.lexicographic_product(pw.complete(2), pw.hypercube(2)).adj
    )
    assert np.array_equal(
        eval_expr(parse_expr("glex(Q:2,K:4,Q:2)")).adj,
        pw.generalized_lexicographic_product(
            pw.hypercube(2), pw.complete(4), pw.hypercube(2)
        ).adj,
    )
    assert np.array_equal(
        eval_expr(parse_expr("join(Kbar:2,K:3)")).adj,
        pw.join(pw.empty_graph(2), pw.complete(3)).adj,
    )


def test_eval_cones_match_library_calls():
    assert np.array_equal(
        eval_expr(parse_expr("doublecone(K:3;b=0;alpha=1.7320508075688772)")).adj,
        pw.double_cone(pw.complete(3), 0, math.sqrt(3.0)).adj,
    )
    conn = pw.circulant(3, (1,))
    assert np.array_equal(
        eval_expr(parse_expr("gluedcone(K:3;circ:3:1)")).adj,
        pw.glued_double_cone(pw.complete(3), pw.complete(3), conn.adj).adj,
    )
    assert np.array_equal(
        eval_expr(parse_expr("cylcone(C:3;Kbar:2;C:3)")).adj,
        pw.cylindrical_cone(pw.cycle(3), pw.empty_graph(2), pw.cycle(3)).adj,
    )
    assert np.array_equal(
        eval_expr(parse_expr("scale(K:3;1.5)")).adj, 1.5 * pw.complete(3).adj
    )


def test_eval_p4_decimal_weight():
    g = eval_expr(parse_expr("p4(w=1.1547005;loop=0)"))
    want = pw.weighted_p4(2.0 / math.sqrt(3.0), 0.0)
    assert np.max(np.abs(g.adj - want.adj)) < 1e-6


def test_file_atom_round_trip(tmp_path):
    original = pw.double_cone(pw.path_graph((1.0, 2.0)), 1, 0.75)
    path = tmp_path / "cone.graph"
    path.write_text(pw.serialize_graph(original), encoding="utf-8")
    loaded = eval_expr(parse_expr(f"file:{path}"))
    assert np.allclose(loaded.adj, original.adj, atol=1e-12)


def test_file_atom_missing_file():
    with pytest.raises(GraphFormatError) as ei:
        eval_expr(parse_expr("file:/nonexistent/nowhere.graph"))
    assert str(ei.value) == "graph file not found: /nonexistent/nowhere.graph"


def test_file_atom_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.graph"
    path.write_bytes(b"pstgraph 1\nn 2\nlabel 0 caf\xe9\n")
    with pytest.raises(GraphFormatError) as ei:
        eval_expr(parse_expr(f"file:{path}"))
    assert str(ei.value) == f"graph file is not UTF-8: {path} (byte 26)"
    assert main(["build", "--expr", f"file:{path}"]) == 1
    assert capsys.readouterr() == ("", f"error: graph file is not UTF-8: {path} (byte 26)\n")


# ---------------------------------------------------------------------------
# CLI: happy paths
# ---------------------------------------------------------------------------

def _run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_cli_build_round_trips(capsys):
    assert main(["build", "--expr", "cart(K:2,K:2)"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("pstgraph 1")
    assert np.array_equal(pw.parse_graph(text).adj, pw.hypercube(2).adj)


def test_cli_spectrum_json(capsys):
    rc, payload = _run_json(capsys, ["spectrum", "--expr", "Q:3"])
    assert rc == 0
    assert payload["n"] == 8
    assert payload["spectrum"] == pytest.approx([3, 1, 1, 1, -1, -1, -1, -3])


def test_cli_spectrum_csv(capsys):
    assert main(["spectrum", "--expr", "K:3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "lambda"
    assert [float(x) for x in lines[1:]] == pytest.approx([2, -1, -1])


def test_cli_fidelity_csv(capsys):
    rc = main(
        ["fidelity", "--expr", "Q:3", "--from", "0", "--to", "7",
         "--tmax", "2.0", "--steps", "5"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,re,im,abs"
    assert len(lines) == 6
    series = pw.fidelity_series(pw.hypercube(3), 0, 7, 2.0, 5)
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(2.0)
    assert last[3] == pytest.approx(abs(series.amplitudes[-1]))


def test_cli_fidelity_json(capsys):
    rc, payload = _run_json(
        capsys,
        ["fidelity", "--expr", "K:2", "--from", "0", "--to", "1",
         "--tmax", "0.5", "--steps", "3", "--format", "json", "--pi-units"],
    )
    assert rc == 0
    assert payload["source"] == 0 and payload["target"] == 1
    assert len(payload["points"]) == 3
    # pi-units: tmax 0.5 means pi/2, where K2 transfers perfectly
    final = payload["points"][-1]
    assert final["t"] == pytest.approx(math.pi / 2.0)
    assert final["abs"] == pytest.approx(1.0)
    assert set(final) == {"t", "re", "im", "abs"}


def test_cli_scan_finds_weak_product_transfer(capsys):
    rc, payload = _run_json(
        capsys,
        ["scan", "--expr", "weak(Q:2,K:4)", "--from", "0", "--to", "12",
         "--tmax", "6.2832"],
    )
    assert rc == 0
    assert payload["t_star"] == pytest.approx(math.pi / 2.0, abs=1e-6)
    assert payload["fmax"] >= 1.0 - 1e-9
    assert payload["band"] == "numeric PST"


def test_cli_scan_non_cospectral_pair_stays_low(capsys):
    rc, payload = _run_json(
        capsys,
        ["scan", "--expr", "weak(Q:2,K:4)", "--from", "0", "--to", "4",
         "--tmax", "6.2832"],
    )
    assert rc == 0
    assert payload["fmax"] == pytest.approx(0.5, abs=1e-9)
    assert payload["band"] == "no numeric PST"


@pytest.mark.parametrize("argv, t_star, fmax", [
    (["weak(Q:2,K:4)", "0", "12", "--tmax", "6.2832", "--refine", "0"], 1.5708, None),  # the grid point
    (["cylcone(K:3;Kbar:2;K:3)", "0", "9", "--tmax", "2", "--pi-units", "--steps", "20001"],
     math.pi, None),  # a flat top: its highest point
    (["P:5", "0", "4", "--tmax", "200", "--steps", "200001"],
     47.14133575163999, 0.9998478117284203),  # the table's P5 scan
], ids=["refine-0", "flat-top", "P5"])
def test_cli_scan_answers_exactly(capsys, argv, t_star, fmax):
    expr, a, b, *rest = argv
    rc, payload = _run_json(capsys, ["scan", "--expr", expr, "--from", a, "--to", b, *rest])
    assert rc == 0
    assert payload["t_star"] == t_star
    assert fmax is None or payload["fmax"] == fmax


def test_cli_fidelity_on_a_rotated_grid_is_the_closed_form(capsys):
    # a rotated grid whose 3 x 128 inner phases are direct exponentials:
    # |F| = (1 - cos(sqrt(2) t)) / 2 between the ends of P3
    assert main(["fidelity", "--expr", "P:3", "--from", "0", "--to", "2", "--tmax", "2",
                 "--pi-units", "--steps", "300"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 300
    assert max(abs(float(r["abs"]) - (1 - math.cos(math.sqrt(2) * float(r["t"]))) / 2) for r in rows) <= 1e-12


@pytest.mark.parametrize("expr, a, b, verdict, time_exact, support", [
    ("Q:8", 0, 255, "yes", (1, 2), 9),  # n = 256: the quotient route
    ("Q:9", 0, 511, "yes", (1, 2), 10),  # the lift's residual and the cubelike test at n = 512
    # 1 shares a cell with 0's other neighbours in {0}, rest: a finer refinement
    ("Q:8", 0, 1, "no", None, 0),
    ("scale(Q:7;2)", 0, 127, "yes", (1, 4), 8),  # cubelike: Walsh-Hadamard eigenvalues
    ("cart(C:16,K:8)", 0, 64, "unknown", None, 18),  # not cubelike: eigvalsh
    ("P:256", 0, 255, "unknown", None, 256),  # the refinement passes 32 cells and gives up: the dense route
])
def test_cli_certify_at_n_128_and_above(capsys, expr, a, b, verdict, time_exact, support):
    rc, payload = _run_json(capsys, ["certify", "--expr", expr, "--from", str(a), "--to", str(b)])
    assert rc == 0 and payload["verdict"] == verdict and len(payload["support"]) == support
    t = payload["time_exact"]
    assert (t and (t["a"], t["b"])) == time_exact


@pytest.mark.parametrize("expr, line", [
    ("doublecone(scale(K:3;1.5);b=0;alpha=2)", None),
    ("p4(w=2)", None),
    ("Q:4", "label 13 1101"),  # labels built by array operations
    ("Q:10", None),  # n = 1,024: the symmetry check's 16 row blocks
])
def test_cli_build_writes_the_graph_it_evaluates(capsys, expr, line):
    assert main(["build", "--expr", expr]) == 0
    text = capsys.readouterr().out
    g, want = pw.parse_graph(text), eval_expr(parse_expr(expr))
    assert np.array_equal(g.adj, want.adj) and g.labels == want.labels
    assert line is None or line in text.splitlines()


def test_cli_certify_yes(capsys):
    rc, payload = _run_json(
        capsys, ["certify", "--expr", "Q:3", "--from", "0", "--to", "7"]
    )
    assert rc == 0
    assert payload["verdict"] == "yes"
    assert payload["time_num"] == pytest.approx(math.pi / 2.0)
    assert payload["time_exact"] == {"a": 1, "b": 2, "scale": 1.0}
    assert payload["support"] == [0, 1, 2, 3]
    assert payload["signs"] == [0, 1, 0, 1]
    assert "integer differences" in payload["reason"]


def test_cli_certify_no(capsys):
    rc, payload = _run_json(
        capsys, ["certify", "--expr", "K:3", "--from", "0", "--to", "1"]
    )
    assert rc == 0
    assert payload["verdict"] == "no"
    assert payload["time_num"] is None and payload["time_exact"] is None


def test_cli_collapse_json(capsys):
    rc, payload = _run_json(
        capsys, ["collapse", "--expr", "Q:3", "--from", "0", "--to", "7",
                 "--format", "json"]
    )
    assert rc == 0
    assert payload["cells"] == [[0], [1, 2, 4], [3, 5, 6], [7]]
    quotient = pw.parse_graph(payload["quotient"])
    s3 = math.sqrt(3.0)
    want = pw.path_graph((s3, 2.0, s3))
    assert np.allclose(quotient.adj, want.adj, atol=1e-12)
    assert payload["max_deviation"] < 1e-9


def test_cli_collapse_text(capsys):
    rc = main(["collapse", "--expr", "Q:3", "--from", "0", "--to", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("cell 0:")
    assert "pstgraph 1" in out
    assert "max_deviation" in out


@pytest.mark.parametrize("argv", [["table"], ["collapse", "--expr", "Q:2", "--from", "0", "--to", "3"]])
def test_cli_text_format_is_named_and_csv_refused(capsys, argv):
    # text is the default of collapse and table: it is a format they accept,
    # and csv, which they never print, is a usage error
    rc = main(argv)
    default = capsys.readouterr().out
    assert main(argv + ["--format", "text"]) == rc == 0
    assert capsys.readouterr().out == default
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_cli_condition_weak(capsys):
    rc, payload = _run_json(
        capsys,
        ["condition", "weak", "--g", "Q:2", "--h", "K:4",
         "--time", "0.5", "--pi-units"],
    )
    assert rc == 0
    assert payload["holds"] is True
    assert set(payload) == {"holds", "witness", "detail"}


def test_cli_condition_doublecone(capsys):
    rc, payload = _run_json(
        capsys,
        ["condition", "doublecone", "--lam0", "2.8284271247461903",
         "--alpha", "1.7320508075688772"],
    )
    assert rc == 0
    assert payload["holds"] is True
    assert payload["witness"]["ratio"] == [1, 2]
    assert payload["witness"]["class"] == "Q10"


def test_cli_condition_gluedcone(capsys):
    rc, payload = _run_json(
        capsys,
        ["condition", "gluedcone", "--n", "15", "--k", "6", "--gamma", "8"],
    )
    assert rc == 0
    assert payload["holds"] is True
    # Fractions serialize as [numerator, denominator]
    assert payload["witness"]["delta_ratio"] == [2, 1]


@pytest.mark.parametrize(
    "argv, holds",
    [
        (["gluedcone", "--n", "4", "--k", "0", "--gamma", "0"], False),
        (["gluedcone", "--n", "3", "--k", "0", "--gamma", "2"], True),
        (["p4", "--w", "1e9", "--loop", "1e9"], False),
    ],
)
def test_cli_condition_answers_edge_inputs(capsys, argv, holds):
    rc, payload = _run_json(capsys, ["condition"] + argv)
    assert rc == 0
    assert payload["holds"] is holds


def test_cli_condition_cylcone(capsys):
    rc, payload = _run_json(
        capsys, ["condition", "cylcone", "--n", "3", "--k", "2", "--m", "2"]
    )
    assert rc == 0
    assert payload["verdict"] == "no"
    assert payload["params"]["n"] == 3
    assert payload["params"]["k"] == 2
    assert payload["params"]["m"] == 2
    assert len(payload["trace"]) > 0


def test_cli_table_text(capsys):
    assert main(["table"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 8
    for line in lines:
        assert "expected=" in line and "observed=" in line and "[ok]" in line


def test_cli_table_json(capsys):
    rc, payload = _run_json(capsys, ["table", "--format", "json"])
    assert rc == 0
    assert len(payload) == 8
    assert all(row["matches"] for row in payload)
    assert [row["expected"] for row in payload] == [
        "yes", "no", "yes", "no", "no", "yes", "yes", "yes",
    ]


def test_cli_out_writes_atomically(tmp_path, capsys):
    out = tmp_path / "scan.json"
    rc = main(
        ["scan", "--expr", "Q:3", "--from", "0", "--to", "7",
         "--tmax", "6.2832", "--out", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["fmax"] >= 1.0 - 1e-9
    # no stray temp files, and overwriting an existing target works
    assert [p.name for p in tmp_path.iterdir()] == ["scan.json"]
    rc = main(["spectrum", "--expr", "K:2", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text(encoding="utf-8"))["n"] == 2
    assert [p.name for p in tmp_path.iterdir()] == ["scan.json"]


# ---------------------------------------------------------------------------
# CLI: failure modes and exit codes
# ---------------------------------------------------------------------------

def test_cli_expression_error_exits_2(capsys):
    rc = main(["build", "--expr", "weak(Q:2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "offset" in err


def test_cli_missing_condition_flags_exit_2(capsys):
    rc = main(["condition", "weak", "--g", "Q:2"])
    assert rc == 2
    assert "missing required flag" in capsys.readouterr().err


def test_cli_domain_error_exits_1(capsys):
    rc = main(
        ["fidelity", "--expr", "K:3", "--from", "0", "--to", "7",
         "--tmax", "1.0"]
    )
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


def test_cli_collapse_without_antipode_exits_1(capsys):
    rc = main(["collapse", "--expr", "C:5", "--from", "0", "--to", "2"])
    assert rc == 1
    assert "not equitable" in capsys.readouterr().err


def test_cli_unwritable_out_exits_1(tmp_path, capsys):
    rc = main(
        ["spectrum", "--expr", "K:2", "--out", str(tmp_path / "no" / "dir" / "x.json")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_argparse_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["certify", "--from", "0", "--to", "7"])  # --expr missing
    assert ei.value.code == 2
