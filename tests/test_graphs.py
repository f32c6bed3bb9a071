import copy
import math
import pickle
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import (
    Graph,
    GraphFormatError,
    InvalidArgumentError,
    InvalidSizeError,
    SelfLoopError,
    UnsupportedGraphError,
)
from pstwalk.graphs import _layered, _own


def test_complete_graph_basics():
    g = pw.complete(4)
    assert g.n == 4
    assert np.array_equal(g.adj, np.ones((4, 4)) - np.eye(4))
    assert pw.regular_degree(g) == 3
    assert g.is_unweighted() and not g.has_loops()


def test_complete_rejects_nonpositive_order():
    with pytest.raises(InvalidSizeError):
        pw.complete(0)


def test_path_graph_weights_and_loops():
    g = pw.path_graph([3.0, 1.5], loops=(0.0, 2.0, 0.0))
    expected = np.array([[0, 3, 0], [3, 2, 1.5], [0, 1.5, 0]], dtype=float)
    assert np.array_equal(g.adj, expected)
    assert g.has_loops()


def test_path_graph_scalar_loop_broadcasts():
    g = pw.path_graph([1.0, 1.0], loops=0.5)
    assert np.array_equal(np.diag(g.adj), [0.5, 0.5, 0.5])


def test_single_vertex_path():
    g = pw.path_graph([])
    assert g.n == 1
    assert g.adj.shape == (1, 1)


def test_cycle_matches_circulant():
    assert pw.cycle(7) == pw.circulant(7, [1])
    with pytest.raises(InvalidSizeError):
        pw.cycle(2)


def test_circulant_symmetrizes_jumps():
    g = pw.circulant(8, [3])
    # jump 3 implies jump 5 as well
    assert g.adj[0, 3] == 1 and g.adj[0, 5] == 1
    assert pw.regular_degree(g) == 2


def test_circulant_rejects_zero_and_oversized_jumps():
    with pytest.raises(SelfLoopError):
        pw.circulant(6, [0, 1])
    with pytest.raises(InvalidArgumentError):
        pw.circulant(6, [6])


def test_hypercube_labels_and_degree():
    g = pw.hypercube(3)
    assert g.n == 8
    assert pw.regular_degree(g) == 3
    assert g.labels[0] == "000" and g.labels[5] == "101"
    # antipodal vertices differ in every bit, hence are non-adjacent
    assert g.adj[0, 7] == 0


def _circulant_by_loop(n, jumps):
    a = np.zeros((n, n))
    for s in jumps:
        s = int(s)
        if s == 0:
            raise SelfLoopError("connection set must not contain 0 (self-loop)")
        if s < 0 or s >= n:
            raise InvalidArgumentError(f"connection {s} outside 1..{n - 1}")
        for j in range(n):
            k = (j + s) % n
            a[j, k] = a[k, j] = 1.0
    return a


def test_circulant_matches_the_entry_loop():
    for n in range(1, 41):
        for jumps in ([], [1], [1, 2], [2, n - 1], [1, 3, 7, 3], [n // 2], range(1, n),
                      [1, 0, n], [1, n, 0], [-1], [2, n + 3]):
            try:
                want = _circulant_by_loop(n, jumps)
            except (SelfLoopError, InvalidArgumentError) as exc:
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    pw.circulant(n, jumps)
                continue
            g = pw.circulant(n, jumps)
            assert g.adj.tobytes() == want.tobytes() and g.labels is None


def test_hypercube_matches_the_entry_loop():
    for d in range(1, 11):
        m = 1 << d
        want = np.zeros((m, m))
        for i in range(m):
            for bit in range(d):
                want[i, i ^ (1 << bit)] = 1.0
        g = pw.hypercube(d)
        assert g.adj.tobytes() == want.tobytes()
        assert g.labels == tuple(format(i, f"0{d}b") for i in range(m))


@pytest.mark.parametrize("v", [0.9, 7.5, "3", 3.0, None])
def test_vertices_must_be_integers(v):
    # read through operator.index: a float or a string is refused, not
    # truncated or parsed into another vertex
    g = pw.hypercube(3)
    with pytest.raises(InvalidArgumentError, match=r"^vertex .* is not an integer$"):
        g.check_vertex(v)
    for call in (lambda: pw.pst_certificate(g, v, 7), lambda: pw.pst_certificate(g, 0, v),
                 lambda: pw.distance_partition(g, v)):
        with pytest.raises(InvalidArgumentError, match="is not an integer"):
            call()
    assert g._kept == {}


def test_numpy_integer_vertices_are_accepted():
    g = pw.hypercube(3)
    v = g.check_vertex(np.int64(3))
    assert v == 3 and type(v) is int
    assert pw.pst_certificate(g, np.int64(0), np.int32(7)) == pw.pst_certificate(g, 0, 7)


def test_regular_degree_of_several_graphs_is_one_decision():
    assert pw.regular_degree(pw.cycle(4), pw.complete(3), pw.hypercube(2)) == 2.0
    assert pw.regular_degree(pw.cycle(4), pw.complete(4)) is None
    assert pw.regular_degree(pw.cycle(4), pw.path_graph([1.0, 1.0])) is None


@pytest.mark.parametrize("v", [-1, 3, 1.0, "1"])
def test_weight_checks_both_vertices(v):
    # as check_vertex does: -1 is not read as the last vertex, 3 raises no
    # bare IndexError and 1.0 is not read as vertex 1
    g = pw.path_graph([1.0, 2.0])
    with pytest.raises(InvalidArgumentError) as want:
        g.check_vertex(v)
    for call in (lambda: g.weight(v, 0), lambda: g.weight(0, v)):
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(str(want.value))}$"):
            call()
    assert g.weight(np.int64(1), 2) == 2.0


def test_layered_places_blocks_and_mirrors_links():
    blocks = [[[5.0]], [[0.0, 4.0], [4.0, 0.0]], np.full((3, 3), 6.0)]
    a = _layered(blocks, {(0, 1): -0.0, (0, 2): [[1.0, 2.0, 3.0]], (1, 2): 7.0})
    expected = np.array(
        [
            [5.0, -0.0, -0.0, 1.0, 2.0, 3.0],
            [-0.0, 0.0, 4.0, 7.0, 7.0, 7.0],
            [-0.0, 4.0, 0.0, 7.0, 7.0, 7.0],
            [1.0, 7.0, 7.0, 6.0, 6.0, 6.0],
            [2.0, 7.0, 7.0, 6.0, 6.0, 6.0],
            [3.0, 7.0, 7.0, 6.0, 6.0, 6.0],
        ]
    )
    assert np.array_equal(a, expected) and np.array_equal(np.signbit(a), np.signbit(expected))
    # blocks with no link between them stay zero
    assert np.array_equal(_layered([[[1.0]], [[2.0]]], {}), np.diag([1.0, 2.0]))


def test_join_puts_left_operand_first():
    g = pw.join(pw.empty_graph(2), pw.complete(3))
    assert g.n == 5
    assert g.adj[0, 1] == 0  # the two apexes stay non-adjacent
    assert all(g.adj[0, v] == 1 for v in range(2, 5))
    assert g.adj[2, 3] == 1
    assert g.labels is None
    labelled = pw.join(pw.hypercube(1), pw.scale(pw.hypercube(1), -1.0))
    expected = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, -0.0, -1], [1, 1, -1, -0.0]]
    assert np.array_equal(labelled.adj, expected)
    assert np.array_equal(np.signbit(labelled.adj), np.signbit(expected))
    assert labelled.labels == ("0", "1", "0", "1")
    assert pw.join(pw.hypercube(1), pw.complete(2)).labels is None


def test_complement_involution_unweighted():
    for g in [pw.cycle(6), pw.path_graph([1.0] * 4), pw.complete(5)]:
        assert pw.complement(pw.complement(g)) == g


def test_complement_rejects_weighted():
    with pytest.raises(UnsupportedGraphError):
        pw.complement(pw.scale(pw.complete(3), 2.0))


def test_scale_multiplies_weights():
    g = pw.scale(pw.complete(3), math.sqrt(2.0))
    assert np.allclose(g.adj, math.sqrt(2.0) * (np.ones((3, 3)) - np.eye(3)))


def test_graph_rejects_asymmetric_matrix():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(InvalidArgumentError):
        Graph(bad)


@pytest.mark.parametrize("bad", [[[0.0, np.inf], [np.inf, 0.0]],
                                 [[0.0, np.nan], [np.nan, 0.0]],
                                 [[0.0, np.inf], [1.0, 0.0]]])
def test_graph_checks_finiteness_before_symmetry(bad):
    with pytest.raises(InvalidArgumentError, match="adjacency entries must be finite"):
        Graph(bad)


@pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan, float("1e400")])
def test_scale_rejects_non_finite_factor(factor):
    with pytest.raises(InvalidArgumentError, match="scale factor must be finite"):
        pw.scale(pw.complete(3), factor)


@pytest.mark.filterwarnings("error")
def test_scale_reports_overflow_once():
    with pytest.raises(InvalidArgumentError, match="adjacency entries must be finite"):
        pw.scale(pw.scale(pw.complete(3), 1e300), 1e300)


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy])
def test_graph_pickles_and_copies(clone):
    g = pw.hypercube(3)
    pw.spectrum(g)
    pw.strong_cospectrality(g, 0, 7)
    assert ("eigenpairs",) in g._kept and ("pair", 0, 7) in g._kept
    back = clone(g)
    assert back == g and back.labels == g.labels
    assert hash(back) == hash(g) and repr(back) == repr(g)
    assert not back.adj.flags.writeable
    # neither the kept eigendecomposition nor the kept pair is carried
    assert back._kept == {}


def _symmetric(n, seed=0):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-2.0, 2.0, size=(n, n)))
    return upper + np.triu(upper, 1).T


@pytest.mark.parametrize("build", [Graph, lambda a: _own(a.copy()),
                                   lambda a: pw.scale(SimpleNamespace(adj=a, labels=None), 2.0)],
                         ids=["Graph", "_own", "scale"])
@pytest.mark.parametrize("i, j", [(63, 64), (64, 63), (0, 129), (129, 128), (127, 128)])
def test_symmetry_check_refuses_a_mirror_pair_at_every_block_edge(build, i, j):
    # 130 vertices: row blocks 0-63, 64-127 and 128-129 of the check
    a = _symmetric(130)
    build(a)
    a[i, j] = a[j, i] + 1.0
    with pytest.raises(InvalidArgumentError, match="^adjacency must be exactly symmetric$"):
        build(a)


@pytest.mark.parametrize("build", [Graph, lambda a: _own(a.copy())], ids=["Graph", "_own"])
def test_symmetry_check_reads_negative_zero_as_zero(build):
    a = _symmetric(130)
    for i, j in [(3, 100), (64, 63), (129, 0), (128, 128)]:
        a[i, j], a[j, i] = -0.0, 0.0
    g = build(a)
    assert g.adj.tobytes() == a.tobytes() and np.signbit(g.adj[3, 100]) and not np.signbit(g.adj[100, 3])


def test_graph_copies_what_it_is_given():
    a = _symmetric(130)
    for given in (a, np.asfortranarray(a)):
        g = Graph(given)
        assert not np.shares_memory(g.adj, given) and g.adj.flags.c_contiguous
        given[0, 1] = given[1, 0] = 99.0
        assert g.adj[0, 1] != 99.0 and given.flags.writeable
    g = pw.hypercube(3)
    for copied in (g.relabelled(None), pickle.loads(pickle.dumps(g))):
        assert copied == g and not np.shares_memory(copied.adj, g.adj)


def _peak_bytes(build, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build, args", [
    (pw.hypercube, (9,)),
    (pw.complete, (512,)),
    (pw.circulant, (512, [1, 2])),
    (pw.weak_product, (pw.hypercube(4), pw.complete(32))),
    (pw.scale, (pw.hypercube(9), 2.0)),
    (pw.lexicographic_product, (pw.path_graph([1.0] * 15), pw.complete(32))),
], ids=["hypercube", "complete", "circulant", "weak_product", "scale", "lexicographic_product"])
def test_builders_hold_one_adjacency(build, args):
    # the builder's array is the graph's: no copy, and no n x n temporary in the checks
    assert _peak_bytes(build, *args) < 1.5 * 512 * 512 * 8


def _signed():
    # weights of both signs, -0.0 entries off the diagonal and a -0.0 loop
    return pw.scale(pw.path_graph([1.0, 0.0, 2.5], loops=(0.0, 1.5, 0.0, -2.0)), -1.0)


def _block(*rows):
    return np.block([[np.atleast_2d(np.asarray(x, dtype=float)) for x in row] for row in rows])


def _parent_rules():
    """(graph from a builder, its adjacency by the rule the builders used
    before they handed their arrays over without a copy)."""
    s, q, k = _signed(), pw.hypercube(2), pw.complete(4)
    unweighted = Graph(np.where(pw.cycle(4).adj == 1.0, 1.0, -0.0))  # -0.0 on the diagonal too
    base = Graph([[0.0, 1.0, -0.0], [1.0, 0.0, 2.0], [-0.0, 2.0, 0.0]])  # connected, nonnegative
    spoke = 1.5 * pw.perron_vector(base)[1][None, :]
    ones, zero = np.ones, np.zeros((1, 1))
    path = np.zeros((4, 4))
    for i, w in enumerate([3.0, -0.0, 1.0]):
        path[i, i + 1] = path[i + 1, i] = w
    np.fill_diagonal(path, [0.5, -0.0, 0.0, 2.0])
    text = "pstgraph 1\nn 3\nlabel 1 b\nedge 0 1 -0.0\nedge 2 2 -1.5\nedge 1 2 2\n"
    parsed = np.zeros((3, 3))
    parsed[0, 1] = parsed[1, 0] = -0.0
    parsed[2, 2], parsed[1, 2], parsed[2, 1] = -1.5, 2.0, 2.0
    return [
        (pw.complete(5), np.ones((5, 5)) - np.eye(5)),
        (pw.empty_graph(3), np.zeros((3, 3))),
        (pw.path_graph([3.0, -0.0, 1.0], (0.5, -0.0, 0.0, 2.0)), path),
        (pw.complement(unweighted), np.ones((4, 4)) - np.eye(4) - unweighted.adj),
        (pw.join(s, q), _block([s.adj, ones((4, 4))], [ones((4, 4)), q.adj])),
        (pw.scale(s, -2.0), s.adj * -2.0),
        (pw.scale(q, 0.0), q.adj * 0.0),
        (pw.parse_graph(text), parsed),
        (pw.weak_product(s, q), np.kron(s.adj, q.adj)),
        (pw.weak_product(q, s), np.kron(q.adj, s.adj)),
        (pw.cartesian_product(s, q), np.kron(s.adj, np.eye(4)) + np.kron(np.eye(4), q.adj)),
        (pw.cartesian_product(q, s), np.kron(q.adj, np.eye(4)) + np.kron(np.eye(4), s.adj)),
        (pw.lexicographic_product(s, s), np.kron(s.adj, ones((4, 4))) + np.kron(np.eye(4), s.adj)),
        (pw.generalized_lexicographic_product(q, s, s), np.kron(q.adj, s.adj) + np.kron(np.eye(4), s.adj)),
        (pw.double_cone(base, 1, 1.5), _block([zero, 1.0, spoke], [1.0, zero, spoke], [spoke.T, spoke.T, base.adj])),
        (pw.glued_double_cone(k, k, np.eye(4)),
         _block([zero, ones((1, 4)), np.zeros((1, 4)), zero], [ones((4, 1)), k.adj, np.eye(4), np.zeros((4, 1))],
                [np.zeros((4, 1)), np.eye(4), k.adj, ones((4, 1))], [zero, np.zeros((1, 4)), ones((1, 4)), zero])),
        (pw.cylindrical_cone(q, s, k), _block(
            [zero, ones((1, 4)), np.zeros((1, 4)), np.zeros((1, 4)), zero],
            [ones((4, 1)), q.adj, ones((4, 4)), np.zeros((4, 4)), np.zeros((4, 1))],
            [np.zeros((4, 1)), ones((4, 4)), s.adj, ones((4, 4)), np.zeros((4, 1))],
            [np.zeros((4, 1)), np.zeros((4, 4)), ones((4, 4)), k.adj, ones((4, 1))],
            [zero, np.zeros((1, 4)), np.zeros((1, 4)), ones((1, 4)), zero])),
    ]


def test_builders_match_the_copying_rules_bit_for_bit():
    for g, want in _parent_rules():
        assert g.adj.tobytes() == want.tobytes(), repr(g)
        assert g.adj.dtype == np.float64 and g.adj.flags.c_contiguous and not g.adj.flags.writeable
    # the rules above do hold -0.0 entries where the builders keep them
    assert all(np.signbit(g.adj[np.asarray(g.adj) == 0.0]).any() for g, _ in _parent_rules()[8:10])
    q = pw.quotient_symmetrized(pw.hypercube(3), pw.distance_partition(pw.hypercube(3), 0))
    assert not q.graph.adj.flags.writeable and q.graph.adj.flags.c_contiguous


def test_adjacency_symmetry_is_bitwise(corpus):
    for g in corpus:
        assert np.array_equal(g.adj, g.adj.T)


def test_circulants_commute():
    n = 12
    sets = [[1], [2, 5], [1, 3, 4], [6]]
    mats = [pw.circulant(n, s).adj for s in sets]
    bound = 1e-12 * n * max(np.abs(m).max() for m in mats) ** 2
    for a in mats:
        for b in mats:
            assert np.abs(a @ b - b @ a).max() <= bound


def test_distance_matrix_properties(corpus):
    for g in corpus[:40]:
        d = pw.distance_matrix(g)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        finite = np.isfinite(d)
        for i in range(g.n):
            for j in range(g.n):
                if not finite[i, j]:
                    continue
                # triangle inequality through every intermediate vertex
                via = d[i, :] + d[:, j]
                assert d[i, j] <= np.nanmin(np.where(np.isfinite(via), via, np.inf)) + 1e-12


def test_distance_matrix_ignores_weights_and_loops():
    g = pw.path_graph([5.0, 0.25], loops=(1.0, 0.0, 0.0))
    d = pw.distance_matrix(g)
    assert d[0, 2] == 2
    assert d[0, 0] == 0


def test_is_connected():
    assert pw.is_connected(pw.cycle(5))
    assert not pw.is_connected(pw.empty_graph(3))


def test_serialize_round_trip(corpus):
    for g in corpus:
        back = pw.parse_graph(pw.serialize_graph(g))
        assert back.n == g.n
        assert np.array_equal(back.adj, g.adj)
        assert back.labels == g.labels


def _serialize_by_loop(g):
    """The reference: every (u, v) with u <= v, one Python step each."""
    lines = [pw.graphs.FORMAT_HEADER, f"n {g.n}"]
    lines += [f"label {i} {s}" for i, s in enumerate(g.labels or ())]
    for u in range(g.n):
        for v in range(u, g.n):
            w = g.adj[u, v]
            if w != 0.0:
                lines.append(f"edge {u} {v} {w:.17g}")
    return "\n".join(lines) + "\n"


def test_serialize_matches_the_loop_reference_byte_for_byte():
    rng = np.random.default_rng(7)
    a = np.triu(rng.normal(size=(40, 40)) * (rng.random((40, 40)) < 0.3))
    a[np.diag_indices(40)] = rng.normal(size=40)
    a = a + np.triu(a, 1).T
    a[3, 9] = a[9, 3] = a[5, 5] = -0.0
    a[0, 39] = a[39, 0] = 1e-300
    weighted = Graph(a)
    assert np.signbit(weighted.adj[3, 9]) and np.signbit(weighted.adj[5, 5])
    assert weighted.has_loops()
    for g in (pw.hypercube(9), weighted):
        assert pw.serialize_graph(g).encode() == _serialize_by_loop(g).encode()


def test_serialize_keeps_labels_and_loops():
    g = pw.path_graph([1.0], loops=(0.5, 0.0)).relabelled(["left", "right"])
    text = pw.serialize_graph(g)
    assert "pstgraph 1" in text.splitlines()[0]
    assert "label 0 left" in text
    assert "edge 0 0 0.5" in text
    back = pw.parse_graph(text)
    assert back == g


def test_serialize_keeps_inline_hash_in_labels():
    g = pw.complete(2).relabelled(["a  b", "b # c"])
    back = pw.parse_graph(pw.serialize_graph(g))
    assert back == g and back.labels == g.labels


@pytest.mark.parametrize(
    "label", ["a\nedge 0 0 7", "", " a", "a ", "a\r", "a\r\nb", "a\u2028b", "a\x0cb"]
)
def test_serialize_rejects_labels_that_do_not_round_trip(label):
    g = pw.complete(2).relabelled([label, "b"])
    with pytest.raises(InvalidArgumentError):
        pw.serialize_graph(g)


def test_parse_graph_accepts_loop_edge_line():
    text = "pstgraph 1\nn 2\nedge 0 0 2.0\nedge 0 1 1\n"
    g = pw.parse_graph(text)
    assert g.adj[0, 0] == 2.0 and g.adj[0, 1] == 1.0


def test_readme_graph_file_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Graph file format", 1)[1]
    text = re.search(r"```\n(.*?)```", section, re.S).group(1)
    g = pw.parse_graph(text)
    assert g.n == 4 and g.labels == ("A", "1", "2", "3")
    assert (g.adj[0, 1], g.adj[1, 2], g.adj[2, 2]) == (0.5, 1.0, 2.0)


@pytest.mark.parametrize(
    "text",
    [
        "pstgraph 2\nn 1\n",
        "n 1\n",
        "pstgraph 1\nn 2\nedge 0 3 1\n",
        "pstgraph 1\nn 2\nedge 0 1\n",
        "pstgraph 1\nn 2\nedge 0 1 1\nedge 1 0 2\n",  # conflicting duplicate
    ],
)
def test_parse_graph_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        pw.parse_graph(text)


def test_parse_graph_normalizes_reversed_edges():
    g = pw.parse_graph("pstgraph 1\nn 2\nedge 1 0 1\n")
    assert g.adj[0, 1] == 1.0 == g.adj[1, 0]


def test_graph_equality_and_hash():
    a = pw.cycle(4)
    b = pw.circulant(4, [1])
    assert a == b
    assert hash(a) == hash(b)
    assert a != pw.cycle(5)
    # -0.0 == 0.0, so a graph with -0.0 entries hashes as its +0.0 twin
    negated, plain = pw.scale(pw.path_graph([1.0, 0.0]), -1.0), pw.path_graph([-1.0, 0.0])
    assert negated == plain and hash(negated) == hash(plain)
    assert len({negated, plain}) == 1
