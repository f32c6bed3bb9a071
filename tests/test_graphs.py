import copy
import math
import pickle
import re
from pathlib import Path

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
from pstwalk.graphs import _layered


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
