import math
import tracemalloc
from contextlib import suppress

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import InvalidArgumentError, NotConnectedError, NotEquitableError
from pstwalk import graphs, partitions
from pstwalk.graphs import _edge_list


def _characteristic_matrix(partition, n):
    q = np.zeros((n, partition.m))
    for j, cell in enumerate(partition.cells):
        q[list(cell), j] = 1.0 / math.sqrt(len(cell))
    return q


def test_is_equitable_accepts_distance_cells_of_cube():
    g = pw.hypercube(3)
    part = pw.is_equitable(g, [[0], [1, 2, 4], [3, 5, 6], [7]])
    assert part is not None
    assert part.m == 4
    assert part.degrees[0, 1] == 3
    assert part.degrees[1, 0] == 1
    assert part.degrees[1, 2] == 2


def test_is_equitable_rejects_uneven_cells():
    g = pw.path_graph([1.0, 1.0, 1.0])  # P4
    assert pw.is_equitable(g, [[0, 1], [2, 3]]) is None


def test_is_equitable_validates_cells():
    g = pw.cycle(4)
    with pytest.raises(InvalidArgumentError):
        pw.is_equitable(g, [[0, 1], [2]])  # does not cover
    with pytest.raises(InvalidArgumentError):
        pw.is_equitable(g, [[0, 1], [1, 2, 3]])  # duplicate
    with pytest.raises(InvalidArgumentError):
        pw.is_equitable(g, [[0, 1], [], [2, 3]])  # empty cell


# (cells on C4, message of the first fault): faults are read cell by cell,
# each cell in ascending order, and a gap is reported only after all else
MALFORMED_CELLS = [
    ([[0, 1], [], [2, 3]], "empty cell in partition"),
    ([[0, 1], [2, 3, 4]], "vertex 4 out of range"),
    ([[0, -1], [1, 2, 3]], "vertex -1 out of range"),
    ([[0, 1], [1, 2, 3]], "vertex 1 appears in two cells"),
    ([[0, 0], [1, 2, 3]], "vertex 0 appears in two cells"),
    ([[0, 1], [2]], "cells do not cover every vertex"),
    ([], "cells do not cover every vertex"),
    ([[0, 1], [1], []], "vertex 1 appears in two cells"),
    ([[0, 1], [], [1]], "empty cell in partition"),
    ([[0, 9], [1, 1]], "vertex 9 out of range"),
    ([[1, 1], [0, 9]], "vertex 1 appears in two cells"),
    ([[3, 9, 1, 1]], "vertex 1 appears in two cells"),
    ([[0], [5, 5]], "vertex 5 out of range"),
    ([[0], [7]], "vertex 7 out of range"),
    ([[2], [10 ** 30]], f"vertex {10 ** 30} out of range"),
    ([[2], [2 ** 63]], "vertex 9223372036854775808 out of range"),  # no intp holds it
    ([[0, 1], [1, 2]], "vertex 1 appears in two cells"),  # n vertices in range, 3 missed
]


@pytest.mark.parametrize("cells, message", MALFORMED_CELLS)
def test_malformed_cells_raise_their_first_fault(cells, message):
    g = pw.cycle(4)
    for call in (pw.is_equitable, pw.coarsest_equitable_refinement):
        with pytest.raises(InvalidArgumentError) as err:
            call(g, cells)
        assert str(err.value) == message


@pytest.mark.parametrize("v", [0.7, 3.5, "a", None, math.nan, math.inf, np.float64(1.5)])
@pytest.mark.parametrize("wrap", [list, tuple])
def test_cells_refuse_entries_int_does_not_read_back(v, wrap):
    # int() would truncate 0.7 to vertex 0; every entry int() does not read
    # back equal to itself is refused by name, the first in input order
    g = pw.cycle(4)
    for call in (pw.is_equitable, pw.coarsest_equitable_refinement):
        with pytest.raises(InvalidArgumentError) as err:
            call(g, [wrap([1, 2, 3]), wrap([v, 0]), wrap([0.5])])
        assert str(err.value) == f"vertex {v!r} is not an integer"


def test_cells_are_read_as_sorted_python_ints():
    part = pw.is_equitable(pw.cycle(4), [np.array([3, 1]), (2.0, np.int64(0))])
    assert part.cells == ((1, 3), (0, 2))
    assert all(type(v) is int for c in part.cells for v in c)


# (cells on C4, cells is_equitable returns): any iterable of iterables of
# values int() reads; coarsest_equitable_refinement orders the same cells by
# smallest vertex
CELL_FORMS = [
    (lambda: ((v for v in c) for c in [[2, 0], [3, 1]]), ((0, 2), (1, 3))),
    (lambda: [{3, 1}, range(0, 4, 2)], ((1, 3), (0, 2))),
    (lambda: [np.array([2, 0]), (np.int64(1), 3.0)], ((0, 2), (1, 3))),
]


@pytest.mark.parametrize("cells, want", CELL_FORMS, ids=["generators", "set-range", "numpy-float"])
def test_cell_forms_are_read_alike_on_both_entry_points(cells, want):
    g = pw.cycle(4)
    part = pw.is_equitable(g, cells())
    assert part.cells == want and part.degrees.tolist() == [[0.0, 2.0], [2.0, 0.0]]
    refined = pw.coarsest_equitable_refinement(g, cells())
    assert refined.cells == ((0, 2), (1, 3))
    assert all(type(v) is int for c in part.cells + refined.cells for v in c)


def test_cell_of_lookup():
    part = pw.is_equitable(pw.cycle(4), [[0, 2], [1, 3]])
    assert part is not None
    assert part.cell_of(0) == 0 and part.cell_of(3) == 1


def test_distance_partition_cube():
    g = pw.hypercube(3)
    part = pw.distance_partition(g, 0, require_antipode=True)
    assert part is not None
    assert part.cells == ((0,), (1, 2, 4), (3, 5, 6), (7,))


def test_distance_partition_without_singleton_antipode():
    # C5 from any vertex: last cell has two vertices
    assert pw.distance_partition(pw.cycle(5), 0, require_antipode=True) is None
    part = pw.distance_partition(pw.cycle(5), 0)
    assert part is not None
    assert part.cells == ((0,), (1, 4), (2, 3))


def test_distance_partition_not_equitable_case():
    # P4 from an end: cells {0},{1},{2},{3} are singletons, hence equitable;
    # use a tree whose distance cells mix degrees instead
    adj = np.zeros((5, 5))
    for u, v in [(0, 1), (1, 2), (1, 3), (3, 4)]:
        adj[u, v] = adj[v, u] = 1.0
    g = pw.Graph(adj)
    # from 0: cells {0},{1},{2,3},{4}; vertex 2 has 0 neighbors at distance 3
    # while vertex 3 has 1, so the partition is not equitable
    assert pw.distance_partition(g, 0) is None


def test_distance_partition_requires_connected():
    with pytest.raises(NotConnectedError):
        pw.distance_partition(pw.empty_graph(2), 0)


def test_distance_partition_of_a_disconnected_graph_keeps_nothing():
    g = pw.Graph(np.kron(np.eye(2), np.ones((3, 3)) - np.eye(3)))  # two triangles
    for _ in range(2):
        with pytest.raises(NotConnectedError):
            pw.distance_partition(g, 0)
        assert g._kept == {}


def test_collapse_reuses_the_distance_partition_and_edge_list(monkeypatch):
    searches, extracted = [], []
    distances_from, edge_list = partitions.distances_from, graphs._EdgeList

    def searching(g, a):
        searches.append(a)
        return distances_from(g, a)

    def extracting(*args):
        extracted.append(args[0])
        return edge_list(*args)

    monkeypatch.setattr(partitions, "distances_from", searching)
    monkeypatch.setattr(graphs, "_EdgeList", extracting)
    g = pw.hypercube(7)
    part = pw.distance_partition(g, 0)
    refined = pw.coarsest_equitable_refinement(g, [[0], [127], list(range(1, 127))])
    grid = np.linspace(0.0, 3.0, 31)
    assert pw.collapse_fidelity_check(g, 0, 127, grid) < 1e-12
    assert refined.cells == part.cells
    assert searches == [0] and extracted == [128]


def test_refinement_is_equitable_and_refines(corpus):
    for g in corpus[:30]:
        part = pw.coarsest_equitable_refinement(g, [list(range(g.n))])
        assert pw.is_equitable(g, [list(c) for c in part.cells]) is not None
        # every cell is contained in the (single) input cell: trivially true;
        # also check refinement against a two-block start when possible
        if g.n >= 4:
            half = g.n // 2
            start = [list(range(half)), list(range(half, g.n))]
            finer = pw.coarsest_equitable_refinement(g, start)
            for cell in finer.cells:
                blocks = {v < half for v in cell}
                assert len(blocks) == 1


def test_refinement_on_vertex_transitive_graph_is_trivial():
    g = pw.cycle(6)
    part = pw.coarsest_equitable_refinement(g, [list(range(6))])
    assert part.cells == (tuple(range(6)),)


def test_refinement_sorts_cells_of_equitable_input():
    # already equitable, so no round splits; the output order still holds
    g = pw.hypercube(3)
    part = pw.coarsest_equitable_refinement(g, [[7], [3, 5, 6], [1, 2, 4], [0]])
    assert part.cells == ((0,), (1, 2, 4), (3, 5, 6), (7,))
    assert part.degrees[0, 1] == 3 and part.degrees[1, 0] == 1


def _is_equitable_reference(g, cells):
    """Per-cell-pair sub-sums: (sorted cells, degree matrix) or None."""
    cs = tuple(tuple(sorted(int(v) for v in c)) for c in cells)
    tol = _edge_list(g).tol
    d = np.zeros((len(cs), len(cs)))
    for j, cell in enumerate(cs):
        for k, other in enumerate(cs):
            sums = g.adj[np.ix_(cell, other)].sum(axis=1)
            d[j, k] = sums[0]
            if np.max(np.abs(sums - sums[0])) > tol:
                return None
    return cs, d


def _refinement_reference(g, initial_cells):
    """Per-vertex signature loop, all cells split at once in each round."""
    cells = [sorted(int(v) for v in c) for c in initial_cells]
    while True:
        changed = False
        new_cells = []
        for cell in cells:
            sigs = {}
            for u in cell:
                sig = tuple(round(float(g.adj[u, other].sum()), 9) for other in cells)
                sigs.setdefault(sig, []).append(u)
            changed = changed or len(sigs) > 1
            new_cells.extend(sigs.values())
        cells = sorted(new_cells, key=min)
        if not changed:
            return _is_equitable_reference(g, cells)


def _same_answer(part, ref):
    if part is None or ref is None:
        return part is None and ref is None
    return part.cells == ref[0] and part.degrees.tobytes() == ref[1].tobytes()


def _random_cells(rng, n):
    label = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
    cells = [list(np.flatnonzero(label == j)) for j in np.unique(label)]
    rng.shuffle(cells)
    return cells


def test_cell_sums_match_loop_references(corpus):
    rng = np.random.default_rng(4)
    for g in corpus:
        starts = [_random_cells(rng, g.n) for _ in range(2)]
        if g.n >= 3:
            for _ in range(3):
                a, b = (int(v) for v in rng.choice(g.n, size=2, replace=False))
                starts.append([[a], [b], [v for v in range(g.n) if v not in (a, b)]])
        for cells in starts:
            assert _same_answer(pw.is_equitable(g, cells), _is_equitable_reference(g, cells))
            assert _same_answer(pw.coarsest_equitable_refinement(g, cells),
                                _refinement_reference(g, cells))
        dist = pw.distance_partition(g, 0) if pw.is_connected(g) else None
        if dist is not None:
            assert _same_answer(dist, _is_equitable_reference(g, dist.cells))


def test_refinement_matches_loop_reference_on_large_random_graph():
    # shaped like the benchmark's random ladder: n = 256, edge density 0.2,
    # uniform(0.2, 3) weights, loops on about 30% of vertices
    rng = np.random.default_rng(256)
    n = 256
    upper = np.triu(rng.random((n, n)) < 0.2, 1)
    adj = np.where(upper, rng.uniform(0.2, 3.0, size=(n, n)), 0.0)
    adj = adj + adj.T + np.diag(np.where(rng.random(n) < 0.3, rng.uniform(0.5, 2.0, size=n), 0.0))
    g = pw.Graph(adj)
    cells = [[3], [200], [v for v in range(n) if v not in (3, 200)]]
    part = pw.coarsest_equitable_refinement(g, cells)
    assert _same_answer(part, _refinement_reference(g, cells))
    assert part.m > 3


def _cancelling_graph():
    # vertex 0 sends 0.3, -0.1, -0.2 to 1, 2, 3 (sum -2.8e-17, which rounds to
    # -0.0) and vertex 4 sends -0.3, 0.1, 0.2 (sum +2.8e-17); 1, 2 and 3 each
    # receive exactly 0, so the single cell is equitable and must not split
    adj = np.zeros((5, 5))
    for u, v, w in [(0, 1, 0.3), (0, 2, -0.1), (0, 3, -0.2), (4, 1, -0.3), (4, 2, 0.1), (4, 3, 0.2)]:
        adj[u, v] = adj[v, u] = w
    return pw.Graph(adj)


@pytest.mark.parametrize(
    "g",
    [pw.empty_graph(4), pw.complete(1), pw.Graph([[2.0]]),
     pw.Graph(np.diag([1.0, 2.0, 1.0, 0.0])), _cancelling_graph()],
    ids=["edgeless", "n=1", "n=1-loop", "loops-only", "cancelling-weights"],
)
def test_cell_sums_corner_cases_match_loop_references(g):
    n = g.n
    starts = [[list(range(n))], [[v] for v in reversed(range(n))]]
    if n >= 3:
        starts.append([[0], [n - 1], list(range(1, n - 1))])
    for cells in starts:
        assert _same_answer(pw.is_equitable(g, cells), _is_equitable_reference(g, cells))
        assert _same_answer(pw.coarsest_equitable_refinement(g, cells),
                            _refinement_reference(g, cells))


def test_refinement_commutes_with_relabelling(corpus):
    rng = np.random.default_rng(7)
    for g in corpus:
        perm = rng.permutation(g.n)  # vertex v of g is vertex perm[v] of h
        inv = np.argsort(perm)
        h = pw.Graph(g.adj[np.ix_(inv, inv)])
        cells = _random_cells(rng, g.n)
        h_cells = [[int(perm[v]) for v in c] for c in cells]
        part = pw.coarsest_equitable_refinement(g, cells)
        h_part = pw.coarsest_equitable_refinement(h, h_cells)
        assert _same_answer(h_part, _refinement_reference(h, h_cells))
        where = {frozenset(c): k for k, c in enumerate(h_part.cells)}
        match = [where[frozenset(int(perm[v]) for v in c)] for c in part.cells]
        assert len(match) == h_part.m
        assert np.allclose(h_part.degrees[np.ix_(match, match)], part.degrees,
                           rtol=0.0, atol=_edge_list(g).tol)


def test_partitions_hold_no_adjacency_sized_temporary():
    # bound 2n^2 bytes, a quarter of one n x n float array; the adjacency != 0
    # mask alone takes n^2
    g = pw.hypercube(9)
    n = g.n
    cells = [[0], [n - 1], list(range(1, n - 1))]
    calls = {
        "refinement": lambda: pw.coarsest_equitable_refinement(g, cells),
        "distance_partition": lambda: pw.distance_partition(g, 0),
        "is_equitable": lambda: pw.is_equitable(g, cells),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * n, (name, peak)


def test_refinement_stops_at_singletons(monkeypatch):
    # a random graph of n = 48 refines to singletons; further rounds are skipped
    rng = np.random.default_rng(48)
    n = 48
    upper = np.triu(rng.random((n, n)) < 0.3, 1)
    adj = np.where(upper, rng.uniform(0.2, 3.0, size=(n, n)), 0.0)
    g = pw.Graph(adj + adj.T)
    rounds = []  # cell count of each _cell_sums call
    cell_sums = partitions._cell_sums

    def counting(g, label):
        rounds.append(label.max() + 1)
        return cell_sums(g, label)

    monkeypatch.setattr(partitions, "_cell_sums", counting)
    cases = [[[5], [17], [v for v in range(n) if v not in (5, 17)]],
             [list(range(n))],
             [[v] for v in reversed(range(n))]]
    for cells in cases:
        rounds.clear()
        part = pw.coarsest_equitable_refinement(g, cells)
        assert part.m == n and _same_answer(part, _refinement_reference(g, cells))
        # refinement rounds only: the singletons' degree matrix is the adjacency
        assert all(m < n for m in rounds)
    assert rounds == []  # singleton input: no refinement round at all


def test_singleton_refinement_reads_negative_zero_as_zero():
    # P3 with weights 1 and 2 and an explicit -0.0 between its ends: the cell
    # sums start from +0.0, so the singletons' degree matrix holds no -0.0
    adj = np.array([[0.0, 1.0, -0.0], [1.0, 0.0, 2.0], [-0.0, 2.0, 0.0]])
    part = pw.coarsest_equitable_refinement(pw.Graph(adj), [[0, 1, 2]])
    assert part.cells == ((0,), (1,), (2,))
    assert part.degrees.tobytes() == (adj + 0.0).tobytes() and not np.signbit(part.degrees).any()


def test_singleton_refinement_shares_the_adjacency_where_it_holds_no_negative_zero():
    # P3 with weights 1 and -2: its negative entries are all edges, so the
    # degree matrix is the read-only adjacency itself, not a second n x n array
    adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, -2.0], [0.0, -2.0, 0.0]])
    g = pw.Graph(adj)
    part = pw.coarsest_equitable_refinement(g, [[0, 1, 2]])
    assert part.cells == ((0,), (1,), (2,)) and part.degrees is g.adj
    adj[0, 2] = adj[2, 0] = -0.0
    g = pw.Graph(adj)
    part = pw.coarsest_equitable_refinement(g, [[0, 1, 2]])
    assert not np.shares_memory(part.degrees, g.adj) and not part.degrees.flags.writeable


@pytest.mark.parametrize("leaves, want", [
    ((1.0000000001, 1.0000000004), ((0,), (1,), (2,))),
    ((1.0000000001, 1.0000000004, 1.0000000001, 1.0000000004), ((0,), (1, 3), (2, 4))),
])
def test_refinement_splits_sums_that_round_alike_beyond_the_tolerance(leaves, want):
    # a star whose leaves' sums into the centre round alike to
    # SIGNATURE_DECIMALS but differ by more than _edge_list(g).tol: the rounded
    # fixpoint is not equitable, so the rounds go on with the unrounded sums
    n = len(leaves) + 1
    adj = np.zeros((n, n))
    adj[0, 1:] = adj[1:, 0] = leaves
    g = pw.Graph(adj)
    leaf_cells = [[0], list(range(1, n))]
    assert pw.is_equitable(g, leaf_cells) is None
    for cells in (leaf_cells, [list(range(n))]):
        part = pw.coarsest_equitable_refinement(g, cells)
        assert part.cells == want
        assert _same_answer(part, _is_equitable_reference(g, want))


def test_is_equitable_threshold_is_equitable_tol():
    g = pw.scale(pw.hypercube(3), 1.7)
    cells = [[0], [1, 2, 4], [3, 5, 6], [7]]
    assert pw.is_equitable(g, cells) is not None
    tol = _edge_list(g).tol
    for factor, equitable in ((0.5, True), (3.0, False)):
        adj = g.adj.copy()
        adj[0, 1] += factor * tol
        adj[1, 0] = adj[0, 1]
        assert (pw.is_equitable(pw.Graph(adj), cells) is not None) == equitable
        # the distance cells from 0: the source's own row decides
        assert (pw.distance_partition(pw.Graph(adj), 0) is not None) == equitable


def test_quotient_matches_known_cube_collapse():
    g = pw.hypercube(3)
    part = pw.distance_partition(g, 0, require_antipode=True)
    quot = pw.quotient_symmetrized(g, part)
    expected = pw.path_graph([math.sqrt(3.0), 2.0, math.sqrt(3.0)])
    assert np.allclose(quot.graph.adj, expected.adj, atol=1e-12)
    assert quot.cell_map == (0, 1, 1, 2, 1, 2, 2, 3)


def test_quotient_loop_on_join_instance():
    # two non-adjacent apexes over a triangle: middle cell carries weight 2 loop
    g = pw.join(pw.empty_graph(2), pw.complete(3))
    part = pw.is_equitable(g, [[0], [2, 3, 4], [1]])
    quot = pw.quotient_symmetrized(g, part).graph
    expected = pw.path_graph([math.sqrt(3.0), math.sqrt(3.0)], loops=(0.0, 2.0, 0.0))
    assert np.array_equal(quot.adj, expected.adj)


def test_quotient_identity_and_eigenvalue_inclusion(corpus):
    for g in corpus[:40]:
        part = pw.coarsest_equitable_refinement(g, [list(range(g.n))])
        quot = pw.quotient_symmetrized(g, part)
        q = _characteristic_matrix(part, g.n)
        # defining identity A Q = Q B
        assert np.abs(g.adj @ q - q @ quot.graph.adj).max() <= 1e-10 * max(
            1.0, np.abs(g.adj).max()
        ) * g.n
        # spectrum inclusion
        eig_q = np.sort(pw.spectrum(quot.graph))
        eig_g = np.sort(pw.spectrum(g))
        for mu in eig_q:
            assert np.abs(eig_g - mu).min() < 1e-8


def test_quotient_keeps_negative_weights_negative():
    # K3 with weight -1 has spectrum {1, 1, -2}; unsigned square roots
    # would give the quotient {2, -1, -1}
    for g in (pw.scale(pw.complete(3), -1.0), pw.scale(pw.hypercube(3), -0.5)):
        part = pw.coarsest_equitable_refinement(g, [[0], list(range(1, g.n))])
        quot = pw.quotient_symmetrized(g, part).graph
        for mu in pw.spectrum(quot):
            assert np.abs(pw.spectrum(g) - mu).min() < 1e-12
    quot = pw.quotient_symmetrized(pw.scale(pw.complete(3), -1.0),
                                   pw.is_equitable(pw.complete(3), [[0], [1], [2]]))
    assert np.allclose(np.sort(pw.spectrum(quot.graph)), [-2.0, 1.0, 1.0], atol=1e-12)


def test_quotient_rejects_inequitable_partition():
    g = pw.path_graph([1.0, 1.0, 1.0])
    bad = pw.EquitablePartition(((0, 1), (2, 3)), np.zeros((2, 2)))
    with pytest.raises(NotEquitableError):
        pw.quotient_symmetrized(g, bad)


def test_collapse_fidelity_check_cube():
    g = pw.hypercube(3)
    grid = np.linspace(0.0, 4 * math.pi, 500)
    assert pw.collapse_fidelity_check(g, 0, 7, grid) < 1e-12


def test_collapse_fidelity_check_needs_a_grid_of_finite_times():
    g = pw.hypercube(3)
    for grid in ([], [0.0, math.nan], np.array([1.0, math.inf])):
        with pytest.raises(InvalidArgumentError, match="t_grid must hold at least one time, all finite"):
            pw.collapse_fidelity_check(g, 0, 7, grid)


def test_collapse_fidelity_check_takes_any_iterable_of_times():
    g = pw.hypercube(3)
    grid = np.linspace(0.0, 4 * math.pi, 500)
    want = pw.collapse_fidelity_check(g, 0, 7, grid.tolist())
    for same in (grid, grid.reshape(20, 25), tuple(grid), (float(t) for t in grid)):
        assert pw.collapse_fidelity_check(g, 0, 7, same) == want
    for scalar in (1.0, np.array(1.0)):  # list() refuses a scalar, as it always did
        with pytest.raises(TypeError):
            pw.collapse_fidelity_check(g, 0, 7, scalar)
    with pytest.raises(InvalidArgumentError, match="t_grid must hold at least one time, all finite"):
        pw.collapse_fidelity_check(g, 0, 7, np.empty((3, 0)))


def test_collapse_fidelity_check_requires_antipodal_target():
    g = pw.hypercube(3)
    with pytest.raises(NotEquitableError):
        pw.collapse_fidelity_check(g, 0, 3, np.linspace(0, 1, 5))


def test_format_cells():
    part = pw.distance_partition(pw.hypercube(2), 0)
    text = pw.format_cells(part)
    assert text.splitlines() == ["cell 0: 0", "cell 1: 1 2", "cell 2: 3"]


def test_collapse_command_checks_equitability_once(monkeypatch, capsys):
    from pstwalk import cli, partitions

    calls = []
    equitable = partitions._equitable

    def counting(edges, label):
        calls.append(int(label.max()) + 1)
        return equitable(edges, label)

    monkeypatch.setattr(partitions, "_equitable", counting)
    assert cli.main(["collapse", "--expr", "Q:4", "--from", "0", "--to", "15"]) == 0
    assert "max_deviation" in capsys.readouterr().out
    assert calls == [5]  # the distance partition of Q4: 5 cells, checked once


def _distance_cells_reference(g, a):
    """Cells of vertices at distance 0, 1, ... from a, by a breadth-first
    search over a Python dict; None where some vertex is unreachable."""
    dist, frontier = {a: 0}, [a]
    while frontier:
        reached = []
        for u in frontier:
            for v in range(g.n):
                if g.adj[u, v] != 0 and v not in dist:
                    dist[v] = dist[u] + 1
                    reached.append(v)
        frontier = reached
    if len(dist) < g.n:
        return None
    return [[v for v in range(g.n) if dist[v] == r] for r in range(max(dist.values()) + 1)]


def test_distance_partition_matches_loop_reference_from_every_source(corpus):
    for g in corpus:
        for a in range(g.n):
            cells = _distance_cells_reference(g, a)
            if cells is None:
                with pytest.raises(NotConnectedError):
                    pw.distance_partition(g, a)
                continue
            assert _same_answer(pw.distance_partition(g, a), _is_equitable_reference(g, cells))


def test_refinement_matches_loop_reference_on_the_ladders(ladder):
    # the ladder pairs from {a}, {b}, rest: singletons on the random graphs
    for name, g, a, b in ladder:
        cells = [[a], [b], [v for v in range(g.n) if v not in (a, b)]]
        part = pw.coarsest_equitable_refinement(g, cells)
        assert _same_answer(part, _refinement_reference(g, cells)), name
        if name.startswith("random"):
            assert part.m == g.n


def test_refinement_from_a_singleton_antipode_is_the_distance_partition(corpus, ladder):
    # path collapsing (Christandl et al. 2005): where b is alone in the last
    # cell of the equitable distance partition from a, the coarsest equitable
    # refinement of {a}, {b}, rest has the same cells, so the pair's lifted
    # quotient is the distance partition's
    pairs = []
    for g in corpus:
        for a in range(g.n):
            with suppress(NotConnectedError):
                part = pw.distance_partition(g, a, require_antipode=True)
                if part is not None:
                    pairs.append((g, a, part))
    assert len(pairs) == 108  # of 15,582 ordered corpus pairs of distinct vertices
    for _, g, a, b in ladder:
        part = pw.distance_partition(g, a, require_antipode=True)
        if part is not None and part.cells[-1] == (b,):
            pairs.append((g, a, part))
    assert len(pairs) == 108 + 8  # and 8 of the 9 structured ladder pairs
    for g, a, part in pairs:
        b = part.cells[-1][0]
        cells = [[a], [b], [v for v in range(g.n) if v not in (a, b)]]
        refined = pw.coarsest_equitable_refinement(g, [cell for cell in cells if cell])
        assert set(refined.cells) == set(part.cells)
