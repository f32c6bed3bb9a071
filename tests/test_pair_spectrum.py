"""The pair spectrum and the single-source BFS against the per-eigenvalue,
per-projector and all-pairs computations they replace, memory bounds on
the certificate and scan paths, and the quotient route of pair questions
against the dense route."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import NumericFailureError, graphs, partitions, spectral
from pstwalk.partitions import QUOTIENT_MAX_CELLS, QUOTIENT_MIN_N, _pair, _spectrum
from conftest import newton_max

TOL = 1e-8


def _pairs(g):
    return sorted({(0, g.n - 1), (0, g.n // 2)} - {(0, 0)})


# ---------------------------------------------------------------------------
# references computed here, over every eigenvalue or from dense projectors
# ---------------------------------------------------------------------------

def _reference_scan(g, a, b, t_max, steps, iters=60):
    """Grid over all n eigenvalues in one product, then Newton steps."""
    dec = pw.eigendecompose(g)
    times = np.linspace(0.0, t_max, steps)
    w_ab = dec.vectors[b, :] * dec.vectors[a, :]
    vals = np.abs(w_ab @ np.exp(-1j * np.outer(dec.values, times)))
    k = int(np.argmax(vals))
    best_t, best_f = float(times[k]), float(vals[k])
    h = times[1] - times[0]
    theta = dec.values

    def sums(t):  # F, F' and F'' summed per eigenvalue
        phase = np.exp(-1j * theta * t)
        return (w_ab * phase).sum(), (-1j * theta * w_ab * phase).sum(), (-theta**2 * w_ab * phase).sum()

    err = 8.0 * np.finfo(float).eps * np.sum(np.abs(w_ab)) * (1.0 + np.max(np.abs(theta)) * t_max)
    t_ref = newton_max(sums, err, best_t, max(0.0, best_t - h), min(t_max, best_t + h), iters)
    f_ref = abs(pw.fidelity(dec, a, b, t_ref))
    return (t_ref, f_ref) if f_ref > best_f else (best_t, best_f)


def _reference_signs(projs, a, b):
    """Strong-cospectrality signs from the dense projector columns."""
    signs = []
    for p in projs.projectors:
        va, vb = p[:, a], p[:, b]
        if np.linalg.norm(va) <= TOL and np.linalg.norm(vb) <= TOL:
            continue
        if np.max(np.abs(va - vb)) <= TOL:
            signs.append(0)
        elif np.max(np.abs(va + vb)) <= TOL:
            signs.append(1)
        else:
            return None
    return tuple(signs)


def _floyd_warshall(g):
    d = np.where(g.adj != 0.0, 1.0, np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(g.n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


# ---------------------------------------------------------------------------
# equivalence on the corpus
# ---------------------------------------------------------------------------

def test_scan_matches_per_eigenvalue_reference(corpus):
    # 4001 steps over [0, 2pi] put t = pi/2 and pi exactly on the grid, so
    # some maxima are grid values; those are summed in another order here,
    # hence the 1e-12 allowance (a few ulp of |F| <= 1).
    for g in corpus:
        dec = pw.eigendecompose(g)
        for a, b in _pairs(g):
            t, f = pw.max_fidelity_scan(g, a, b, 2.0 * math.pi, 4001)
            t_ref, f_ref = _reference_scan(g, a, b, 2.0 * math.pi, 4001)
            assert f == pytest.approx(f_ref, abs=1e-12)
            # equal maxima at several times may be resolved either way
            assert t == t_ref or abs(abs(pw.fidelity(dec, a, b, t)) - f_ref) <= 1e-12


def test_strong_cospectrality_matches_projector_columns(corpus):
    for g in corpus:
        projs = pw.spectral_projectors(pw.eigendecompose(g))
        for a in {0, g.n - 1}:
            for b in range(g.n):
                assert pw.strong_cospectrality(g, a, b) == _reference_signs(projs, a, b)


def test_pair_spectrum_weights_are_projector_entries(corpus):
    for g in corpus[::5]:
        dec = pw.eigendecompose(g)
        projs = pw.spectral_projectors(dec)
        for a, b in _pairs(g):
            ps = pw.pair_spectrum(dec, a, b)
            assert ps.theta == tuple(projs.values[r] for r in ps.support)
            expected = [projs.projectors[r][a, b] for r in ps.support]
            assert np.allclose(ps.weight, expected, rtol=0.0, atol=1e-14)
            assert ps.signs == _reference_signs(projs, a, b)
            assert (ps.broken_at is None) == (ps.signs is not None)


def test_distance_partition_matches_distance_matrix_row(corpus):
    for g in corpus:
        dist = pw.distance_matrix(g)
        assert np.array_equal(dist, _floyd_warshall(g))
        for a in range(g.n):
            if not np.all(np.isfinite(dist[a])):
                with pytest.raises(pw.NotConnectedError):
                    pw.distance_partition(g, a)
                continue
            cells = [
                tuple(int(v) for v in np.nonzero(dist[a] == r)[0])
                for r in range(int(np.max(dist[a])) + 1)
            ]
            ref = pw.is_equitable(g, cells)
            part = pw.distance_partition(g, a)
            assert (part is None) == (ref is None)
            if part is not None:
                assert part.cells == ref.cells


# ---------------------------------------------------------------------------
# memory: O(n^2), not a dense projector per eigenvalue cluster
# ---------------------------------------------------------------------------

def _random_weighted(n, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.2, 1)
    adj = np.where(upper, rng.uniform(0.2, 3.0, size=(n, n)), 0.0)
    return pw.Graph(adj + adj.T)


def _traced_peak(call):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["certificate", "scan"])
def test_certificate_and_scan_memory_is_quadratic(name):
    n = 300
    g = _random_weighted(n, 300)
    call = {
        "certificate": lambda: pw.pst_certificate(g, 0, n - 1),
        "scan": lambda: pw.max_fidelity_scan(g, 0, n - 1, 2.0 * math.pi, 20001),
    }[name]
    assert _traced_peak(call) <= 16 * 8 * n * n


def test_quotient_route_memory_is_bounded_by_the_adjacency():
    # lex(P16, K32): n = 512, 46,592 edge entries, 18 cells; the residual
    # is one n x 18 product A V, so the pair holds less than one n x n
    # float array
    adj = pw.lexicographic_product(pw.path_graph([1.0] * 15), pw.complete(32)).adj
    n = len(adj)
    for g in (pw.Graph(adj), pw.Graph(adj)):  # the first also warms numpy's own first-call allocations
        graphs._edge_list(g)
        peak = _traced_peak(lambda: _pair(g, 0, n - 1))
    assert peak <= 8 * n * n
    assert _pair(g, 0, n - 1).n == 18 and ("eigenpairs",) not in g._kept


@pytest.mark.parametrize("layout", ["C", "F"])
def test_edge_list_and_circulant_check_allocate_no_square_array(layout):
    n = 512
    c = pw.circulant(n, [1, 2, 3]).adj
    moved = c.copy()  # one edge of the last row moved: as many entries, not circulant
    moved[n - 1, n - 2] = moved[n - 2, n - 1] = 0.0
    moved[n - 1, n - 6] = moved[n - 6, n - 1] = 1.0
    for adj, circulant in ((c, True), (moved, False)):
        given = np.asarray(adj, order=layout)
        assert given.flags[f"{layout}_CONTIGUOUS"]
        g = pw.Graph(given)
        assert g.adj.flags.c_contiguous  # so a ravel of it is a view
        # the extraction holds one n x n boolean mask and a few nnz-sized
        # arrays; an n x n float array is 8 n^2 bytes, a second mask n^2
        nnz = np.count_nonzero(adj)
        assert _traced_peak(lambda: graphs._edge_list(g)) <= n * n + 32 * nnz
        # on the kept edge list the check holds O(nnz + n)
        assert pw.is_circulant_adjacency(g) == circulant
        assert _traced_peak(lambda: pw.is_circulant_adjacency(g)) <= n * n


# ---------------------------------------------------------------------------
# pair questions on the quotient of the refinement of {a}, {b}, rest
# ---------------------------------------------------------------------------

def _agrees_with_dense_route(ps, group_tol, dense, dense_tol, atol):
    """A quotient-route pair spectrum against the dense route's: support
    indices differ (the pair's own clusters against the graph's), the
    support size, signs, eigenvalues, weights and grouping tolerance agree."""
    assert len(ps.support) == len(dense.support) and ps.signs == dense.signs
    assert (ps.broken_at is None) == (dense.broken_at is None)
    assert np.max(np.abs(np.subtract(ps.theta, dense.theta))) <= atol
    assert np.max(np.abs(ps.weight - dense.weight)) <= atol
    assert group_tol == pytest.approx(dense_tol, rel=1e-12)


def test_quotient_route_matches_dense_route_on_the_corpus(corpus, monkeypatch):
    # asked of copies: the session corpus keeps no pair built below the floor
    monkeypatch.setattr(partitions, "QUOTIENT_MIN_N", 1)
    times = np.linspace(0.0, 7.0, 9)
    reduced = 0
    for g in (pw.Graph(h.adj) for h in corpus):
        dec = pw.eigendecompose(g)
        dense_tol = pw.default_group_tol(dec)
        for a, b in _pairs(g) + [(g.n - 1, g.n - 1)]:
            dense, (ps, group_tol) = pw.pair_spectrum(dec, a, b), _spectrum(g, a, b)
            pair = _pair(g, a, b)
            reduced += pair.n < g.n
            _agrees_with_dense_route(ps, group_tol, dense, dense_tol, 1e-9)
            assert np.allclose(pw.fidelity(pair, a, b, times), pw.fidelity(dec, a, b, times),
                               rtol=0.0, atol=1e-9)
    assert reduced > 100  # most corpus pairs have a refinement of fewer cells than n


def test_structured_pair_questions_solve_no_eigenvectors_of_the_graph():
    # Q8 is above the floor and its pair's refinement has 9 cells: no question
    # solves or keeps the 256 x 256 eigendecomposition, and each answer is
    # the one given on a graph whose decomposition was solved first
    assert pw.hypercube(8).n >= QUOTIENT_MIN_N
    grid = np.linspace(0.0, 2.0 * math.pi, 300)
    questions = (
        lambda g: pw.pst_certificate(g, 0, 255),
        lambda g: pw.max_fidelity_scan(g, 0, 255, 2.0 * math.pi, 2001),
        lambda g: pw.strong_cospectrality(g, 0, 255),
        lambda g: pw.fidelity_series(g, 0, 255, 3.0, 31).amplitudes.tobytes(),
        lambda g: pw.collapse_fidelity_check(g, 0, 255, grid),
    )
    g, solved = pw.hypercube(8), pw.hypercube(8)
    pw.spectrum(solved)
    for ask in questions:
        assert ask(g) == ask(solved)
        assert ("eigenpairs",) not in g._kept
    cert = pw.pst_certificate(g, 0, 255)
    assert cert.verdict == "yes" and cert.time_exact == (1, 2, 1.0)
    assert cert.support == tuple(range(9)) and cert.signs == (0, 1) * 4 + (0,)


def _matches_dense_route(g, a, b):
    dec = pw.eigendecompose(g)
    (ps, group_tol), dense = _spectrum(g, a, b), pw.pair_spectrum(dec, a, b)
    pair = _pair(g, a, b)
    _agrees_with_dense_route(ps, group_tol, dense, pw.default_group_tol(dec), 1e-9)
    times = np.linspace(0.0, 7.0, 29)
    assert np.allclose(pw.fidelity(pair, a, b, times), pw.fidelity(dec, a, b, times), rtol=0.0, atol=1e-9)
    return pair, ps


def test_krylov_route_gives_the_closed_form_on_q8():
    # |<255| exp(-itA) |0>| = |sin t|^8 on Q8, whose antipodes refine to 9
    # cells, one per distance from 0
    g = pw.hypercube(8)
    s = pw.fidelity_series(g, 0, 255, 2.0 * math.pi, 300)
    assert np.max(np.abs(np.abs(s.amplitudes) - np.abs(np.sin(s.times)) ** 8)) <= 1e-12
    assert _pair(g, 0, 255).n == 9 and ("eigenpairs",) not in g._kept


def test_krylov_route_extends_past_the_first_start():
    # on Q7 the refinement of {0}, rest is the distance partition from 0 (8
    # cells), where 1 shares a cell with the other neighbours of 0: the pair
    # (0, 1) takes the finer refinement of {0}, {1}, rest, which stays below n
    g = pw.hypercube(7)
    from_0 = pw.coarsest_equitable_refinement(g, [[0], range(1, g.n)])
    assert from_0.m == 8 and len(from_0.cells[1]) == 7
    pair, ps = _matches_dense_route(g, 0, 1)
    assert from_0.m < pair.n < g.n
    assert ps.signs is None and ("eigenpairs",) not in g._kept


def test_krylov_route_of_a_vertex_with_itself():
    # the pair (5, 5) refines {5}, rest, and keeps the refinement that the
    # public call with those cells answers with, without a second build
    g = pw.cartesian_product(pw.cycle(16), pw.complete(8))
    pair, _ = _matches_dense_route(g, 5, 5)
    kept = g._kept
    part = pw.coarsest_equitable_refinement(g, [[5], [v for v in range(g.n) if v != 5]])
    assert g._kept is kept and pair.n == part.m == 18 < g.n


def test_krylov_support_holds_cluster_indices_of_the_graph():
    # two disjoint copies of the glued cones of family member 3 (n = 244):
    # 6 cells in the coarsest equitable refinement of {a}, {b}, rest, so 6
    # lifted quotient pairs, and 46 distinct eigenvalues of the graph;
    # support indexes the pair's own clusters, and the graph's clusters
    # that it stands for are the dense route's support
    n, k, gamma = pw.glued_cone_family(3)
    half = pw.circulant(n, range(1, k // 2 + 1))
    g = pw.glued_double_cone(half, half, pw.circulant(n, range(1, gamma // 2 + 1)))
    g = pw.Graph(np.kron(np.eye(2), g.adj))
    ps, group_tol = _spectrum(g, 0, 2 * n + 1)
    assert _pair(g, 0, 2 * n + 1).n == 6
    dec = pw.eigendecompose(g)
    dense = pw.pair_spectrum(dec, 0, 2 * n + 1)
    _agrees_with_dense_route(ps, group_tol, dense, pw.default_group_tol(dec), 1e-12)
    assert ps.support == (0, 1, 2, 3) and max(dense.support) > 3


def _detune_lift(monkeypatch):
    """Quotient eigenvalues off by a factor inside _lifted, past the
    quotient's own checks: the lift's residual against A must refuse them."""
    real = partitions.eigendecompose

    def detuned(g):
        dec = real(g)
        return pw.EigenDecomposition(dec.values * 1.001, dec.vectors)

    monkeypatch.setattr(partitions, "eigendecompose", detuned)


def test_ritz_values_must_be_eigenvalues_of_the_graph(monkeypatch):
    _detune_lift(monkeypatch)
    with pytest.raises(NumericFailureError, match="lifted quotient residual"):
        pw.pst_certificate(pw.hypercube(7), 0, 127)


def _recording_refinement(monkeypatch):
    """Each refinement _pair asks for, as (cap, cells), cells None where it
    gave up."""
    calls, real = [], partitions._refinement

    def recording(g, label, max_cells):
        try:
            part = real(g, label, max_cells)
        except partitions._TooManyCells:
            calls.append((max_cells, None))
            raise
        calls.append((max_cells, part.m))
        return part

    monkeypatch.setattr(partitions, "_refinement", recording)
    return calls


def test_random_graph_takes_no_refinement_round(monkeypatch):
    # a random weighted graph has about n distinct degrees: the dense route
    # answers without a single refinement round
    calls = _recording_refinement(monkeypatch)
    g = _random_weighted(QUOTIENT_MIN_N, 2)
    assert _pair(g, 0, g.n - 1) is spectral._decomposition(g)
    assert calls == []


def test_krylov_route_gives_up_past_the_cut_off(monkeypatch):
    # a path has 2 distinct degrees, but its ends refine it to singletons:
    # the refinement gives up once a round passes the cap, keeps nothing,
    # and the dense route answers
    calls = _recording_refinement(monkeypatch)
    g = pw.path_graph([1.0] * (2 * QUOTIENT_MIN_N))
    assert _pair(g, 0, g.n - 1) is spectral._decomposition(g)
    assert calls == [(QUOTIENT_MAX_CELLS, None)]
    # the edge list that the route's sign test read stays kept
    assert set(g._kept) == {("edges",), ("eigenpairs",), ("pair", 0, g.n - 1)}


@pytest.mark.parametrize("build, signs", [(lambda: pw.scale(pw.hypercube(7), -1.0), (1, 0) * 4),
                                          (lambda: pw.Graph(pw.hypercube(7).adj - 2.0 * np.eye(128)), (0, 1) * 4)],
                         ids=["negated", "negative-loops"])
def test_negative_weights_take_the_dense_route(build, signs, monkeypatch):
    # n = 128 and one distinct degree, but a negative weight: the lift's top
    # |eigenvalue| need not be the graph's, so no refinement is asked for
    calls = _recording_refinement(monkeypatch)
    g = build()
    assert g.n >= QUOTIENT_MIN_N and np.unique(g.degrees()).size == 1
    assert _pair(g, 0, g.n - 1) is spectral._decomposition(g)
    assert calls == []
    assert pw.strong_cospectrality(g, 0, g.n - 1) == signs


def _glued_cones(index):
    n, k, gamma = pw.glued_cone_family(index)
    half = pw.circulant(n, range(1, k // 2 + 1))
    return pw.glued_double_cone(half, half, pw.circulant(n, range(1, gamma // 2 + 1))), [(0, 2 * n + 1)]


KRYLOV_CASES = {  # graphs and pairs whose refinement has fewer cells than n
    **{f"Q{d}": (lambda d=d: (pw.hypercube(d), [(0, (1 << d) - 1), (0, 1), (1, (1 << d) - 1)]))
       for d in range(6, 10)},
    **{f"gluedcone{i}": (lambda i=i: _glued_cones(i)) for i in (2, 3)},
}


@pytest.mark.parametrize("name", KRYLOV_CASES)
def test_krylov_route_matches_the_dense_answers(name, monkeypatch):
    # below the floor as well, so that Q6 and the glued cones take the
    # quotient route too
    monkeypatch.setattr(partitions, "QUOTIENT_MIN_N", 1)
    g, pairs = KRYLOV_CASES[name]()
    dec = pw.eigendecompose(g)
    times = np.linspace(0.0, 10.0, 41)
    for a_, b_ in pairs:
        pair, (ps, group_tol) = _pair(g, a_, b_), _spectrum(g, a_, b_)
        dense = pw.pair_spectrum(dec, a_, b_)
        assert pair.n < g.n and ("eigenpairs",) not in g._kept
        _agrees_with_dense_route(ps, group_tol, dense, pw.default_group_tol(dec), 1e-12)
        for c in (a_, b_, g.n // 3):
            assert np.max(np.abs(pw.fidelity(pair, a_, c, times) - pw.fidelity(dec, a_, c, times))) <= 1e-12


def _refusing_solves_of_order(monkeypatch, n):
    """np.linalg.eigh and eigvalsh refuse a matrix of order n or more."""
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def refusing(m, *args, real=real, name=name, **kwargs):
            if len(m) >= n:
                raise AssertionError(f"{name} of order {len(m)} called")
            return real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, refusing)


def _answers_on_the_pair(g, a, b):
    cert = pw.pst_certificate(g, a, b)
    return (cert, pw.max_fidelity_scan(g, a, b, 2.0 * math.pi, 2001),
            pw.strong_cospectrality(g, a, b), pw.fidelity_series(g, a, b, 3.0, 31).amplitudes.tobytes())


def test_cubelike_graph_answers_without_a_values_only_solve(monkeypatch):
    grid = np.linspace(0.0, 2.0 * math.pi, 300)
    want = _answers_on_the_pair(pw.hypercube(8), 0, 255) + (
        pw.collapse_fidelity_check(pw.hypercube(8), 0, 255, grid),)
    _refusing_solves_of_order(monkeypatch, 256)
    g = pw.hypercube(8)
    assert _answers_on_the_pair(g, 0, 255) + (pw.collapse_fidelity_check(g, 0, 255, grid),) == want
    assert want[0].verdict == "yes" and want[0].time_exact[:2] == (1, 2)
    assert {k[0] for k in g._kept} == {"edges", "refinement", "pair", "pair spectrum", "distance partition"}


@pytest.mark.parametrize("build, a, b, verdict, size", [
    (lambda: pw.cartesian_product(pw.cycle(16), pw.complete(8)), 0, 64, "unknown", 18),
    (lambda: pw.double_cone(pw.circulant(1024, [1, 2, 3]), 0, 1.0), 0, 1, "unknown", 3),
], ids=["cart(C16,K8)", "doublecone(C1024)"])
def test_non_cubelike_quotient_route_graphs_solve_nothing_of_their_order(build, a, b, verdict, size, monkeypatch):
    # the pair clusters its own eigenvalues: no question solves anything of
    # the graph's order, values only or with vectors (the double cone's
    # builder solves its base for the Perron vector, before the questions)
    g = build()
    _refusing_solves_of_order(monkeypatch, g.n - 2)
    cert = _answers_on_the_pair(g, a, b)[0]
    assert cert.verdict == verdict and len(cert.support) == size
    assert ("eigenpairs",) not in g._kept


@pytest.mark.parametrize("d", [7, 8])
def test_relabelled_cubelike_graph_gives_the_same_answers(d):
    # both take the quotient route, on refinements that the relabelling maps
    # one onto the other, so their pair clusters are indexed alike
    g = pw.hypercube(d)
    perm = np.random.default_rng(d).permutation(g.n)  # vertex v of g is vertex perm[v] of h
    inv = np.argsort(perm)
    h = pw.Graph(g.adj[np.ix_(inv, inv)])
    for a, b in ((0, g.n - 1), (0, 1), (0, 3), (5, 6)):
        ha, hb = int(perm[a]), int(perm[b])
        cert, h_cert = pw.pst_certificate(g, a, b), pw.pst_certificate(h, ha, hb)
        assert (h_cert.verdict, h_cert.support, h_cert.signs, h_cert.time_exact) == (
            cert.verdict, cert.support, cert.signs, cert.time_exact), (a, b)
        theta, h_theta = _spectrum(g, a, b)[0].theta, _spectrum(h, ha, hb)[0].theta
        assert np.max(np.abs(np.subtract(theta, h_theta))) <= 1e-9, (a, b)


def test_eigenvalue_solve_is_checked_and_failures_keep_nothing(monkeypatch):
    # C16 x K8 is on the quotient route: eigenvalues of its quotient off by
    # 1e-6 pass the quotient's own solve, and the lift's residual against A
    # refuses them on every try, keeping nothing
    g = pw.cartesian_product(pw.cycle(16), pw.complete(8))
    signs = (0, 1) * 4 + (0,) + (0, 1) * 4 + (0,)
    real = partitions.eigendecompose

    def shifted(q):
        dec = real(q)
        return pw.EigenDecomposition(dec.values + 1e-6, dec.vectors)

    monkeypatch.setattr(partitions, "eigendecompose", shifted)
    for _ in range(2):
        with pytest.raises(NumericFailureError, match="lifted quotient residual"):
            pw.strong_cospectrality(g, 0, 64)
        assert g._kept == {}
    monkeypatch.undo()
    assert pw.strong_cospectrality(g, 0, 64) == signs
    assert ("pair", 0, 64) in g._kept and ("eigenpairs",) not in g._kept


# ---------------------------------------------------------------------------
# the eigenvalues a pair clusters on a cubelike graph f[i ^ j]: the
# Walsh-Hadamard transform of row 0, on either route
# ---------------------------------------------------------------------------

def _xor_cayley(f):
    """The adjacency f[i ^ j] on Z_2^d, n = len(f) = 2^d."""
    i = np.arange(len(f))
    return pw.Graph(np.asarray(f)[np.bitwise_xor.outer(i, i)])


def _walsh_hadamard_by_moveaxis(row):
    """The Walsh-Hadamard transform of row, one moveaxis butterfly per bit
    of the index: entry s is sum_x row[x] (-1)^popcount(s & x), the
    eigenvalue of the character (-1)^popcount(s & x) of f[i ^ j]."""
    d = row.size.bit_length() - 1
    w = row.reshape((2,) * d)
    for k in range(d):
        x0, x1 = np.moveaxis(w, k, 0)
        w = np.stack((x0 + x1, x0 - x1), axis=k)
    return w.ravel()


CUBELIKE = {
    **{f"Q{d}": (lambda d=d: pw.hypercube(d)) for d in range(1, 10)},
    "random-weights": lambda: _xor_cayley(np.random.default_rng(3).uniform(-1.0, 3.0, 64)),
    "shifted": lambda: pw.Graph(pw.hypercube(6).adj + 2.5 * np.eye(64)),
    "scaled": lambda: pw.scale(pw.hypercube(7), math.sqrt(2.0)),
}


@pytest.mark.parametrize("name", CUBELIKE)
def test_walsh_hadamard_transform_gives_the_eigenvalues(name):
    # the dense route below n = 128, the quotient route on Q7 to Q9 and the
    # scaled Q7: every eigenvalue a pair clusters is one of the transform's
    g = CUBELIKE[name]()
    w = np.sort(_walsh_hadamard_by_moveaxis(g.adj[0]))[::-1]
    scale = max(1.0, np.max(np.abs(w)))
    assert np.max(np.abs(w - np.linalg.eigvalsh(g.adj)[::-1])) <= 1e-12 * scale
    for a, b in ((0, g.n - 1), (0, 1)):
        theta = np.asarray(_spectrum(g, a, b)[0].theta)
        assert np.max(np.min(np.abs(np.subtract.outer(theta, w)), axis=1)) <= 1e-12 * scale, (a, b)
    assert (("eigenpairs",) in g._kept) == (g.n < QUOTIENT_MIN_N)


@pytest.mark.parametrize("d", range(1, 10))
def test_hypercube_eigenvalues_are_exact_integers(d):
    # Q_d has eigenvalue d - 2k with multiplicity C(d, k), and its antipodal
    # pair sees each with weight (-1)^k C(d, k) / 2^d; the certificate
    # reduces their differences to the exact integers -1, ..., -d at scale 2
    g = pw.hypercube(d)
    ps, _ = _spectrum(g, 0, g.n - 1)
    k = np.arange(d + 1)
    want = d - 2.0 * k
    assert np.array_equal(np.rint(ps.theta), want)
    assert np.max(np.abs(np.subtract(ps.theta, want))) <= 1e-12 * d
    binom = np.array([math.comb(d, j) for j in k], dtype=float)
    assert np.max(np.abs(ps.weight - (-1.0) ** k * binom / g.n)) <= 1e-12
    cert = pw.pst_certificate(g, 0, g.n - 1)
    assert cert.verdict == "yes" and cert.time_exact == (1, 2, 1.0) and cert.signs == tuple((k % 2).tolist())
    assert f"integer differences {[-j for j in range(1, d + 1)]} at scale 2;" in cert.reason


# ---------------------------------------------------------------------------
# the pair a graph keeps: one reduction serves every question on the pair
# ---------------------------------------------------------------------------

def test_one_reduction_per_pair(monkeypatch):
    calls = _recording_refinement(monkeypatch)
    g = pw.hypercube(8)
    pw.pst_certificate(g, 0, 255)
    pw.max_fidelity_scan(g, 0, 255, 2.0 * math.pi, 2001)
    pw.collapse_fidelity_check(g, 0, 255, np.linspace(0.0, 2.0 * math.pi, 300))
    pw.strong_cospectrality(g, 0, 255)
    pw.fidelity_series(g, 0, 255, 3.0, 31)
    assert calls == [(QUOTIENT_MAX_CELLS, 9)]
    # n = 128 and 3 distinct degrees, but the refinement of {2}, {65}, rest
    # passes the cap: the capped refinement runs once, and the dense route answers
    calls.clear()
    g = pw.double_cone(pw.circulant(126, [1, 2, 3]), 0, 1.0)
    pw.pst_certificate(g, 2, 65)
    pw.max_fidelity_scan(g, 2, 65, 2.0 * math.pi, 2001)
    pw.strong_cospectrality(g, 2, 65)
    pw.fidelity_series(g, 2, 65, 3.0, 31)
    assert calls == [(QUOTIENT_MAX_CELLS, None)]
    assert g._kept[("pair", 2, 65)] is spectral._decomposition(g)


def _answers(g, a, b, tol):
    cert = pw.pst_certificate(g, a, b)
    return (pw.strong_cospectrality(g, a, b, tol), cert.verdict, cert.support, cert.signs,
            cert.time_exact, cert.reason, pw.max_fidelity_scan(g, a, b, 2.0 * math.pi, 2001),
            pw.fidelity_series(g, a, b, 3.0, 31).amplitudes.tobytes())


def _kept_pair(g):
    return {k for k in g._kept if k[0] not in ("eigenpairs", "edges", "refinement")}


@pytest.mark.parametrize("build, a, b, c", [
    (lambda: pw.hypercube(7), 0, 127, 1),  # the quotient route
    (lambda: pw.path_graph([1.0, 2.0, 2.0, 1.0]), 0, 4, 3),  # the dense route
], ids=["Q7", "P5"])
def test_kept_pair_is_keyed_on_the_pair(build, a, b, c):
    g, seen = build(), set()
    for a_, b_, tol in ((a, b, 1e-8), (b, a, 1e-8), (a, c, 1e-8), (a, c, 0.1), (a, b, 0.1),
                        (a, b, 1e-8)):
        want = _answers(build(), a_, b_, tol)
        assert _answers(g, a_, b_, tol) == want
        # one walk and its 1e-8 spectrum, whatever the tol asked
        assert _kept_pair(g) == {("pair", a_, b_), ("pair spectrum", a_, b_)}
        seen.add(want[0])
    assert len(seen) > 1  # the pairs and tolerances do give different answers


def test_kept_pair_holds_one_spectrum():
    # a tol sweep on one pair keeps the 1e-8 spectrum only
    g = pw.hypercube(5)
    pw.pst_certificate(g, 0, 31)
    for tol in np.geomspace(1e-12, 1e-2, 25):
        assert pw.strong_cospectrality(g, 0, 31, tol) == pw.strong_cospectrality(pw.hypercube(5), 0, 31, tol)
        assert _kept_pair(g) == {("pair", 0, 31), ("pair spectrum", 0, 31)}
    # an unhashable tolerance answers as its float does
    assert pw.strong_cospectrality(g, 0, 31, np.array(1e-3)) == pw.strong_cospectrality(g, 0, 31, 1e-3)
    assert _kept_pair(g) == {("pair", 0, 31), ("pair spectrum", 0, 31)}


def test_failed_pair_build_leaves_the_kept_pair(monkeypatch):
    g = pw.hypercube(7)
    pw.strong_cospectrality(g, 0, 1)
    kept = g._kept
    assert {k[0] for k in kept} == {"edges", "refinement", "pair", "pair spectrum"}
    assert _kept_pair(g) == {("pair", 0, 1), ("pair spectrum", 0, 1)}
    _detune_lift(monkeypatch)
    with pytest.raises(NumericFailureError, match="lifted quotient residual"):
        pw.pst_certificate(g, 0, 127)
    assert g._kept is kept
    monkeypatch.undo()
    assert pw.pst_certificate(g, 0, 127) == pw.pst_certificate(pw.hypercube(7), 0, 127)
    assert _kept_pair(g) == {("pair", 0, 127), ("pair spectrum", 0, 127)}


def test_empty_support_is_an_error_and_keeps_nothing():
    # a tol that leaves no cluster supported is out of range, not "strongly
    # cospectral"; the pair (0, 1) of Q3 is not strongly cospectral at all
    g = pw.hypercube(3)
    with pytest.raises(pw.InvalidArgumentError, match="no supported eigenvalue cluster"):
        pw.strong_cospectrality(g, 0, 1, tol=1.0)
    assert g._kept == {}
    assert pw.strong_cospectrality(g, 0, 1) is None
    with pytest.raises(pw.InvalidArgumentError, match="no supported eigenvalue cluster"):
        pw.pair_spectrum(pw.eigendecompose(pw.path_graph([1.0, 2.0])), 0, 1, tol=0.9)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
def test_non_positive_tol_is_an_error_and_builds_nothing(tol):
    # at tol <= 0 every sign test fails on rounding, so Q3's antipodes, which
    # transfer perfectly, would read "not strongly cospectral"
    g = pw.hypercube(3)
    with pytest.raises(pw.InvalidArgumentError, match="tol must be positive"):
        pw.strong_cospectrality(g, 0, 7, tol)
    with pytest.raises(pw.InvalidArgumentError, match="tol must be positive"):
        _spectrum(g, 0, 7, tol)
    assert g._kept == {}
    with pytest.raises(pw.InvalidArgumentError, match="tol must be positive"):
        pw.pair_spectrum(pw.eigendecompose(g), 0, 7, tol)
    assert pw.strong_cospectrality(g, 0, 7) == (0, 1, 0, 1)


def test_quotient_reduction_matches_dense_amplitudes():
    # the walk from a on the lifted quotient of {a}, rest reaches every vertex
    times = np.linspace(0.0, 10.0, 41)
    for g, a in ((pw.hypercube(7), 0), (pw.cartesian_product(pw.cycle(16), pw.complete(8)), 5)):
        part = pw.coarsest_equitable_refinement(g, [[a], [v for v in range(g.n) if v != a]])
        walk = partitions._lifted(g, part)
        assert walk.n == part.m < g.n
        dec = pw.eigendecompose(g)
        for b in (0, g.n // 3, g.n - 1):
            assert np.allclose(pw.fidelity(walk, a, b, times), pw.fidelity(dec, a, b, times),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("build", [lambda: pw.path_graph([1.0] * 255), lambda: _random_weighted(QUOTIENT_MIN_N, 1)],
                         ids=["P256", "random"])
def test_capped_refinement_gives_up_and_keeps_nothing(build):
    # both refine {0}, {n - 1}, rest to singletons, past the cap
    g = build()
    label = np.full(g.n, 2, dtype=np.intp)  # the labelling of [[0], [n - 1], rest]
    label[[0, g.n - 1]] = [0, 1]
    for _ in range(2):
        with pytest.raises(partitions._TooManyCells):
            partitions._refinement(g, label, QUOTIENT_MAX_CELLS)
        assert g._kept == {}
    # uncapped, the same labelling refines and is kept
    part = pw.coarsest_equitable_refinement(g, [[0], [g.n - 1], range(1, g.n - 1)])
    assert part.m == g.n and partitions._refinement(g, label, QUOTIENT_MAX_CELLS) is part


@pytest.mark.parametrize("build, a, b, cells", [(lambda: pw.hypercube(8), 0, 255, 9),
                                                (lambda: pw.path_graph([1.0] * 255), 0, 255, 256)],
                         ids=["Q8", "P256"])
def test_pair_route_and_refinement_share_one_kept_partition(build, a, b, cells):
    # asked before or after the pair questions, the refinement of {a}, {b},
    # rest is built once and answers alike; past the cap (P256) the pair
    # goes dense in both orders
    def ask(g, refine_first):
        refine = lambda: pw.coarsest_equitable_refinement(g, [[a], [b], [v for v in range(g.n) if v not in (a, b)]])
        first = refine() if refine_first else None
        cert, scan = pw.pst_certificate(g, a, b), pw.max_fidelity_scan(g, a, b, 2.0 * math.pi, 2001)
        part = refine()
        assert first is None or first is part
        kept = [k for k in g._kept if k[0] == "refinement"]
        assert len(kept) == 1 and g._kept[kept[0]] is part and refine() is part
        assert part.m == cells and not part.degrees.flags.writeable
        assert (_pair(g, a, b) is g._kept.get(("eigenpairs",))) == (cells > QUOTIENT_MAX_CELLS)
        return part.cells, part.degrees.tobytes(), cert, scan

    assert ask(build(), True) == ask(build(), False)


def test_quotient_route_checks_its_lifted_pairs(monkeypatch):
    # on a graph that keeps no pair yet, so that each call runs a reduction
    grid = np.linspace(0.0, 3.0, 31)
    assert pw.collapse_fidelity_check(pw.hypercube(7), 0, 127, grid) < 1e-12
    g = pw.hypercube(7)
    monkeypatch.setattr(partitions, "ORTHO_TOL", -1.0)
    with pytest.raises(NumericFailureError, match="lifted quotient orthonormality"):
        pw.collapse_fidelity_check(g, 0, 127, grid)
    monkeypatch.undo()
    # a quotient off by a factor passes its own eigendecomposition's checks,
    # and the collapse check would compare it with itself: the lift against
    # A refuses it
    quotient = partitions._quotient

    def scaled(part):
        quot = quotient(part)
        return partitions.QuotientGraph(pw.scale(quot.graph, 1.001), quot.cell_map)

    monkeypatch.setattr(partitions, "_quotient", scaled)
    with pytest.raises(NumericFailureError, match="lifted quotient residual"):
        pw.collapse_fidelity_check(g, 0, 127, grid)
    # nothing spectral is kept after the failed checks, nor the refinement
    assert set(g._kept) == {("edges",), ("distance partition", 0)}


# ---------------------------------------------------------------------------
# the cluster contract: boundaries and means as the list of index groups gave
# ---------------------------------------------------------------------------

def _grouped_clusters(w, group_tol=None):
    """np.split groups of the indices of w, each group's mean and diameter."""
    if group_tol is None:
        group_tol = 1e-8 * (float(np.max(np.abs(w))) or 1.0)
    groups = np.split(np.arange(len(w)), np.nonzero(w[:-1] - w[1:] > group_tol)[0] + 1)
    for idx in groups:
        diam = float(w[idx[0]] - w[idx[-1]])
        if diam > 10.0 * group_tol:
            raise pw.AmbiguousDegeneracyError(
                f"eigenvalue cluster around {w[idx[0]]:.6g} has diameter {diam:.3g} "
                f"> 10*group_tol ({10 * group_tol:.3g})"
            )
    return groups, [float(np.mean(w[idx])) for idx in groups], group_tol


def test_cluster_bounds_and_means_match_the_index_groups(corpus):
    extra = [pw.hypercube(9), _random_weighted(256, 3), pw.complete(1), pw.Graph([[2.0]])]
    for g in list(corpus) + extra:
        w = pw.spectrum(g)
        groups, means, group_tol = _grouped_clusters(w)
        bounds, got_tol = spectral._clusters(w, None)
        got = spectral._means(w, bounds, np.arange(len(bounds) - 1))
        assert bounds[0] == 0 and bounds[-1] == len(w)
        assert [x.tolist() for x in np.split(np.arange(len(w)), bounds[1:-1])] == [x.tolist() for x in groups]
        assert got.tolist() == means and got_tol == group_tol
    assert max(np.diff(spectral._clusters(pw.spectrum(pw.hypercube(9)), None)[0])) == 126


@pytest.mark.parametrize("chains", [1, 2])
def test_too_wide_cluster_message_names_the_first(chains):
    # chains of loop weights spaced just under the grouping tolerance: the
    # message names the first (highest) cluster that is too wide
    tol = 1e-6
    chain = np.arange(30) * 0.9 * tol
    dec = pw.eigendecompose(pw.Graph(np.diag(np.concatenate([chain + k for k in range(chains)]))))
    with pytest.raises(pw.AmbiguousDegeneracyError) as want:
        _grouped_clusters(dec.values, tol)
    with pytest.raises(pw.AmbiguousDegeneracyError, match=f"^{re.escape(str(want.value))}$"):
        pw.spectral_projectors(dec, group_tol=tol)


@pytest.mark.parametrize("g", [pw.complete(1), pw.Graph([[2.0]])], ids=["K1", "loop"])
def test_one_vertex_pair_spectrum(g):
    for ps in (pw.pair_spectrum(pw.eigendecompose(g), 0, 0), _spectrum(g, 0, 0)[0]):
        assert ps.support == (0,) and ps.weight.tolist() == [1.0] and ps.signs == (0,)
        assert ps.theta == (float(g.adj[0, 0]),) and ps.broken_at is None


# ---------------------------------------------------------------------------
# _support against the formulation that summed every run of columns
# ---------------------------------------------------------------------------

def _support_reference(dec, a, b, tol):
    """The pair spectrum as np.add.reduceat over every run of columns, one
    column or several, with every cluster's mean taken first."""
    values = dec.values
    bounds, group_tol = spectral._clusters(values, None)
    means = values[bounds[:-1]]
    for j in np.flatnonzero(np.diff(bounds) > 1):
        means[j] = np.mean(values[bounds[j] : bounds[j + 1]])
    runs = bounds[:-1]
    v = dec.vectors
    ea = np.add.reduceat(v * v[a, :], runs, axis=1)
    eb = np.add.reduceat(v * v[b, :], runs, axis=1)
    sup = np.nonzero((np.linalg.norm(ea, axis=0) > tol) | (np.linalg.norm(eb, axis=0) > tol))[0]
    ea, eb = ea[:, sup], eb[:, sup]
    plus = np.max(np.abs(ea - eb), axis=0, initial=0.0) <= tol
    minus = np.max(np.abs(ea + eb), axis=0, initial=0.0) <= tol
    support = sup
    theta = tuple(means[support].tolist())
    broken = np.nonzero(~plus & ~minus)[0]
    signs = None if broken.size else tuple(0 if p else 1 for p in plus)
    weight = np.add.reduceat(v[a, :] * v[b, :], runs)[sup]
    broken_at = theta[broken[0]] if broken.size else None
    return tuple(support.tolist()), theta, weight, signs, broken_at, group_tol


def _assert_bitwise_reference(dec, a, b, tol=TOL):
    ps, group_tol = spectral._support(dec, a, b, tol)
    support, theta, weight, signs, broken_at, ref_tol = _support_reference(dec, a, b, tol)
    assert ps.support == support and ps.signs == signs and group_tol == ref_tol
    assert np.array(ps.theta).tobytes() == np.array(theta).tobytes()
    assert ps.weight.tobytes() == weight.tobytes()
    assert repr(ps.broken_at) == repr(broken_at)  # a float's repr gives its bits back


def test_support_matches_the_reduceat_reference_on_every_corpus_pair(corpus):
    for g in corpus:
        dec = pw.eigendecompose(g)
        for a in range(g.n):
            for b in range(a, g.n):
                _assert_bitwise_reference(dec, a, b)


def test_support_matches_the_reduceat_reference_on_the_ladders(ladder):
    # each instance's pair on the route its questions take (lifted quotient
    # pairs on the structured graphs of n >= 128), and the dense route of a wider tol
    for name, g, a, b in ladder:
        _assert_bitwise_reference(_pair(g, a, b), a, b)
        if g.n <= 128:
            _assert_bitwise_reference(pw.eigendecompose(g), a, b, tol=0.05)
