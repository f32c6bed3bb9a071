"""The pair spectrum and the single-source BFS against the per-eigenvalue,
per-projector and all-pairs computations they replace, memory bounds on
the certificate and scan paths, and the Krylov route of pair questions
against the dense route."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import NumericFailureError, spectral
from pstwalk.spectral import KRYLOV_MAX_DIM, KRYLOV_MIN_N, _lanczos, _pair, _pair_spectrum

TOL = 1e-8


def _pairs(g):
    return sorted({(0, g.n - 1), (0, g.n // 2)} - {(0, 0)})


# ---------------------------------------------------------------------------
# references computed here, over every eigenvalue or from dense projectors
# ---------------------------------------------------------------------------

def _newton_max(theta, w, t, lo, hi, t_max, iters):
    """Bracketed Newton steps on g = |F|^2 for F = sum w exp(-i theta t):
    g' and g'' from F, F' and F'' summed per eigenvalue."""
    err = 8.0 * np.finfo(float).eps * np.sum(np.abs(w)) * (1.0 + np.max(np.abs(theta)) * t_max)
    t_top, top = t, -np.inf
    for _ in range(iters):
        phase = np.exp(-1j * theta * t)
        f, f1, f2 = (w * phase).sum(), (-1j * theta * w * phase).sum(), (-theta**2 * w * phase).sum()
        if abs(f) < top - err:
            lo, hi = (lo, t) if t > t_top else (t, hi)
            t_next = math.nan
        else:
            t_top, top = t, abs(f)
            d1 = 2.0 * (f.conjugate() * f1).real
            d2 = 2.0 * (abs(f1) ** 2 + (f.conjugate() * f2).real)
            if abs(f) <= err:
                lo, hi = (lo, t) if t - lo > hi - t else (t, hi)
            elif d1 > 0.0:
                lo = t
            elif d1 < 0.0:
                hi = t
            else:
                break
            t_next = t - d1 / d2 if d2 < 0.0 else math.nan
            if t_next == t:
                break
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
            if not lo < t_next < hi:
                break
        t = t_next
    return t_top


def _reference_scan(g, a, b, t_max, steps, iters=60):
    """Grid over all n eigenvalues in one product, then Newton steps."""
    dec = pw.eigendecompose(g)
    times = np.linspace(0.0, t_max, steps)
    w_ab = dec.vectors[b, :] * dec.vectors[a, :]
    vals = np.abs(w_ab @ np.exp(-1j * np.outer(dec.values, times)))
    k = int(np.argmax(vals))
    best_t, best_f = float(times[k]), float(vals[k])
    h = times[1] - times[0]
    t_ref = _newton_max(dec.values, w_ab, best_t, max(0.0, best_t - h), min(t_max, best_t + h), t_max, iters)
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


# ---------------------------------------------------------------------------
# pair questions on the Krylov space of the pair
# ---------------------------------------------------------------------------

def test_quotient_route_matches_dense_route_on_the_corpus(corpus, monkeypatch):
    monkeypatch.setattr(spectral, "KRYLOV_MIN_N", 1)
    times = np.linspace(0.0, 7.0, 9)
    reduced = 0
    for g in corpus:
        dec = pw.eigendecompose(g)
        for a, b in _pairs(g) + [(g.n - 1, g.n - 1)]:
            dense, (pair, ps, _) = pw.pair_spectrum(dec, a, b), _pair_spectrum(g, a, b)
            reduced += pair.dec.n < g.n
            assert ps.support == dense.support and ps.signs == dense.signs
            assert (ps.broken_at is None) == (dense.broken_at is None)
            assert np.allclose(ps.theta, dense.theta, rtol=0.0, atol=1e-9)
            assert np.allclose(ps.weight, dense.weight, rtol=0.0, atol=1e-9)
            assert np.allclose(pair.amplitude(times), pw.fidelity(dec, a, b, times),
                               rtol=0.0, atol=1e-9)
    assert reduced > 100  # most corpus pairs have a Krylov space of fewer dimensions


def test_structured_pair_questions_solve_no_eigenvectors_of_the_graph():
    # Q8 is above the floor and its pair's Krylov space has 9 dimensions: no question
    # solves or keeps the 256 x 256 eigendecomposition, and each answer is
    # the one given on a graph whose decomposition was solved first
    assert pw.hypercube(8).n >= KRYLOV_MIN_N
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
    (pair, ps, _), dense = _pair_spectrum(g, a, b), pw.pair_spectrum(dec, a, b)
    assert ps.support == dense.support and ps.signs == dense.signs
    assert np.allclose(ps.theta, dense.theta, rtol=0.0, atol=1e-9)
    assert np.allclose(ps.weight, dense.weight, rtol=0.0, atol=1e-9)
    times = np.linspace(0.0, 7.0, 29)
    assert np.allclose(pair.amplitude(times), pw.fidelity(dec, a, b, times), rtol=0.0, atol=1e-9)
    return pair, ps


def test_krylov_route_extends_past_the_first_start():
    # e_1 is not in K(e_0) on Q7 (8 dimensions, one per distance from 0):
    # the second start vector extends the space, which stays below n
    g = pw.hypercube(7)
    from_0 = _lanczos(g, 0, KRYLOV_MAX_DIM)
    assert np.linalg.norm(from_0.vectors[1]) < 0.5
    pair, ps = _matches_dense_route(g, 0, 1)
    assert from_0.n < pair.dec.n < g.n
    assert ps.signs is None and ("eigenpairs",) not in g._kept


def test_krylov_route_of_a_vertex_with_itself():
    g = pw.cartesian_product(pw.cycle(16), pw.complete(8))
    pair, _ = _matches_dense_route(g, 5, 5)
    assert pair.dec.n == _lanczos(g, 5, KRYLOV_MAX_DIM).n < g.n


def test_krylov_support_holds_cluster_indices_of_the_graph():
    # two disjoint copies of the glued cones of family member 3 (n = 244):
    # 4 Ritz pairs, fewer than the 6 cells of the coarsest equitable
    # refinement of {a}, {b}, rest, and 46 distinct eigenvalues of the
    # graph; support indexes the graph's clusters, not the Ritz values
    n, k, gamma = pw.glued_cone_family(3)
    half = pw.circulant(n, range(1, k // 2 + 1))
    g = pw.glued_double_cone(half, half, pw.circulant(n, range(1, gamma // 2 + 1)))
    g = pw.Graph(np.kron(np.eye(2), g.adj))
    pair, ps, _ = _pair_spectrum(g, 0, 2 * n + 1)
    assert pair.dec.n == 4
    dense = pw.pair_spectrum(pw.eigendecompose(g), 0, 2 * n + 1)
    support = ps.support
    assert support == dense.support and max(support) > 3


def _detune_lanczos(monkeypatch):
    real = spectral._lanczos

    def detuned(g, starts, max_dim):
        walk = real(g, starts, max_dim)
        return pw.EigenDecomposition(walk.values * 1.001, walk.vectors)

    monkeypatch.setattr(spectral, "_lanczos", detuned)


def test_ritz_values_must_be_eigenvalues_of_the_graph(monkeypatch):
    _detune_lanczos(monkeypatch)
    with pytest.raises(NumericFailureError, match="not an eigenvalue of the graph"):
        pw.pst_certificate(pw.hypercube(7), 0, 127)


def _recording_lanczos(monkeypatch):
    calls, real = [], spectral._lanczos

    def recording(g, starts, max_dim):
        walk = real(g, starts, max_dim)
        calls.append((tuple(starts), max_dim, walk is None))
        return walk

    monkeypatch.setattr(spectral, "_lanczos", recording)
    return calls


def test_random_graph_takes_no_lanczos_step(monkeypatch):
    # a random weighted graph has about n distinct degrees: the dense route
    # answers without a single Lanczos step
    calls = _recording_lanczos(monkeypatch)
    g = _random_weighted(KRYLOV_MIN_N, 2)
    assert _pair(g, 0, g.n - 1).dec is spectral._decomposition(g)
    assert calls == []


def test_krylov_route_gives_up_past_the_cut_off(monkeypatch):
    # a path has 2 distinct degrees, but K(e_0) already spans all n
    # dimensions: the reduction stops at the cut-off and the dense route
    # answers
    calls = _recording_lanczos(monkeypatch)
    g = pw.path_graph([1.0] * (2 * KRYLOV_MIN_N))
    assert _pair(g, 0, g.n - 1).dec is spectral._decomposition(g)
    assert calls == [((0, g.n - 1), KRYLOV_MAX_DIM, True)]


def _perturbed_values_fail_and_keep_nothing(monkeypatch, g, a, b, owner, name, signs):
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda m: real(m) + 1e-6)
    for _ in range(2):
        with pytest.raises(NumericFailureError, match="trace identities"):
            pw.strong_cospectrality(g, a, b)
        assert g._kept == {}
    monkeypatch.undo()
    assert pw.strong_cospectrality(g, a, b) == signs
    assert ("eigenvalues",) in g._kept and ("eigenpairs",) not in g._kept


def test_eigenvalue_solve_is_checked_and_failures_keep_nothing(monkeypatch):
    # C16 x K8 is on the Krylov route and not cubelike: its values come from eigvalsh
    g = pw.cartesian_product(pw.cycle(16), pw.complete(8))
    signs = (0, 1) * 4 + (0,) + (0, 1) * 4 + (0,)
    _perturbed_values_fail_and_keep_nothing(monkeypatch, g, 0, 64, np.linalg, "eigvalsh", signs)


def test_walsh_hadamard_transform_is_checked_and_failures_keep_nothing(monkeypatch):
    g = pw.hypercube(7)
    _perturbed_values_fail_and_keep_nothing(monkeypatch, g, 0, 127, spectral, "_walsh_hadamard", (0, 1) * 4)


# ---------------------------------------------------------------------------
# the graph eigenvalues on the Krylov route: the Walsh-Hadamard transform of
# row 0 on a cubelike graph, a values-only solve on any other
# ---------------------------------------------------------------------------

def _xor_cayley(f):
    """The adjacency f[i ^ j] on Z_2^d, n = len(f) = 2^d."""
    i = np.arange(len(f))
    return pw.Graph(np.asarray(f)[np.bitwise_xor.outer(i, i)])


CUBELIKE = {
    **{f"Q{d}": (lambda d=d: pw.hypercube(d)) for d in range(1, 10)},
    "random-weights": lambda: _xor_cayley(np.random.default_rng(3).uniform(-1.0, 3.0, 64)),
    "shifted": lambda: pw.Graph(pw.hypercube(6).adj + 2.5 * np.eye(64)),
    "scaled": lambda: pw.scale(pw.hypercube(7), math.sqrt(2.0)),
}


@pytest.mark.parametrize("name", CUBELIKE)
def test_walsh_hadamard_transform_gives_the_eigenvalues(name):
    g = CUBELIKE[name]()
    assert spectral._walsh_hadamard(g.adj) is not None
    w, ref = spectral._eigenvalues(g), np.linalg.eigvalsh(g.adj)[::-1]
    assert np.max(np.abs(w - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("d", range(1, 10))
def test_hypercube_eigenvalues_are_exact_integers(d):
    # Q_d has eigenvalue d - 2k with multiplicity C(d, k)
    want = np.repeat(d - 2.0 * np.arange(d + 1), [math.comb(d, k) for k in range(d + 1)])
    assert np.array_equal(spectral._eigenvalues(pw.hypercube(d)), want)


def test_walsh_hadamard_transform_takes_only_cubelike_graphs():
    assert spectral._walsh_hadamard(pw.complete(6).adj) is None  # n not a power of two
    assert spectral._walsh_hadamard(pw.cycle(8).adj) is None  # a Cayley graph on Z_8 only
    q = pw.hypercube(5).adj
    for i, j, x in ((0, 1, 0.5), (3, 9, 1.0), (30, 31, 2.0), (0, 31, 1.0), (17, 17, 1.0)):
        adj = q.copy()
        adj[i, j] = adj[j, i] = x  # one symmetric entry changed
        assert spectral._walsh_hadamard(adj) is None, (i, j)
    # what the check reads of a relabelled cubelike graph differs
    perm = np.random.default_rng(0).permutation(32)
    assert spectral._walsh_hadamard(q[np.ix_(perm, perm)]) is None


@pytest.mark.parametrize("layout", ["C", "F"])
def test_cubelike_check_allocates_no_square_array(layout):
    n = 512
    good = np.asarray(pw.hypercube(9).adj, order=layout)
    bad = good.copy(order=layout)
    bad[n - 1, n - 2] = bad[n - 2, n - 1] = 2.0  # read only at the last level
    for adj, cubelike in ((good, True), (bad, False)):
        assert (spectral._walsh_hadamard(adj) is not None) == cubelike
        # an n x n float array is 8 n^2 bytes; the check's temporaries are
        # an n/2 x n/2 boolean and numpy's fixed-size ufunc buffers
        assert _traced_peak(lambda: spectral._walsh_hadamard(adj)) <= n * n


def test_cubelike_graph_answers_without_a_values_only_solve(monkeypatch):
    def answers(g):
        cert = pw.pst_certificate(g, 0, 255)
        return (cert, pw.max_fidelity_scan(g, 0, 255, 2.0 * math.pi, 2001),
                pw.fidelity_series(g, 0, 255, 3.0, 31).amplitudes.tobytes(),
                pw.collapse_fidelity_check(g, 0, 255, np.linspace(0.0, 2.0 * math.pi, 300)))

    want = answers(pw.hypercube(8))

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    g = pw.hypercube(8)
    assert answers(g) == want
    assert want[0].verdict == "yes" and want[0].time_exact[:2] == (1, 2)
    assert ("eigenvalues",) in g._kept and ("eigenpairs",) not in g._kept


def test_non_cubelike_krylov_graph_takes_the_values_only_solve(monkeypatch):
    calls, real = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(np.shape(m)) or real(m))
    cert = pw.pst_certificate(pw.cartesian_product(pw.cycle(16), pw.complete(8)), 0, 64)
    assert calls == [(128, 128)]
    assert cert.verdict == "unknown" and len(cert.support) == 18


@pytest.mark.parametrize("d", [7, 8])
def test_relabelled_cubelike_graph_gives_the_same_answers(d):
    # the relabelled copy is not cubelike as labelled and takes eigvalsh
    g = pw.hypercube(d)
    perm = np.random.default_rng(d).permutation(g.n)  # vertex v of g is vertex perm[v] of h
    inv = np.argsort(perm)
    h = pw.Graph(g.adj[np.ix_(inv, inv)])
    assert spectral._walsh_hadamard(h.adj) is None
    for a, b in ((0, g.n - 1), (0, 1), (0, 3), (5, 6)):
        ha, hb = int(perm[a]), int(perm[b])
        cert, h_cert = pw.pst_certificate(g, a, b), pw.pst_certificate(h, ha, hb)
        assert (h_cert.verdict, h_cert.support, h_cert.signs, h_cert.time_exact) == (
            cert.verdict, cert.support, cert.signs, cert.time_exact), (a, b)
        theta, h_theta = _pair_spectrum(g, a, b)[1].theta, _pair_spectrum(h, ha, hb)[1].theta
        assert np.max(np.abs(np.subtract(theta, h_theta))) <= 1e-9, (a, b)


# ---------------------------------------------------------------------------
# the pair a graph keeps: one reduction serves every question on the pair
# ---------------------------------------------------------------------------

def test_one_reduction_per_pair(monkeypatch):
    calls = _recording_lanczos(monkeypatch)
    g = pw.hypercube(8)
    pw.pst_certificate(g, 0, 255)
    pw.max_fidelity_scan(g, 0, 255, 2.0 * math.pi, 2001)
    pw.collapse_fidelity_check(g, 0, 255, np.linspace(0.0, 2.0 * math.pi, 300))
    pw.strong_cospectrality(g, 0, 255)
    pw.fidelity_series(g, 0, 255, 3.0, 31)
    assert calls == [((0, 255), KRYLOV_MAX_DIM, False)]
    # n = 128 and 3 distinct degrees, but K(e_2, e_65) does not close within
    # the cut-off: the failed reduction runs once, and the dense route answers
    calls.clear()
    g = pw.double_cone(pw.circulant(126, [1, 2, 3]), 0, 1.0)
    pw.pst_certificate(g, 2, 65)
    pw.max_fidelity_scan(g, 2, 65, 2.0 * math.pi, 2001)
    pw.strong_cospectrality(g, 2, 65)
    pw.fidelity_series(g, 2, 65, 3.0, 31)
    assert calls == [((2, 65), KRYLOV_MAX_DIM, True)]
    assert g._kept[("pair", 2, 65)].dec is spectral._decomposition(g)


def _answers(g, a, b, tol):
    cert = pw.pst_certificate(g, a, b)
    return (pw.strong_cospectrality(g, a, b, tol), cert.verdict, cert.support, cert.signs,
            cert.time_exact, cert.reason, pw.max_fidelity_scan(g, a, b, 2.0 * math.pi, 2001),
            pw.fidelity_series(g, a, b, 3.0, 31).amplitudes.tobytes())


def _kept_pair(g):
    return set(g._kept) - {("eigenpairs",), ("eigenvalues",)}


@pytest.mark.parametrize("build, a, b, c", [
    (lambda: pw.hypercube(7), 0, 127, 1),  # the Krylov route
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
    assert set(kept) == {("eigenvalues",), ("pair", 0, 1), ("pair spectrum", 0, 1)}
    _detune_lanczos(monkeypatch)
    with pytest.raises(NumericFailureError, match="not an eigenvalue of the graph"):
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
        _pair_spectrum(g, 0, 7, tol)
    assert g._kept == {}
    with pytest.raises(pw.InvalidArgumentError, match="tol must be positive"):
        pw.pair_spectrum(pw.eigendecompose(g), 0, 7, tol)
    assert pw.strong_cospectrality(g, 0, 7) == (0, 1, 0, 1)


def test_lanczos_reduction_matches_dense_amplitudes():
    times = np.linspace(0.0, 10.0, 41)
    for g, a in ((pw.hypercube(7), 0), (pw.cartesian_product(pw.cycle(16), pw.complete(8)), 5)):
        walk = _lanczos(g, a, KRYLOV_MAX_DIM)
        assert walk is not None and walk.n < g.n
        dec = pw.eigendecompose(g)
        for b in (0, g.n // 3, g.n - 1):
            assert np.allclose(pw.fidelity(walk, a, b, times), pw.fidelity(dec, a, b, times),
                               rtol=0.0, atol=1e-12)
    # a random graph's Krylov space reaches past the cut-off: no reduction
    assert _lanczos(_random_weighted(KRYLOV_MIN_N, 1), 0, KRYLOV_MAX_DIM) is None


def test_lanczos_checks_its_ritz_pairs(monkeypatch):
    # on a graph that keeps no pair yet, so that each call runs a reduction
    grid = np.linspace(0.0, 3.0, 31)
    assert pw.collapse_fidelity_check(pw.hypercube(7), 0, 127, grid) < 1e-12
    g = pw.hypercube(7)
    monkeypatch.setattr(spectral, "ORTHO_TOL", -1.0)
    with pytest.raises(NumericFailureError, match="Lanczos basis orthonormality"):
        pw.collapse_fidelity_check(g, 0, 127, grid)
    monkeypatch.undo()
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0] + 1e-6, eigh(m)[1]))
    with pytest.raises(NumericFailureError, match="Lanczos Ritz residual"):
        pw.collapse_fidelity_check(g, 0, 127, grid)
    # nothing spectral is kept after the failed checks
    assert set(g._kept) == {("edges",), ("distance partition", 0)}


# ---------------------------------------------------------------------------
# the cluster contract: boundaries and means as the list of index groups gave
# ---------------------------------------------------------------------------

def _grouped_clusters(w, group_tol=None):
    """np.split groups of the indices of w, each group's mean and diameter."""
    if group_tol is None:
        group_tol = 1e-8 * max(1.0, float(np.max(np.abs(w))))
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
        bounds, got, got_tol = spectral._clusters(w, None)
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
    for ps in (pw.pair_spectrum(pw.eigendecompose(g), 0, 0), _pair_spectrum(g, 0, 0)[1]):
        assert ps.support == (0,) and ps.weight.tolist() == [1.0] and ps.signs == (0,)
        assert ps.theta == (float(g.adj[0, 0]),) and ps.broken_at is None
