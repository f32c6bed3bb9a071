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
from pstwalk.spectral import KRYLOV_MAX_DIM, KRYLOV_MIN_N, _lanczos, _pair

TOL = 1e-8


def _pairs(g):
    return sorted({(0, g.n - 1), (0, g.n // 2)} - {(0, 0)})


# ---------------------------------------------------------------------------
# references computed here, over every eigenvalue or from dense projectors
# ---------------------------------------------------------------------------

def _golden_max(fn, lo, hi, iters):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = fn(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = fn(c)
    return (c, fc) if fc >= fd else (d, fd)


def _reference_scan(g, a, b, t_max, steps, iters=60):
    """Grid over all n eigenvalues in one product, then golden section."""
    dec = pw.eigendecompose(g)
    times = np.linspace(0.0, t_max, steps)
    w_ab = dec.vectors[b, :] * dec.vectors[a, :]
    vals = np.abs(w_ab @ np.exp(-1j * np.outer(dec.values, times)))
    k = int(np.argmax(vals))
    best_t, best_f = float(times[k]), float(vals[k])
    h = times[1] - times[0]
    t_ref, f_ref = _golden_max(
        lambda t: abs(pw.fidelity(dec, a, b, t)),
        max(0.0, best_t - h), min(t_max, best_t + h), iters,
    )
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
            dense, pair = pw.pair_spectrum(dec, a, b), _pair(g, a, b, 1e-8)
            reduced += pair.dec.n < g.n
            ps = pair.spectrum
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
        assert g._spectrum is None
    cert = pw.pst_certificate(g, 0, 255)
    assert cert.verdict == "yes" and cert.time_exact == (1, 2, 1.0)
    assert cert.support == tuple(range(9)) and cert.signs == (0, 1) * 4 + (0,)


def _matches_dense_route(g, a, b):
    dec = pw.eigendecompose(g)
    pair, dense = _pair(g, a, b, 1e-8), pw.pair_spectrum(dec, a, b)
    ps = pair.spectrum
    assert ps.support == dense.support and ps.signs == dense.signs
    assert np.allclose(ps.theta, dense.theta, rtol=0.0, atol=1e-9)
    assert np.allclose(ps.weight, dense.weight, rtol=0.0, atol=1e-9)
    times = np.linspace(0.0, 7.0, 29)
    assert np.allclose(pair.amplitude(times), pw.fidelity(dec, a, b, times), rtol=0.0, atol=1e-9)
    return pair


def test_krylov_route_extends_past_the_first_start():
    # e_1 is not in K(e_0) on Q7 (8 dimensions, one per distance from 0):
    # the second start vector extends the space, which stays below n
    g = pw.hypercube(7)
    from_0 = _lanczos(g, 0, KRYLOV_MAX_DIM)
    assert np.linalg.norm(from_0.vectors[1]) < 0.5
    pair = _matches_dense_route(g, 0, 1)
    assert from_0.n < pair.dec.n < g.n
    assert pair.spectrum.signs is None and g._spectrum is None


def test_krylov_route_of_a_vertex_with_itself():
    g = pw.cartesian_product(pw.cycle(16), pw.complete(8))
    pair = _matches_dense_route(g, 5, 5)
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
    pair = _pair(g, 0, 2 * n + 1, 1e-8)
    assert pair.dec.n == 4
    dense = pw.pair_spectrum(pw.eigendecompose(g), 0, 2 * n + 1)
    support = pair.spectrum.support
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


def test_eigenvalue_solve_is_checked_and_failures_keep_nothing(monkeypatch):
    g = pw.hypercube(7)
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: eigvalsh(m) + 1e-6)
    for _ in range(2):
        with pytest.raises(NumericFailureError, match="trace identities"):
            pw.strong_cospectrality(g, 0, 127)
        assert g._values is None
    monkeypatch.undo()
    assert pw.strong_cospectrality(g, 0, 127) == (0, 1) * 4
    assert g._values is not None and g._spectrum is None


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
    assert g._last_pair[0].dec is spectral._decomposition(g)


def _answers(g, a, b, tol):
    cert = pw.pst_certificate(g, a, b)
    return (pw.strong_cospectrality(g, a, b, tol), cert.verdict, cert.support, cert.signs,
            cert.time_exact, cert.reason, pw.max_fidelity_scan(g, a, b, 2.0 * math.pi, 2001),
            pw.fidelity_series(g, a, b, 3.0, 31).amplitudes.tobytes())


@pytest.mark.parametrize("build, a, b, c", [
    (lambda: pw.hypercube(7), 0, 127, 1),  # the Krylov route
    (lambda: pw.path_graph([1.0, 2.0, 2.0, 1.0]), 0, 4, 3),  # the dense route
], ids=["Q7", "P5"])
def test_kept_pair_is_keyed_on_the_pair_and_tol(build, a, b, c):
    g, seen = build(), set()
    for a_, b_, tol in ((a, b, 1e-8), (b, a, 1e-8), (a, c, 1e-8), (a, c, 0.1), (a, b, 0.1),
                        (a, b, 1e-8)):
        want = _answers(build(), a_, b_, tol)
        assert _answers(g, a_, b_, tol) == want
        pair, spectra = g._last_pair
        assert (pair.a, pair.b) == (a_, b_) and {1e-8, tol} <= set(spectra) and len(spectra) <= 2
        seen.add(want[0])
    assert len(seen) > 1  # the pairs and tolerances do give different answers


def test_kept_pair_holds_at_most_two_spectra():
    # a tol sweep on one pair keeps the 1e-8 spectrum and the last tol only
    g = pw.hypercube(5)
    pw.pst_certificate(g, 0, 31)
    for tol in np.geomspace(1e-12, 1e-2, 25):
        assert pw.strong_cospectrality(g, 0, 31, tol) == pw.strong_cospectrality(pw.hypercube(5), 0, 31, tol)
        assert set(g._last_pair[1]) == {1e-8, float(tol)}
    # an unhashable tolerance answers as its float does
    assert pw.strong_cospectrality(g, 0, 31, np.array(1e-3)) == pw.strong_cospectrality(g, 0, 31, 1e-3)
    assert set(g._last_pair[1]) == {1e-8, 1e-3}


def test_failed_pair_build_leaves_the_kept_pair(monkeypatch):
    g = pw.hypercube(7)
    pw.strong_cospectrality(g, 0, 1)
    kept = g._last_pair
    _detune_lanczos(monkeypatch)
    with pytest.raises(NumericFailureError, match="not an eigenvalue of the graph"):
        pw.pst_certificate(g, 0, 127)
    assert g._last_pair is kept and list(kept[1]) == [1e-8]
    monkeypatch.undo()
    assert pw.pst_certificate(g, 0, 127) == pw.pst_certificate(pw.hypercube(7), 0, 127)
    assert (g._last_pair[0].a, g._last_pair[0].b) == (0, 127)


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
    assert g._spectrum is None and g._last_pair is None


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
    for ps in (pw.pair_spectrum(pw.eigendecompose(g), 0, 0), _pair(g, 0, 0, 1e-8).spectrum):
        assert ps.support == (0,) and ps.weight.tolist() == [1.0] and ps.signs == (0,)
        assert ps.theta == (float(g.adj[0, 0]),) and ps.broken_at is None
