"""The pair spectrum and the single-source BFS against the per-eigenvalue,
per-projector and all-pairs computations they replace, plus memory bounds
on the certificate and scan paths."""

import math
import tracemalloc

import numpy as np
import pytest

import pstwalk as pw

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
