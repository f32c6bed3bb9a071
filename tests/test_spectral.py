import math
import re
import tracemalloc

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import (
    AmbiguousDegeneracyError,
    DegenerateEigenvalueError,
    InvalidArgumentError,
    NotConnectedError,
    NumericFailureError,
)
from pstwalk import partitions, spectral, transfer
from pstwalk.spectral import _STEP_BLOCK, _amplitudes, _decomposition
from conftest import newton_max


def test_eigendecompose_reconstructs_matrix(corpus):
    for g in corpus:
        d = pw.eigendecompose(g)
        rebuilt = d.vectors @ np.diag(d.values) @ d.vectors.T
        assert np.abs(rebuilt - g.adj).max() <= 1e-10 * g.n * max(1.0, np.abs(g.adj).max())
        assert np.abs(d.vectors.T @ d.vectors - np.eye(g.n)).max() <= 1e-10 * max(1, g.n)
        # descending order
        assert np.all(np.diff(d.values) <= 1e-12)


def _count_eigh(monkeypatch):
    """Record the order n of every np.linalg.eigh call."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_graph_spectrum_is_solved_once(monkeypatch):
    g = pw.hypercube(4)
    calls = _count_eigh(monkeypatch)
    assert pw.pst_certificate(g, 0, 15).verdict == "yes"
    pw.max_fidelity_scan(g, 0, 15, 4.0, 401)
    assert pw.strong_cospectrality(g, 0, 15) is not None
    pw.fidelity_series(g, 0, 15, 2.0, 21)
    assert pw.collapse_fidelity_check(g, 0, 15, np.linspace(0.0, 3.0, 31)) < 1e-12
    assert pw.is_integral(g) and pw.spectrum(g)[0] == pytest.approx(4.0)
    pw.perron_vector(pw.complete(3))
    assert calls == [16, 5, 3]  # Q4 once, its 5-cell quotient once, K3 once
    # a second graph with equal adjacency solves its own spectrum
    h = pw.hypercube(4)
    assert h == g and hash(h) == hash(g)
    pw.strong_cospectrality(h, 0, 15)
    assert calls == [16, 5, 3, 16]
    # the public eigensolve always solves afresh
    pw.eigendecompose(g)
    assert calls == [16, 5, 3, 16, 16]


def test_generalized_lexicographic_spectrum_shares_the_inner_solve(monkeypatch):
    g, c, h = pw.complete(3), pw.circulant(6, [2, 3]), pw.circulant(6, [1])
    calls = _count_eigh(monkeypatch)
    pw.generalized_lexicographic_spectrum(g, c, h)
    pw.spectrum(h)
    assert calls == [6, 3]  # H once, shared with spectrum(h), and G once


def test_stored_and_fresh_decompositions_are_identical(corpus):
    for g in corpus:
        stored, fresh = _decomposition(g), pw.eigendecompose(g)
        assert _decomposition(g) is stored
        assert stored.values.tobytes() == fresh.values.tobytes()
        assert stored.vectors.tobytes() == fresh.vectors.tobytes()


def test_stored_decomposition_leaves_graph_identity_alone():
    g = pw.circulant(8, [1, 3])
    before = (hash(g), repr(g), pw.serialize_graph(g))
    _decomposition(g)
    h = pw.Graph(g.adj, g.labels)
    assert g == h and (hash(g), repr(g), pw.serialize_graph(g)) == before
    assert hash(h) == before[0]


def test_failed_solve_stores_nothing(monkeypatch):
    g = pw.cycle(5)
    monkeypatch.setattr(spectral, "RECON_TOL", -1.0)
    for _ in range(2):
        with pytest.raises(NumericFailureError):
            pw.spectrum(g)
        assert g._kept == {}
    monkeypatch.undo()
    assert pw.spectrum(g)[0] == pytest.approx(2.0)


@pytest.mark.filterwarnings("error")
def test_overflowed_eigenvalues_fail_the_solve():
    big = pw.scale(pw.complete(3), 1e308)
    g = pw.cartesian_product(big, big)  # finite entries, eigenvalue 4e308
    with pytest.raises(NumericFailureError):
        pw.eigendecompose(g)
    with pytest.raises(NumericFailureError):
        pw.pst_certificate(g, 0, 4)


def test_spectrum_known_values():
    assert np.allclose(pw.spectrum(pw.complete(4)), [3, -1, -1, -1])
    assert np.allclose(pw.spectrum(pw.cycle(4)), [2, 0, 0, -2])
    assert np.allclose(pw.spectrum(pw.hypercube(3)), [3, 1, 1, 1, -1, -1, -1, -3])
    assert np.allclose(
        pw.spectrum(pw.path_graph([1.0, 1.0])), [math.sqrt(2), 0, -math.sqrt(2)]
    )


def test_evolve_matches_expm(corpus, oracle_amp):
    for g in corpus[:25]:
        d = pw.eigendecompose(g)
        for t in (0.3, 1.7):
            state = pw.evolve(d, t, 0)
            expected = np.array([oracle_amp(g, 0, b, t) for b in range(g.n)])
            assert np.abs(state - expected).max() < 1e-9


def test_propagator_is_unitary(corpus):
    for g in corpus[:20]:
        u = pw.propagator(pw.eigendecompose(g), 0.9)
        assert np.abs(u @ u.conj().T - np.eye(g.n)).max() < 1e-9


def test_fidelity_matches_expm_oracle(oracle_amp):
    g = pw.hypercube(3)
    d = pw.eigendecompose(g)
    for t in np.linspace(0.0, 2 * math.pi, 17):
        assert abs(pw.fidelity(d, 0, 7, t) - oracle_amp(g, 0, 7, t)) < 1e-10


def test_fidelity_accepts_time_arrays():
    d = pw.eigendecompose(pw.cycle(4))
    ts = np.linspace(0.0, math.pi, 11)
    vec = pw.fidelity(d, 0, 2, ts)
    assert vec.shape == ts.shape
    for i, t in enumerate(ts):
        assert abs(vec[i] - pw.fidelity(d, 0, 2, float(t))) < 1e-12


@pytest.mark.parametrize("v", [-1, 3, 0.9, "1"])
def test_decomposition_functions_check_vertices(v):
    # as Graph.check_vertex does: -1 is not read as vertex 2 of P3, 3
    # raises no bare IndexError, and 0.9 and "1" are not read as 0 and 1
    g = pw.path_graph([1.0, 1.0])
    d = pw.eigendecompose(g)
    with pytest.raises(InvalidArgumentError) as want:
        g.check_vertex(v)
    message = f"^{re.escape(str(want.value))}$"
    for call in (lambda: pw.fidelity(d, v, 0, 1.0), lambda: pw.fidelity(d, 0, v, 1.0),
                 lambda: pw.evolve(d, 1.0, v), lambda: pw.pair_spectrum(d, v, 0),
                 lambda: pw.pair_spectrum(d, 0, v)):
        with pytest.raises(InvalidArgumentError, match=message):
            call()


def test_decomposition_vertices_are_its_rows():
    # the lifted quotient pairs of Q8's antipodes: 9 eigenpairs over 256 vertices
    walk = partitions._pair(pw.hypercube(8), 0, 255)
    assert walk.n == 9
    assert pw.evolve(walk, 1.0, 255).shape == (256,)
    assert abs(pw.fidelity(walk, 0, 255, math.pi / 2.0)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidArgumentError, match=r"^vertex 256 out of range \[0, 256\)$"):
        pw.fidelity(walk, 0, 256, 1.0)


def test_c4_antipodal_closed_form():
    # amplitude between opposite corners of the 4-cycle is (cos 2t - 1)/2
    d = pw.eigendecompose(pw.cycle(4))
    ts = np.linspace(0.0, 2 * math.pi, 101)
    amp = pw.fidelity(d, 0, 2, ts)
    assert np.abs(amp - (np.cos(2 * ts) - 1) / 2).max() < 1e-12


def test_unitarity(corpus):
    for g in corpus:
        d = pw.eigendecompose(g)
        total = sum(abs(pw.fidelity(d, 0, b, 1.234)) ** 2 for b in range(g.n))
        assert abs(total - 1.0) < 1e-9


def test_transfer_is_symmetric(corpus):
    for g in corpus[:30]:
        d = pw.eigendecompose(g)
        assert pw.fidelity(d, 0, g.n - 1, 0.77) == pw.fidelity(d, g.n - 1, 0, 0.77)


def test_group_property(corpus):
    for g in corpus[:15]:
        d = pw.eigendecompose(g)
        t1, t2 = 0.6, 1.1
        u = pw.propagator(d, t1 + t2)
        composed = pw.propagator(d, t2) @ pw.propagator(d, t1)
        assert np.abs(u - composed).max() < 1e-9


def test_spectral_mapping_under_scaling(corpus):
    c = 1.75
    for g in corpus[:15]:
        scaled = pw.scale(g, c)
        assert np.abs(pw.spectrum(scaled) - c * pw.spectrum(g)).max() < 1e-9
        d, ds = pw.eigendecompose(g), pw.eigendecompose(scaled)
        t = 0.83
        assert abs(abs(pw.fidelity(ds, 0, g.n - 1, t)) - abs(pw.fidelity(d, 0, g.n - 1, c * t))) < 1e-9


def test_spectral_projectors_group_degeneracies():
    g = pw.hypercube(3)
    projs = pw.spectral_projectors(pw.eigendecompose(g))
    assert len(projs) == 4
    assert np.allclose(projs.values, [3, 1, -1, -3])
    total = sum(projs.projectors)
    assert np.abs(total - np.eye(8)).max() < 1e-9
    for e, lam in zip(projs.projectors, projs.values):
        assert np.abs(e @ e - e).max() < 1e-8  # idempotent
        assert np.abs(g.adj @ e - lam * e).max() < 1e-7


def test_projectors_resolve_adjacency(corpus):
    for g in corpus[:20]:
        projs = pw.spectral_projectors(pw.eigendecompose(g))
        rebuilt = sum(lam * e for lam, e in zip(projs.values, projs.projectors))
        assert np.abs(rebuilt - g.adj).max() < 1e-6 * max(1.0, np.abs(g.adj).max())


def test_ambiguous_degeneracy_is_detected():
    # a chain of loop weights spaced just under the grouping tolerance but
    # spanning far more than it cannot be clustered defensibly
    tol = 1e-6
    diag = np.diag(np.arange(30) * 0.9 * tol)
    g = pw.Graph(diag)
    with pytest.raises(AmbiguousDegeneracyError):
        pw.spectral_projectors(pw.eigendecompose(g), group_tol=tol)


def test_is_integral():
    assert pw.is_integral(pw.complete(5))
    assert pw.is_integral(pw.hypercube(4))
    assert pw.is_integral(pw.cycle(6))
    assert not pw.is_integral(pw.cycle(5))
    assert not pw.is_integral(pw.path_graph([1.0, 1.0]))


def test_perron_vector_on_regular_graph():
    lam, x = pw.perron_vector(pw.cycle(5))
    assert abs(lam - 2.0) < 1e-10
    assert np.allclose(x, np.full(5, 1 / math.sqrt(5)))
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12


def test_perron_vector_positive_on_path():
    lam, x = pw.perron_vector(pw.path_graph([1.0, 1.0]))
    assert abs(lam - math.sqrt(2)) < 1e-10
    assert np.all(x > 0)


def test_perron_vector_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        pw.perron_vector(pw.empty_graph(3))


def test_perron_vector_rejects_negative_weights():
    g = pw.scale(pw.complete(3), -1.0)
    with pytest.raises(InvalidArgumentError):
        pw.perron_vector(g)


def test_perron_vector_rejects_degenerate_top():
    # two disjoint equal components share the top eigenvalue; connectivity
    # fails first, so build a connected graph with a tied top eigenvalue:
    # none exists for nonnegative connected matrices (Perron-Frobenius), so
    # check the error path via a barely-connected near-tie is not possible;
    # instead assert the guard exists for the documented disconnected case.
    with pytest.raises((NotConnectedError, DegenerateEigenvalueError)):
        pw.perron_vector(pw.Graph(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# the amplitude kernel: rotation-stepped even grids against direct exponentials
# ---------------------------------------------------------------------------

B = _STEP_BLOCK
EPS = np.finfo(float).eps
ROTATION_C = 8.0  # the docstring's small constant c (about 1.1 is seen)


def _direct(weight, theta, times):
    """One exponential per term and time, in chunks of 1 << 15 terms."""
    chunk = max(1, (1 << 15) // len(theta))
    return np.concatenate([
        weight @ np.exp(-1j * np.outer(theta, times[s : s + chunk]))
        for s in range(0, len(times), chunk)
    ])


def _bound(weight, theta, times):
    t_max = float(np.max(np.abs(times)))
    return ROTATION_C * EPS * np.sum(np.abs(weight)) * (1.0 + np.max(np.abs(theta)) * t_max)


def _random_terms(rng, times, phase_span):
    """Random weights and eigenvalues with max|theta| * max|t| = phase_span."""
    k = int(rng.integers(1, 160))
    theta = rng.uniform(-1.0, 1.0, size=k)
    theta *= phase_span / (np.max(np.abs(theta)) * np.max(np.abs(times)))
    return rng.normal(size=k) * rng.uniform(0.1, 3.0), theta


def _count_exp_terms(monkeypatch):
    terms = []
    exp = np.exp

    def counting(x, *args, **kwargs):
        terms.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    return terms


@pytest.mark.parametrize("steps", [2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 17, 1000, 4001])
@pytest.mark.parametrize("t0", [0.0, 13.7])
def test_amplitudes_match_direct_exp(steps, t0):
    rng = np.random.default_rng(steps)
    times = np.linspace(t0, t0 + 25.0, steps)
    for phase_span in (1.0, 1e2, 1e4):
        weight, theta = _random_terms(rng, times, phase_span)
        ref = _direct(weight, theta, times)
        bound = _bound(weight, theta, times)
        assert np.max(np.abs(_amplitudes(weight, theta, times) - ref)) <= bound
        absolute = np.abs(_amplitudes(weight, theta, times))
        assert absolute.dtype == float
        assert np.max(np.abs(absolute - np.abs(ref))) <= bound


def test_amplitudes_match_direct_exp_on_table_grid():
    rng = np.random.default_rng(200001)
    times = np.linspace(0.0, 200.0, 200001)
    weight, theta = _random_terms(rng, times, 1e4)
    ref = _direct(weight, theta, times)
    assert np.max(np.abs(_amplitudes(weight, theta, times) - ref)) <= _bound(weight, theta, times)


@pytest.mark.parametrize("k, steps, t0, t_span", [
    (256, 20001, 0.0, 2 * math.pi),  # the largest ladder-random pair: two chunks
    (64, 100001, 13.7, 200.0),  # four SCAN_TERMS chunks, five of start phases
])
def test_amplitudes_match_direct_exp_at_benchmark_shapes(k, steps, t0, t_span):
    rng = np.random.default_rng(k)
    times = np.linspace(t0, t0 + t_span, steps)
    weight, theta = rng.normal(size=k) / k, rng.uniform(-80.0, 80.0, size=k)
    ref = _direct(weight, theta, times)
    bound = _bound(weight, theta, times)
    assert np.max(np.abs(_amplitudes(weight, theta, times) - ref)) <= bound
    assert np.max(np.abs(np.abs(_amplitudes(weight, theta, times)) - np.abs(ref))) <= bound


@pytest.mark.parametrize("times", [
    1e308, [0.0, 1.7e308], np.linspace(0.0, 1e308, 2 * B), [0.0, math.nan],
    # an even grid's max|t| is read at its ends, the direct path's at every t
    np.linspace(1e308, 0.0, 2 * B),
    np.concatenate([np.linspace(0.0, 1.0, B), [1e308], np.linspace(1.0, 2.0, B)]),
    np.concatenate([np.linspace(0.0, 1.0, B), [math.nan], np.linspace(1.0, 2.0, B)]),
])
def test_amplitudes_refuse_phases_beyond_the_float_range(times, recwarn):
    with pytest.raises(NumericFailureError, match="float range"):
        _amplitudes(np.ones(3), np.array([3.0, 1.0, -3.0]), times)
    with pytest.raises(NumericFailureError, match="float range"):
        pw.fidelity(pw.eigendecompose(pw.hypercube(3)), 0, 7, times)
    assert not recwarn.list


def test_even_grid_up_to_the_float_range_is_answered(recwarn):
    # theta t stays finite at both ends, so no phase leaves the float range
    # (the values themselves carry rounding of order max|theta| max|t| eps)
    got = _amplitudes(np.array([0.5, 0.5]), np.array([1.0, -1.0]), np.linspace(0.0, 1e308, 2 * B))
    assert got.shape == (2 * B,) and np.all(np.abs(got) <= 1.0 + 1e-12)
    assert not recwarn.list


def test_amplitudes_keep_shape_and_scalars():
    weight, theta = np.array([0.5, -0.25, 0.25]), np.array([2.0, 0.0, -1.5])
    grid = np.linspace(0.0, 3.0, 4 * B).reshape(4, B)
    assert _amplitudes(weight, theta, grid).shape == (4, B)
    scalar = _amplitudes(weight, theta, 0.7)
    assert isinstance(scalar, complex)
    assert scalar == pytest.approx(complex(weight @ np.exp(-0.7j * theta)), abs=1e-15)


def test_even_grid_is_rotated_and_uneven_grid_is_direct(monkeypatch):
    rng = np.random.default_rng(3)
    steps, k = 4001, 30
    times = np.linspace(0.0, 40.0, steps)
    weight, theta = rng.normal(size=k), rng.uniform(-3.0, 3.0, size=k)
    uneven = times.copy()
    uneven[1234] += 1e-6  # far beyond the 4 ulp that still count as even
    terms = _count_exp_terms(monkeypatch)
    _amplitudes(weight, theta, times)
    # a table of q phases takes r + ceil(q / r) exponentials per eigenvalue,
    # r = ceil(sqrt q): 12 + 11 for the B inner phases, 6 + 6 for the 32
    # block starts, where one per phase took B + 32
    assert sum(terms) == k * (12 + 11 + 6 + 6)
    terms.clear()
    amp = _amplitudes(weight, theta, uneven)
    assert sum(terms) >= k * steps
    ref = _direct(weight, theta, uneven)
    assert np.max(np.abs(amp - ref)) <= _bound(weight, theta, uneven)
    terms.clear()
    _amplitudes(weight, theta, times[: 2 * B - 1])  # too short to rotate
    assert sum(terms) >= k * (2 * B - 1)
    terms.clear()
    _amplitudes(weight[:3], theta[:3], times)
    # 3 B and 3 x 32 phases, below _DIRECT_TERMS: one exponential each
    assert sum(terms) == 3 * (B + 32)


def test_scalar_and_array_fidelity_agree(corpus):
    times = np.linspace(0.0, 20.0, 3 * B + 5)
    for g in corpus:
        d = pw.eigendecompose(g)
        b = g.n - 1
        vec = pw.fidelity(d, 0, b, times)
        ref = np.array([pw.fidelity(d, 0, b, float(t)) for t in times])
        assert np.max(np.abs(vec - ref)) <= _bound(d.vectors[b] * d.vectors[0], d.values, times)


def _reference_scan(g, a, b, t_max, steps, iters=60):
    """max_fidelity_scan with its sums taken by _direct: the grid over the
    pair's support, then every eigenvalue near the top, whose earliest
    peak to rounding Newton refines from its highest grid point."""
    dec = pw.eigendecompose(g)
    times = np.linspace(0.0, t_max, steps)
    ps = pw.pair_spectrum(dec, a, b)
    coarse = np.abs(_direct(ps.weight, np.asarray(ps.theta), times))
    slack = 10.0 * pw.default_group_tol(dec) * (t_max + 1.0)
    on = np.flatnonzero(coarse >= np.max(coarse) - slack)
    near = times[on]
    w = dec.vectors[b, :] * dec.vectors[a, :]
    exact = np.abs(_direct(w, dec.values, near))
    err = 8.0 * EPS * np.sum(np.abs(w)) * (1.0 + np.max(np.abs(dec.values)) * t_max)
    top = [i for i in range(len(near)) if exact[i] >= np.max(exact) - err]
    peak = [i for j, i in enumerate(top) if on[i] - on[top[0]] == j]  # the earliest run of neighbours
    k = max(peak, key=lambda i: exact[i])
    best_t, best_f = float(near[k]), float(exact[k])
    h = times[1] - times[0]
    rows = np.stack((w, -1j * dec.values * w, -dec.values * dec.values * w))  # F, F' and F'' by _direct
    t_ref = newton_max(lambda t: _direct(rows, dec.values, np.array([t]))[:, 0], err,
                       best_t, max(0.0, best_t - h), min(t_max, best_t + h), iters)
    f_ref = abs(_direct(w, dec.values, np.array([t_ref]))[0])
    return (float(t_ref), float(f_ref)) if f_ref > best_f else (best_t, best_f)


@pytest.mark.parametrize("t_max, steps", [(2 * math.pi, 4001), (50.0, 20001)])
def test_scan_is_identical_to_direct_exp_reference(corpus, t_max, steps):
    for g in corpus:
        for a, b in sorted({(0, g.n - 1), (0, g.n // 2)} - {(0, 0)}):
            try:
                want = _reference_scan(g, a, b, t_max, steps)
            except AmbiguousDegeneracyError:
                with pytest.raises(AmbiguousDegeneracyError):
                    pw.max_fidelity_scan(g, a, b, t_max, steps)
                continue
            assert pw.max_fidelity_scan(g, a, b, t_max, steps) == want


def test_amplitudes_memory_is_within_twice_the_output():
    rng = np.random.default_rng(17)
    k = 256  # the largest random graph of the benchmark ladder
    weight, theta = rng.normal(size=k), rng.normal(size=k)
    times = np.linspace(0.0, 200.0, 200001)
    _amplitudes(weight, theta, times[:1000])
    tracemalloc.start()
    try:
        out = _amplitudes(weight, theta, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes


# ---------------------------------------------------------------------------
# the scan's coarse pass: samples, the curvature bound, the summed intervals
# ---------------------------------------------------------------------------

def _scan_terms(g, a, b, t_max, steps):
    """The supported weights and eigenvalues, the grid, slack and err of
    max_fidelity_scan on the pair (a, b) of g."""
    ps, group_tol = partitions._spectrum(g, a, b)
    dec = partitions._pair(g, a, b)
    err = 8.0 * EPS * np.sum(np.abs(dec.vectors[b] * dec.vectors[a])) * (1.0 + np.max(np.abs(dec.values)) * t_max)
    slack = 10.0 * group_tol * (t_max + 1.0)
    return ps.weight, ps.theta, np.linspace(0.0, t_max, steps), slack, err


def _assert_near_top_as_the_full_grid(weight, theta, times, slack, err):
    """_near_top picks every grid point that |F| on the full grid puts at or
    above its maximum less slack, and no other, except within 1e-12 of that
    line, where rounding may decide."""
    full = np.abs(_amplitudes(weight, theta, times))
    line = np.max(full) - slack
    got = spectral._near_top(weight, theta, times, slack, err)
    assert np.all(np.diff(got) > 0)
    picked = np.zeros(times.size, dtype=bool)
    picked[got] = True
    clear = np.abs(full - line) > 1e-12
    assert np.array_equal(picked[clear], (full >= line)[clear])


@pytest.mark.parametrize("t_max, steps", [(2 * math.pi, 4001), (50.0, 20001), (7.0, 2), (7.0, 18), (7.0, 33)])
def test_near_top_classifies_every_corpus_pair_as_the_full_grid(corpus, t_max, steps):
    for g in corpus:
        for a, b in sorted({(0, g.n - 1), (0, g.n // 2)}):
            try:
                terms = _scan_terms(g, a, b, t_max, steps)
            except AmbiguousDegeneracyError:
                continue
            _assert_near_top_as_the_full_grid(*terms)


def test_near_top_classifies_the_ladders_as_the_full_grid(ladder):
    for name, g, a, b in ladder:
        for t_max, steps in ((2 * math.pi, 20001), (200.0, 200001)) if g.n <= 32 else ((2 * math.pi, 20001),):
            _assert_near_top_as_the_full_grid(*_scan_terms(g, a, b, t_max, steps))


@pytest.mark.parametrize("weight, theta", [
    ([0.5, -0.3, 1e-6], [1.0, -2.0, 1e3]),  # an outlier eigenvalue of tiny weight
    ([0.7], [2.3]),  # all weight on one eigenvalue: |F| is flat
    ([0.0, 0.0], [1.0, -1.0]),  # F = 0
], ids=["outlier", "flat", "zero"])
@pytest.mark.parametrize("t_max, steps", [(2 * math.pi, 20001), (200.0, 200001), (7.0, 1000)])
def test_near_top_classifies_adversarial_sums_as_the_full_grid(weight, theta, t_max, steps):
    weight, theta = np.array(weight), np.array(theta)
    err = 8.0 * EPS * np.sum(np.abs(weight)) * (1.0 + np.max(np.abs(theta)) * t_max)
    _assert_near_top_as_the_full_grid(weight, theta, np.linspace(0.0, t_max, steps), 1e-7 * (t_max + 1.0), err)


def test_curvature_bounds_every_point_between_two_samples():
    """|F(t)| <= sqrt(max(|F| at either end)^2 + M L^2 / 8) between two
    times L apart, M = sum |w_r w_s| (theta_r - theta_s)^2 as _curvature
    takes it; few terms, so that |d^2 |F|^2 / dt^2| comes near M at a peak."""
    rng = np.random.default_rng(23)
    fine = 16
    for _ in range(200):
        k = int(rng.integers(1, 5))
        weight, theta = rng.normal(size=k), rng.uniform(-5.0, 5.0, size=k)
        m = spectral._curvature(weight, theta)
        pairwise = np.sum(np.abs(np.outer(weight, weight)) * np.subtract.outer(theta, theta) ** 2)
        assert m == pytest.approx(pairwise, rel=1e-12, abs=1e-12 * (np.sum(np.abs(weight)) * np.max(np.abs(theta))) ** 2)
        span = float(rng.uniform(0.05, 1.0))
        times = np.linspace(0.0, 40 * span, 40 * fine + 1)
        f = np.abs(_direct(weight, theta, times)).reshape(-1)
        ends = f[::fine]
        hi = np.maximum(ends[:-1], ends[1:])
        inner = f[:-1].reshape(-1, fine)[:, 1:]
        bound = np.sqrt(hi * hi + m * span * span / 8.0) + 2.0 * _bound(weight, theta, times)
        assert np.all(inner <= bound[:, None])


def test_fully_summed_scan_memory_is_bounded():
    """F = 0 on the pair puts every grid point within slack of the top, so
    every interval is summed: _near_top holds the grid's |F| and its answer,
    and the scan stays within eight grid-sized arrays."""
    g = pw.empty_graph(2)
    times = np.linspace(0.0, 200.0, 200001)
    weight, theta = np.zeros(256), np.random.default_rng(5).normal(size=256)
    spectral._near_top(weight, theta, times[:2000], 1e-7, 0.0)
    pw.max_fidelity_scan(g, 0, 1, 200.0, 2001)
    tracemalloc.start()
    try:
        assert pw.max_fidelity_scan(g, 0, 1, 200.0, 200001) == (0.0, 0.0)
        scan = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        on = spectral._near_top(weight, theta, times, 1e-7, 0.0)
        helper = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert on.size == times.size
    assert helper <= 2.5 * times.nbytes
    assert scan <= 8 * times.nbytes


@pytest.mark.parametrize("t_max", [5e-324, 1e-320, 1e-3, 2 * math.pi, 7.3, 50.0, 200.0])
def test_scan_grid_points_are_linspace_bitwise(t_max):
    """The scan makes its grid points on demand (spectral._Grid); each is
    bitwise np.linspace(0, t_max, steps)[j], the last index included,
    whether read one at a time or as an index array, also where the step
    underflows to zero (the two subnormal windows)."""
    for steps in (2, 17, 18, 33, 4001, 20001, 200001):
        grid = transfer._window(pw.complete(2), 0, 1, t_max, steps)
        want = np.linspace(0.0, t_max, steps)
        assert grid[np.arange(steps)].tobytes() == want.tobytes()
        for j in sorted({0, 1, steps // 3, steps - 2, steps - 1}):
            assert float(grid[j]).hex() == float(want[j]).hex()


def test_sharp_scan_holds_no_grid_sized_array():
    """A 200,001-step scan of a sharp maximum sums only the intervals near
    its top: it holds the samples and those, and no array as large as one
    grid of floats (1.6 MB)."""
    g = pw.hypercube(4)
    pw.max_fidelity_scan(g, 0, 15, 200.0, 2001)
    tracemalloc.start()
    try:
        fmax = pw.max_fidelity_scan(g, 0, 15, 200.0, 200001)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fmax >= transfer.NUMERIC_PST
    assert peak < 200001 * 8
