import math
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
from pstwalk import spectral
from pstwalk.spectral import _STEP_BLOCK, _amplitudes, _decomposition
from pstwalk.transfer import _golden_max


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
        assert g._spectrum is None
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
        absolute = _amplitudes(weight, theta, times, absolute=True)
        assert absolute.dtype == float
        assert np.max(np.abs(absolute - np.abs(ref))) <= bound


def test_amplitudes_match_direct_exp_on_table_grid():
    rng = np.random.default_rng(200001)
    times = np.linspace(0.0, 200.0, 200001)
    weight, theta = _random_terms(rng, times, 1e4)
    ref = _direct(weight, theta, times)
    assert np.max(np.abs(_amplitudes(weight, theta, times) - ref)) <= _bound(weight, theta, times)


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
    assert sum(terms) == k * (B + -(-steps // B))
    terms.clear()
    amp = _amplitudes(weight, theta, uneven)
    assert sum(terms) >= k * steps
    ref = _direct(weight, theta, uneven)
    assert np.max(np.abs(amp - ref)) <= _bound(weight, theta, uneven)
    terms.clear()
    _amplitudes(weight, theta, times[: 2 * B - 1])  # too short to rotate
    assert sum(terms) >= k * (2 * B - 1)


def test_scalar_and_array_fidelity_agree(corpus):
    times = np.linspace(0.0, 20.0, 3 * B + 5)
    for g in corpus:
        d = pw.eigendecompose(g)
        b = g.n - 1
        vec = pw.fidelity(d, 0, b, times)
        ref = np.array([pw.fidelity(d, 0, b, float(t)) for t in times])
        assert np.max(np.abs(vec - ref)) <= _bound(d.vectors[b] * d.vectors[0], d.values, times)


def _reference_scan(g, a, b, t_max, steps, iters=60):
    """max_fidelity_scan with its two grids summed by _direct: the pair's
    support, then every eigenvalue near the top, then golden section."""
    dec = pw.eigendecompose(g)
    times = np.linspace(0.0, t_max, steps)
    ps = pw.pair_spectrum(dec, a, b)
    coarse = np.abs(_direct(ps.weight, np.asarray(ps.theta), times))
    slack = 10.0 * pw.default_group_tol(dec) * (t_max + 1.0)
    near = times[coarse >= np.max(coarse) - slack]
    exact = np.abs(_direct(dec.vectors[b, :] * dec.vectors[a, :], dec.values, near))
    k = int(np.argmax(exact))
    best_t, best_f = float(near[k]), float(exact[k])
    h = times[1] - times[0]
    t_ref, f_ref = _golden_max(
        lambda t: abs(pw.fidelity(dec, a, b, t)), max(0.0, best_t - h), min(t_max, best_t + h), iters
    )
    return (t_ref, f_ref) if f_ref > best_f else (best_t, best_f)


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


@pytest.mark.parametrize("absolute", [False, True], ids=["complex", "absolute"])
def test_amplitudes_memory_is_within_twice_the_output(absolute):
    rng = np.random.default_rng(17)
    k = 256  # the largest random graph of the benchmark ladder
    weight, theta = rng.normal(size=k), rng.normal(size=k)
    times = np.linspace(0.0, 200.0, 200001)
    _amplitudes(weight, theta, times[:1000], absolute)
    tracemalloc.start()
    try:
        out = _amplitudes(weight, theta, times, absolute)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes
