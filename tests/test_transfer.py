import math

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import InvalidArgumentError, NumericFailureError, partitions, spectral, transfer


# ---------------------------------------------------------------------------
# fidelity series
# ---------------------------------------------------------------------------

def test_series_fields_and_grid():
    s = pw.fidelity_series(pw.hypercube(3), 0, 7, 2.0, 41)
    assert s.source == 0 and s.target == 7
    assert s.times.shape == (41,) and s.amplitudes.shape == (41,)
    assert s.times[0] == 0.0 and s.times[-1] == pytest.approx(2.0)
    assert np.all(np.diff(s.times) > 0)


def test_series_reads_only_the_walk():
    # loops 0.9 group_tol apart chain into one cluster too wide to group:
    # the series needs no clusters and answers as fidelity does, while
    # the scan and the certificate, which do, still raise
    adj = np.diag(1.0 + 0.9e-8 * np.arange(16))
    i = np.arange(15)
    adj[i, i + 1] = adj[i + 1, i] = 1e-12
    g = pw.Graph(adj)
    times = np.linspace(0.0, 3.0, 31)
    want = pw.fidelity(pw.eigendecompose(g), 0, 1, times)
    assert pw.fidelity_series(g, 0, 1, 3.0, 31).amplitudes.tobytes() == want.tobytes()
    with pytest.raises(pw.AmbiguousDegeneracyError):
        pw.max_fidelity_scan(g, 0, 1, 3.0, 31)
    with pytest.raises(pw.AmbiguousDegeneracyError):
        pw.pst_certificate(g, 0, 1)


def test_series_starts_at_identity():
    s = pw.fidelity_series(pw.complete(4), 2, 2, 1.0, 5)
    assert s.amplitudes[0] == pytest.approx(1.0)
    s2 = pw.fidelity_series(pw.complete(4), 0, 2, 1.0, 5)
    assert abs(s2.amplitudes[0]) < 1e-15


def test_series_matches_expm_oracle(corpus, oracle_amp):
    for g in corpus[:12]:
        if g.n > 16:
            continue
        s = pw.fidelity_series(g, 0, g.n - 1, 3.0, 7)
        for t, amp in zip(s.times, s.amplitudes):
            assert amp == pytest.approx(oracle_amp(g, 0, g.n - 1, t), abs=1e-9)


def test_series_weak_product_k2_k4_closed_form():
    g = pw.weak_product(pw.complete(2), pw.complete(4))
    s = pw.fidelity_series(g, 0, 4, 2.0 * math.pi, 1000)
    claim = np.abs(np.sin(s.times)) ** 3
    assert np.max(np.abs(np.abs(s.amplitudes) - claim)) <= 1e-9


def test_series_c4_closed_form():
    s = pw.fidelity_series(pw.cycle(4), 0, 2, 2.0 * math.pi, 1000)
    claim = np.abs((np.cos(2.0 * s.times) - 1.0) / 2.0)
    assert np.max(np.abs(np.abs(s.amplitudes) - claim)) <= 1e-9


def test_series_amplitudes_never_exceed_unit(corpus):
    for g in corpus[:30]:
        s = pw.fidelity_series(g, 0, g.n - 1, 5.0, 101)
        assert np.max(np.abs(s.amplitudes)) <= 1.0 + 1e-10


def test_series_validates_arguments():
    g = pw.cycle(4)
    with pytest.raises(InvalidArgumentError):
        pw.fidelity_series(g, 0, 2, 1.0, 1)
    with pytest.raises(InvalidArgumentError):
        pw.fidelity_series(g, 0, 2, 0.0, 10)
    with pytest.raises(InvalidArgumentError):
        pw.fidelity_series(g, 0, 4, 1.0, 10)


def test_series_csv_layout():
    s = pw.fidelity_series(pw.hypercube(2), 0, 3, 1.5, 4)
    text = s.to_csv()
    assert text.endswith("\n")
    lines = text.strip().split("\n")
    assert lines[0] == "t,re,im,abs"
    assert len(lines) == 5
    for line, t, amp in zip(lines[1:], s.times, s.amplitudes):
        ft, fre, fim, fab = (float(x) for x in line.split(","))
        # %.17g round-trips doubles exactly
        assert ft == t and fre == amp.real and fim == amp.imag
        assert fab == abs(amp)


# ---------------------------------------------------------------------------
# maximum-fidelity scan
# ---------------------------------------------------------------------------

def test_scan_hypercube_peak():
    t, f = pw.max_fidelity_scan(pw.hypercube(3), 0, 7, 2.0 * math.pi, 4096, 60)
    assert f >= 1.0 - 1e-10
    assert abs(t - math.pi / 2.0) <= 5e-9


def test_scan_complete_graph_stays_low():
    _, f = pw.max_fidelity_scan(pw.complete(3), 0, 1, 50.0, 50000, 60)
    assert f < 1.0 - 1e-3
    assert f == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_scan_glued_cone_peak():
    half = pw.circulant(15, (1, 2, 4))
    g = pw.glued_double_cone(half, half, pw.circulant(15, (1, 2, 4, 7)))
    t, f = pw.max_fidelity_scan(g, 0, g.n - 1, 2.0 * math.pi, 8192, 60)
    assert f >= 1.0 - 1e-9
    assert abs(t - math.pi / 4.0) <= 1e-7


def test_scan_c6_frozen_maximum():
    # |F| = sqrt(3)/2 at 2pi/3 and 4pi/3: the earlier one is taken
    t, f = pw.max_fidelity_scan(pw.cycle(6), 0, 3, 2.0 * math.pi, 20001, 60)
    assert f == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-9)
    assert t == pytest.approx(2.0 * math.pi / 3.0, abs=1e-6)


def test_scan_takes_the_earliest_of_equal_maxima_on_both_routes(monkeypatch):
    # Q8 97 -> 125 has equal maxima at t and 3pi - t; the quotient route and
    # the dense route round them differently, and both take t < 3pi/2
    g, steps = pw.hypercube(8), 4001
    krylov = [pw.max_fidelity_scan(g, 97, 125, 3.0 * math.pi, steps, iters) for iters in (0, 60)]
    monkeypatch.setattr(partitions, "QUOTIENT_MIN_N", g.n + 1)
    g = pw.hypercube(8)
    dense = [pw.max_fidelity_scan(g, 97, 125, 3.0 * math.pi, steps, iters) for iters in (0, 60)]
    assert krylov[0][0] == dense[0][0] == np.linspace(0.0, 3.0 * math.pi, steps)[1613]
    for (t, f), (t_dense, f_dense) in zip(krylov, dense):
        assert t == pytest.approx(t_dense, abs=1e-12) and t < 1.5 * math.pi
        assert f == pytest.approx(f_dense, abs=1e-12)


def test_scan_keeps_the_highest_point_of_a_flat_maximum():
    # |F| = 0.8 at pi for cylcone (3,2,2), flat enough that the grid points
    # pi -+ h lie within rounding of it: the grid point pi stays the answer
    g = pw.cylindrical_cone(pw.complete(3), pw.empty_graph(2), pw.complete(3))
    assert pw.max_fidelity_scan(g, 0, 9, 2.0 * math.pi, 20001) == (math.pi, pytest.approx(0.8, abs=1e-12))


def test_scan_refinement_recovers_off_grid_peak():
    g = pw.hypercube(3)
    # 101 points over [0,2] puts the nearest grid point ~9e-3 away from pi/2
    _, coarse = pw.max_fidelity_scan(g, 0, 7, 2.0, 101, 0)
    assert coarse < 1.0 - 1e-6
    _, refined = pw.max_fidelity_scan(g, 0, 7, 2.0, 101, 60)
    assert refined >= 1.0 - 1e-10


@pytest.mark.parametrize(
    "t_max,steps,grid_wins", [(2.0 * math.pi, 4001, True), (6.2832, 50001, False)]
)
def test_scan_returns_python_floats(t_max, steps, grid_wins):
    # one window where a grid point is the maximum, one where the refinement is
    t_star, fmax = pw.max_fidelity_scan(pw.hypercube(3), 0, 7, t_max, steps)
    assert type(t_star) is float and type(fmax) is float
    assert (t_star in np.linspace(0.0, t_max, steps)) == grid_wins
    assert t_star == pytest.approx(math.pi / 2.0, abs=1e-8)


def test_scan_keeps_an_exact_grid_maximum():
    # pi/2 is the 1001st point of the grid and Q7's antipodes transfer there
    times = np.linspace(0.0, 2.0 * math.pi, 4001)
    t, f = pw.max_fidelity_scan(pw.hypercube(7), 0, 127, 2.0 * math.pi, 4001)
    assert t == times[1000] == math.pi / 2.0
    assert f >= 1.0 - 1e-12


def test_scan_refines_weak_product_to_its_transfer_time():
    # the README scan: no grid point of [0, 6.2832] is pi/2
    g = pw.weak_product(pw.hypercube(2), pw.complete(4))
    t, f = pw.max_fidelity_scan(g, 0, 12, 6.2832, 50001)
    assert abs(t - math.pi / 2.0) <= 1e-12
    assert f >= 1.0 - 1e-12


def _scans(corpus, t_max=2.0 * math.pi, steps=4001):
    """(grid, refined, h) scans of the corpus pairs of the reference tests."""
    h = t_max / (steps - 1)
    for g in corpus:
        for a, b in sorted({(0, g.n - 1), (0, g.n // 2)} - {(0, 0)}):
            try:
                grid = pw.max_fidelity_scan(g, a, b, t_max, steps, 0)
            except pw.AmbiguousDegeneracyError:
                continue
            yield grid, pw.max_fidelity_scan(g, a, b, t_max, steps), h


def test_scan_without_refinement_is_the_grid_answer(corpus):
    times = np.linspace(0.0, 2.0 * math.pi, 4001)
    for (t0, f0), (t1, f1), _ in _scans(corpus[::2]):
        assert t0 in times
        # where the steps found nothing larger, the answer is the grid's
        assert (t1, f1) == (t0, f0) or f1 > f0
    for g in corpus[::2]:
        grid = np.abs(pw.fidelity_series(g, 0, g.n - 1, 2.0 * math.pi, 4001).amplitudes)
        t0, f0 = pw.max_fidelity_scan(g, 0, g.n - 1, 2.0 * math.pi, 4001, 0)
        assert f0 == pytest.approx(np.max(grid), abs=1e-12)


def test_newton_steps_stop_at_rounding(corpus):
    # a step that rounds to nothing ends the steps, and the bracket ends a
    # cycle between two neighbouring floats: eight steps give the answer
    # of sixty
    for g in corpus:
        for a, b in sorted({(0, g.n - 1), (0, g.n // 2)} - {(0, 0)}):
            try:
                full = pw.max_fidelity_scan(g, a, b, 2.0 * math.pi, 4001)
            except pw.AmbiguousDegeneracyError:
                continue
            assert pw.max_fidelity_scan(g, a, b, 2.0 * math.pi, 4001, 8) == full


def test_refined_maximum_is_never_below_the_grid_maximum(corpus):
    for (_, f0), (_, f1), _ in _scans(corpus):
        assert f1 >= f0


def test_refined_time_stays_within_one_step_of_the_grid_point(corpus):
    moved = 0
    for (t0, _), (t1, _), h in _scans(corpus):
        assert abs(t1 - t0) <= h
        moved += t1 != t0
    assert moved  # some corpus maxima lie off the grid


def test_scan_finds_a_peak_narrower_than_the_grid():
    # |F| = |sin t|^3 on Q3's antipodes is concave only within 0.42 of
    # pi/2; the best point of the grid {0, 1, 2} is t = 2, where g'' > 0
    t, f = pw.max_fidelity_scan(pw.hypercube(3), 0, 7, 2.0, 3)
    assert f >= 1.0 - 1e-10
    assert abs(t - math.pi / 2.0) <= 1e-12


@pytest.mark.parametrize("steps", [3, 5, 11])
def test_coarse_scan_ends_at_a_local_maximum(corpus, steps):
    # grid steps wider than the peaks: the answer is a maximum of |F| over
    # 1e-6 either side of it within the window
    t_max, d = 2.0 * math.pi, 1e-6
    for g in corpus:
        dec = pw.eigendecompose(g)
        for a, b in sorted({(0, g.n - 1), (0, g.n // 2)} - {(0, 0)}):
            try:
                t, f = pw.max_fidelity_scan(g, a, b, t_max, steps)
            except pw.AmbiguousDegeneracyError:
                continue
            for s in (max(0.0, t - d), min(t_max, t + d)):
                assert abs(pw.fidelity(dec, a, b, s)) <= f + 1e-12


def test_scan_validates_arguments():
    with pytest.raises(InvalidArgumentError):
        pw.max_fidelity_scan(pw.cycle(4), 0, 2, 1.0, 1)
    with pytest.raises(InvalidArgumentError):
        pw.max_fidelity_scan(pw.cycle(4), 0, 2, -1.0, 100)


def test_time_windows_must_be_finite_and_refinement_non_negative():
    g = pw.hypercube(3)
    for call in (pw.fidelity_series, pw.max_fidelity_scan):
        with pytest.raises(InvalidArgumentError, match="t_max must be finite"):
            call(g, 0, 7, math.inf, 3)
    with pytest.raises(InvalidArgumentError, match="refine_iters must be non-negative"):
        pw.max_fidelity_scan(g, 0, 7, 3.0, 30, refine_iters=-1)


def test_time_windows_whose_phases_overflow_are_refused(recwarn):
    # max|theta| t_max is past the float range, though t_max is finite
    g, grid = pw.hypercube(3), np.linspace(0.0, 1e308, 3)
    for call in (
        lambda: pw.max_fidelity_scan(g, 0, 7, 1e308, 4001),
        lambda: pw.fidelity_series(g, 0, 7, 1.7e308, 3),
        lambda: pw.collapse_fidelity_check(pw.hypercube(4), 0, 15, grid),
    ):
        with pytest.raises(NumericFailureError, match="float range"):
            call()
    assert not recwarn.list


def test_scan_reads_its_phase_reach_over_the_whole_reduced_problem(recwarn):
    # K2 beside a K3 of weight 1e300: the pair's support is +-1, but theta
    # t_max overflows on the K3's eigenvalues, which the scan also sums
    adj = np.zeros((5, 5))
    adj[0, 1] = adj[1, 0] = 1.0
    adj[2:, 2:] = 1e300 * (1.0 - np.eye(3))
    with pytest.raises(NumericFailureError, match="float range"):
        pw.max_fidelity_scan(pw.Graph(adj), 0, 1, 1e10, 1001)
    assert not recwarn.list


def test_scan_refuses_windows_its_float_times_cannot_resolve(recwarn):
    # Q3's antipodes: sum|w| = 1 and max|theta| = 3, so the scan's rounding
    # bound 8 eps (1 + 3 t_max) passes 1 - PRETTY_GOOD = 1e-3 near 1.9e11
    g = pw.hypercube(3)
    for t_max in (1e12, 1e17, 1e300):
        with pytest.raises(NumericFailureError, match="rounding bound .* exceeds 0.001"):
            pw.max_fidelity_scan(g, 0, 7, t_max, 4001)
    t, f = pw.max_fidelity_scan(g, 0, 7, 1e11, 4001)
    assert 0.0 <= t <= 1e11 and 0.0 <= f <= 1.0 + 1e-12
    assert not recwarn.list


def test_time_windows_name_a_bad_vertex_first():
    g = pw.hypercube(3)
    for call in (pw.fidelity_series, pw.max_fidelity_scan):
        for t_max, steps in ((3.0, 1), (-1.0, 30), (math.inf, 30)):
            with pytest.raises(InvalidArgumentError, match="vertex 8 out of range"):
                call(g, 0, 8, t_max, steps)


def test_fidelity_band_thresholds():
    assert pw.fidelity_band(1.0) == "numeric PST"
    assert pw.fidelity_band(1.0 - 1e-8) == "numeric PST"
    assert pw.fidelity_band(1.0 - 1e-4) == "inconclusive (possible pretty-good transfer)"
    assert pw.fidelity_band(1.0 - 1e-3) == "no numeric PST"
    assert pw.fidelity_band(0.2) == "no numeric PST"


# ---------------------------------------------------------------------------
# strong cospectrality
# ---------------------------------------------------------------------------

def test_strong_cospectrality_hypercube_alternates():
    # clusters ordered 3, 1, -1, -3; sign flips with each parity change
    assert pw.strong_cospectrality(pw.hypercube(3), 0, 7) == (0, 1, 0, 1)


def test_strong_cospectrality_complete_graph_fails():
    # the rank-2 eigenspace at -1 projects the endpoints onto
    # non-proportional vectors
    assert pw.strong_cospectrality(pw.complete(3), 0, 1) is None


def test_strong_cospectrality_c4_signs():
    assert pw.strong_cospectrality(pw.cycle(4), 0, 2) == (0, 1, 0)


def test_strong_cospectrality_path_endpoints():
    assert pw.strong_cospectrality(pw.path_graph((1.0, 1.0)), 0, 2) == (0, 1, 0)
    assert pw.strong_cospectrality(pw.path_graph((1.0,) * 3), 0, 3) == (0, 1, 0, 1)


def test_strong_cospectrality_adjacent_cycle_vertices():
    assert pw.strong_cospectrality(pw.cycle(5), 0, 1) is None


def test_strong_cospectrality_same_vertex_all_plus():
    signs = pw.strong_cospectrality(pw.hypercube(3), 2, 2)
    assert signs is not None and all(s == 0 for s in signs)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_q3_yes():
    c = pw.pst_certificate(pw.hypercube(3), 0, 7)
    assert c.verdict == "yes"
    assert c.time_num == pytest.approx(math.pi / 2.0)
    assert c.time_exact == (1, 2, 1.0)
    assert c.support == (0, 1, 2, 3)
    assert c.signs == (0, 1, 0, 1)
    assert "integer differences" in c.reason


def test_certificate_q4_yes():
    c = pw.pst_certificate(pw.hypercube(4), 0, 15)
    assert c.verdict == "yes"
    assert c.time_num == pytest.approx(math.pi / 2.0)
    assert c.time_exact == (1, 2, 1.0)


def test_certificate_p3_scaled_integer_spectrum():
    c = pw.pst_certificate(pw.path_graph((1.0, 1.0)), 0, 2)
    assert c.verdict == "yes"
    assert c.time_num == pytest.approx(math.pi / math.sqrt(2.0))
    a, b, scale = c.time_exact
    assert (a, b) == (1, 1)
    assert scale == pytest.approx(1.0 / math.sqrt(2.0))


def test_certificate_c4_antipodes_yes():
    c = pw.pst_certificate(pw.cycle(4), 0, 2)
    assert c.verdict == "yes"
    assert c.time_exact == (1, 2, 1.0)


@pytest.mark.parametrize("g", [pw.empty_graph(2), pw.complete(1)], ids=["Kbar2", "K1"])
def test_certificate_vertex_on_one_cluster_is_periodic(g):
    # one supported cluster with signs forces e_a = +-e_b, so only a == b
    # gets there, and |F| = 1 at every t: the pipeline answers yes at pi
    c = pw.pst_certificate(g, 0, 0)
    assert c.verdict == "yes" and c.time_exact == (1, 1, 1.0) and c.time_num == math.pi
    assert c.support == (0,) and c.signs == (0,)
    q3 = pw.pst_certificate(pw.hypercube(3), 0, 0)  # several clusters, as before
    assert (q3.verdict, q3.time_exact, q3.support, q3.signs) == ("yes", (1, 1, 1.0), (0, 1, 2, 3), (0,) * 4)
    assert "minimal alignment tau = 2" in q3.reason


def test_certificate_complete_graph_not_cospectral():
    c = pw.pst_certificate(pw.complete(3), 0, 1)
    assert c.verdict == "no"
    assert "not strongly cospectral" in c.reason
    assert c.support == () and c.signs == ()
    assert c.time_num is None and c.time_exact is None


def test_certificate_c6_parity_obstruction():
    c = pw.pst_certificate(pw.cycle(6), 0, 3)
    assert c.verdict == "no"
    assert "phase alignment infeasible" in c.reason
    assert "[-1, -3, -4]" in c.reason
    assert "cannot realize the sign pattern" in c.reason


def test_certificate_takes_the_gcd_scale_where_the_smallest_gap_fails():
    # support {5, 2, 0}: the reflection 0 <-> 2 leaves 5 on (1, 0, -1) and
    # [[1, 1], [1, 1]] (2 and 0) on its complement. The smallest gap, 2,
    # reduces the differences -3 and -5 to halves; their gcd, 1, to integers
    r = 1.0 / math.sqrt(2.0)
    g = pw.Graph([[3.0, r, -2.0], [r, 1.0, r], [-2.0, r, 3.0]])
    c = pw.pst_certificate(g, 0, 2)
    assert c.verdict == "yes"
    assert c.time_exact == (1, 1, 1.0) and c.time_num == pytest.approx(math.pi)
    assert c.support == (0, 1, 2) and c.signs == (1, 0, 0)
    assert "integer differences [-3, -5] at scale 1;" in c.reason


def test_certificate_unweighted_double_cone_unknown():
    # apex pair of the join of two isolated vertices with a triangle:
    # supported eigenvalues 0 and 1 +- sqrt7 share no common scale
    g = pw.join(pw.empty_graph(2), pw.complete(3))
    c = pw.pst_certificate(g, 0, 1)
    assert c.verdict == "unknown"
    assert "do not reduce to a common scale" in c.reason
    _, fmax = pw.max_fidelity_scan(g, 0, 1, 50.0, 50001, 60)
    assert fmax < 1.0 - 1e-4
    assert fmax == pytest.approx(0.999710669, abs=1e-6)


def test_certificate_unweighted_p4_unknown():
    c = pw.pst_certificate(pw.path_graph((1.0,) * 3), 0, 3)
    assert c.verdict == "unknown"


def test_certificate_yes_is_numerically_sound(corpus, oracle_amp):
    yes_seen = 0
    for g in corpus:
        if g.n > 16:
            continue
        c = pw.pst_certificate(g, 0, g.n - 1)
        if c.verdict == "yes":
            yes_seen += 1
            assert abs(oracle_amp(g, 0, g.n - 1, c.time_num)) >= 1.0 - 1e-8
    assert yes_seen >= 3


def test_certificate_parity_no_bounded_over_full_period(corpus):
    # integer spectra make the walk 2*pi-periodic, so one period of scanning
    # is a complete check of the "no" verdict
    checked = 0
    for g in corpus:
        if g.n > 12 or not pw.is_integral(g):
            continue
        c = pw.pst_certificate(g, 0, g.n - 1)
        if c.verdict == "no" and "phase alignment infeasible" in c.reason:
            checked += 1
            _, fmax = pw.max_fidelity_scan(g, 0, g.n - 1, 2.0 * math.pi, 20001, 60)
            assert fmax < 1.0 - 1e-4
    assert checked >= 1


# ---------------------------------------------------------------------------
# condition-report ratios agree with exact classification
# ---------------------------------------------------------------------------

def test_condition_ratios_reconstruct_and_classify_consistently():
    reports = [
        pw.double_cone_pst_condition(2.0 * math.sqrt(2.0), 0, math.sqrt(3.0)),
        pw.double_cone_pst_condition(2.0, 1, math.sqrt(15.0 / 8.0)),
    ]
    for rep in reports:
        assert rep.holds
        p, q = rep.witness["ratio"]
        rec = pw.rational_reconstruct(rep.witness["ratio_float"])
        assert rec == (p, q)
        assert pw.classify_rational(p, q) == rep.witness["class"]
    # anchor values
    assert reports[0].witness["ratio"] == [1, 2]
    assert reports[0].witness["class"] == "Q10"
    assert reports[1].witness["ratio"] == [5, 4]


def test_glued_condition_ratios_classify_consistently():
    rep = pw.glued_cone_pst_condition(15, 6, 8)
    assert rep.holds
    dr = rep.witness["delta_ratio"]
    assert pw.classify_rational(dr.numerator, dr.denominator) == "Q01"
    # the float path lands on the same reduced fraction
    assert pw.rational_reconstruct(8.0 / 4.0) == (2, 1)


# ---------------------------------------------------------------------------
# bundled results table
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table():
    return pw.pst_table()


def test_table_shape_and_verdicts(table):
    assert len(table) == 8
    assert [r.expected for r in table] == [
        "yes", "no", "yes", "no", "no", "yes", "yes", "yes",
    ]
    for row in table:
        assert row.matches
        assert row.observed == row.expected


def test_table_row_names_are_distinct(table):
    names = [r.name for r in table]
    assert len(set(names)) == 8


def test_table_notes_and_times(table):
    # weighted double cone: condition-based yes with confirmed fidelity
    assert "condition holds" in table[0].note
    assert table[0].time_num == pytest.approx(math.pi / math.sqrt(2.0))
    # P5: exact certificate cannot decide, scan stays in the pretty-good band
    assert "certificate unknown" in table[1].note
    assert "inconclusive" in table[1].note
    assert table[1].time_num is None
    # glued cones transfer at pi/4
    assert table[2].time_num == pytest.approx(math.pi / 4.0)
    # cylindrical instance: parity proof plus corroborating scan
    assert "parity contradiction recorded" in table[4].note
    assert "0.800000" in table[4].note
    # hypercube Q4 certificate
    assert "certificate yes" in table[5].note
    assert table[5].time_num == pytest.approx(math.pi / 2.0)


@pytest.mark.parametrize("g, a, b", [
    (pw.empty_graph(4), 0, 3),
    (pw.Graph(np.kron(np.eye(2), pw.complete(2).adj)), 0, 2),  # two K2s
    (pw.Graph(np.kron(np.eye(3), pw.cycle(4).adj)), 1, 6),  # three C4s
])
def test_scan_takes_no_steps_where_the_amplitude_is_zero(g, a, b, monkeypatch):
    # |F| = 0 at every t between components: the steps would bisect their
    # bracket down to one float and find nothing, so none are taken, and
    # the exact amplitude is evaluated on the grid only
    grid = pw.max_fidelity_scan(g, a, b, 2.0 * math.pi, 401, 0)
    calls = []
    fidelity = transfer.fidelity

    def counting(dec, a, b, t):
        calls.append(t)
        return fidelity(dec, a, b, t)

    monkeypatch.setattr(transfer, "fidelity", counting)
    assert pw.max_fidelity_scan(g, a, b, 2.0 * math.pi, 401, 60) == grid
    assert len(calls) == 1
