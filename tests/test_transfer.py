import math

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import InvalidArgumentError


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
    # |F| is flat to second order at the peak, so value-based refinement
    # localizes t* only to ~sqrt(eps)
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
    t, f = pw.max_fidelity_scan(pw.cycle(6), 0, 3, 2.0 * math.pi, 20001, 60)
    assert f == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-9)
    assert t == pytest.approx(4.0 * math.pi / 3.0, abs=1e-6)


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
