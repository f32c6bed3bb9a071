import math
from fractions import Fraction

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import InvalidArgumentError, InvalidSizeError, NonCommutingError
from pstwalk.conditions import _multipliers
from pstwalk.cones import _double_cone_parts
from pstwalk.rationals import (
    CLASS_ODD_OVER_ODD,
    classify_rational,
    minimal_phase_alignment,
    rational_reconstruct,
    sqrt_rational,
)


# ---------------------------------------------------------------------------
# double cones
# ---------------------------------------------------------------------------

def test_double_cone_structure():
    g = pw.double_cone(pw.complete(3), 0, math.sqrt(3.0))
    assert g.n == 5
    assert g.adj[0, 1] == 0  # apexes non-adjacent for b=0
    # perron vector of K3 is uniform, so each apex-base weight is alpha/sqrt(3)
    assert np.allclose(g.adj[0, 2:], 1.0)
    assert np.allclose(g.adj[1, 2:], 1.0)
    assert g.labels is None  # unlabeled base stays unlabeled
    labeled = pw.double_cone(pw.hypercube(1), 1, 2.0)
    assert list(labeled.labels) == ["A", "B", "0", "1"]
    s0, s1 = 2.0 * pw.perron_vector(pw.hypercube(1))[1]
    expected = [[0, 1, s0, s1], [1, 0, s0, s1], [s0, s0, 0, 1], [s1, s1, 1, 0]]
    assert np.array_equal(labeled.adj, expected)


def test_double_cone_over_a_finely_scaled_base():
    # the base's Perron test is relative to its top eigenvalue, so a base
    # scaled by 1e-11 cones as the unscaled one does, spokes unchanged
    base = pw.path_graph([1.0] * 4)
    g, tiny = pw.double_cone(base, 0, 1.0), pw.double_cone(pw.scale(base, 1e-11), 0, 1.0)
    assert np.max(np.abs(tiny.adj[:2, 2:] - g.adj[:2, 2:])) <= 1e-12
    assert np.array_equal(tiny.adj[2:, 2:], 1e-11 * base.adj)


def test_double_cone_adjacent_apexes():
    g = pw.double_cone(pw.complete(3), 1, 1.0)
    assert g.adj[0, 1] == 1


@pytest.mark.parametrize("b,alpha", [(2, 1.0), (0, 0.0), (0, -1.0)])
def test_double_cone_validates_arguments(b, alpha):
    with pytest.raises(InvalidArgumentError):
        pw.double_cone(pw.complete(3), b, alpha)


@pytest.mark.parametrize(
    "base,alpha,b",
    [
        (pw.complete(3), math.sqrt(3.0), 0),
        (pw.complete(3), 1.3, 1),
        (pw.path_graph([1.0, 1.0]), 0.8, 0),
        (pw.path_graph([1.0, 1.0]), 2.0, 1),
        (pw.cycle(5), 1.0, 0),
        (pw.cycle(5), math.sqrt(2.0), 1),
        (pw.scale(pw.complete(3), math.sqrt(2.0)), math.sqrt(3.0), 0),
    ],
)
def test_double_cone_closed_form_matches_matrix(base, alpha, b, oracle_amp):
    g = pw.double_cone(base, b, alpha)
    lam0 = pw.perron_vector(base)[0]
    ts = np.linspace(0.0, 4 * math.pi, 1000)
    closed = pw.double_cone_fidelity(lam0, b, alpha, ts)
    full = np.array([oracle_amp(g, 0, 1, t) for t in ts])
    assert np.abs(closed - full).max() < 1e-9


def _assert_same_support(theta, weight, ps):
    """Closed-form (theta, weight) terms against pair_spectrum, whose
    clusters run in descending order, to 1e-9."""
    order = np.argsort(-np.asarray(theta))
    assert len(ps.theta) == len(theta)
    assert np.max(np.abs(np.asarray(ps.theta) - np.asarray(theta)[order])) <= 1e-9
    assert np.max(np.abs(ps.weight - np.asarray(weight)[order])) <= 1e-9


@pytest.mark.parametrize(
    "base, alpha, b",
    [
        (pw.complete(3), math.sqrt(3.0), 0),
        (pw.complete(3), 1.3, 1),  # -b = -1 shares a cluster with the base's -1
        (pw.path_graph([1.0, 1.0]), 2.0, 1),
        (pw.cycle(5), math.sqrt(2.0), 1),
        (pw.scale(pw.complete(3), math.sqrt(2.0)), math.sqrt(3.0), 0),
    ],
)
def test_double_cone_support_is_pair_spectrum(base, alpha, b):
    lam0 = pw.perron_vector(base)[0]
    _, _, theta, weight = _double_cone_parts(lam0, b, alpha)
    ps = pw.pair_spectrum(pw.eigendecompose(pw.double_cone(base, b, alpha)), 0, 1)
    _assert_same_support(theta, weight, ps)


def test_double_cone_condition_flat_triangle():
    # base sqrt2*K3 has top eigenvalue 2*sqrt2; with alpha=sqrt3 the phase
    # ratio is exactly 1/2 and transfer lands at pi/sqrt2
    lam0 = 2.0 * math.sqrt(2.0)
    rep = pw.double_cone_pst_condition(lam0, 0, math.sqrt(3.0))
    assert rep.holds, rep.detail
    assert rep.witness["ratio"] == [1, 2]
    assert rep.witness["class"] == "Q10"
    assert abs(rep.witness["time"] - math.pi / math.sqrt(2.0)) < 1e-12


def test_double_cone_condition_confirms_numerically(oracle_amp):
    base = pw.scale(pw.complete(3), math.sqrt(2.0))
    g = pw.double_cone(base, 0, math.sqrt(3.0))
    rep = pw.double_cone_pst_condition(2.0 * math.sqrt(2.0), 0, math.sqrt(3.0))
    assert abs(oracle_amp(g, 0, 1, rep.witness["time"])) >= 1 - 1e-9


def test_double_cone_condition_odd_odd_ratio_fails():
    # K3 base with alpha=2: ratio 1/3 lies in the odd/odd class -> no transfer
    rep = pw.double_cone_pst_condition(2.0, 0, 2.0)
    assert not rep.holds
    assert rep.witness["ratio"] == [1, 3]
    assert rep.witness["class"] == "Q11"


def test_double_cone_condition_irrational_ratio():
    rep = pw.double_cone_pst_condition(2.0, 0, 1.0)
    assert not rep.holds
    assert "irrational" in rep.detail


def test_double_cone_condition_adjacent_apex_instance(oracle_amp):
    # lam0 = 2 (K3), b = 1, alpha = sqrt(15/8): ratio (3/2 + 1)/2 = 5/4
    alpha = math.sqrt(15.0 / 8.0)
    rep = pw.double_cone_pst_condition(2.0, 1, alpha)
    assert rep.holds, rep.detail
    assert rep.witness["ratio"] == [5, 4]
    g = pw.double_cone(pw.complete(3), 1, alpha)
    assert abs(oracle_amp(g, 0, 1, rep.witness["time"])) >= 1 - 1e-9


# ---------------------------------------------------------------------------
# glued double cones
# ---------------------------------------------------------------------------

def _glued_instance(n, k, gamma, jumps, conn_jumps):
    g = pw.circulant(n, jumps)
    assert pw.regular_degree(g) == k
    conn = pw.circulant(n, conn_jumps).adj + (np.eye(n) if False else 0.0)
    return g, conn


def test_glued_cone_structure():
    g1 = pw.circulant(15, [1, 2, 4])
    conn = pw.circulant(15, [1, 2, 4, 7]).adj
    g = pw.glued_double_cone(g1, g1, conn)
    assert g.n == 32
    assert pw.glued_cone_apexes(g) == (0, 31)
    # apex 0 joins the first copy only, apex 31 the second copy only
    assert np.all(g.adj[0, 1:16] == 1) and np.all(g.adj[0, 16:] == 0)
    assert np.all(g.adj[31, 16:31] == 1) and np.all(g.adj[31, :16] == 0)
    # connection block sits between the copies
    assert np.array_equal(g.adj[1:16, 16:31], conn)


def test_glued_cone_validates_connection():
    g1 = pw.cycle(4)
    with pytest.raises(InvalidArgumentError):
        pw.glued_double_cone(g1, g1, np.ones((4, 4)) * 0.5)  # not 0/1
    uneven = np.zeros((4, 4))
    uneven[0, :] = 1.0
    uneven = np.maximum(uneven, uneven.T)
    with pytest.raises(InvalidArgumentError):
        pw.glued_double_cone(g1, g1, uneven)  # row sums differ
    with pytest.raises(InvalidSizeError):
        pw.glued_double_cone(g1, pw.cycle(5), np.eye(4))


def test_glued_cone_rejects_noncommuting_connection():
    g1 = pw.cycle(4)
    swap = np.eye(4)[[1, 0, 2, 3]]
    with pytest.raises(NonCommutingError):
        pw.glued_double_cone(g1, g1, swap)


def _weighted_circulant(n, weights, jumps):
    return pw.Graph(sum(w * pw.circulant(n, [j]).adj for w, j in zip(weights, jumps)))


@pytest.mark.parametrize("s", [1e6, 1e8])
def test_glued_cone_takes_commuting_layers_at_any_weight_scale(s):
    # circulants commute exactly; CA - AC reads rounding that grows with the
    # weights (1.9e-9 at 1e6), which a scale-relative rule forgives
    g = _weighted_circulant(7, (math.sqrt(2.0) * s, math.pi * s, math.e * s), (1, 2, 3))
    conn = pw.circulant(7, [1, 3])
    cone = pw.glued_double_cone(g, g, conn)
    assert np.array_equal(cone.adj[1:8, 1:8], g.adj) and np.array_equal(cone.adj[1:8, 8:15], conn.adj)


def test_glued_cone_takes_layers_whose_degrees_differ_by_rounding():
    # both layers have degree 2e5; their row sums differ by 2.9e-11
    weights = (1e5 / 3, 1e5 / 7, 11e5 / 21)
    g1, g2 = _weighted_circulant(9, weights, (1, 2, 3)), _weighted_circulant(9, weights, (3, 2, 1))
    assert pw.regular_degree(g1) != pw.regular_degree(g2)
    cone = pw.glued_double_cone(g1, g2, pw.circulant(9, [1, 2, 3]))
    assert np.array_equal(cone.adj[10:19, 10:19], g2.adj)


def test_glued_cone_reads_the_connection_as_a_graph():
    g1 = pw.cycle(4)
    for conn in (np.ones((3, 4)), np.eye(5), pw.complete(5)):
        with pytest.raises(InvalidSizeError):
            pw.glued_double_cone(g1, g1, conn)
    asym = np.eye(4)
    asym[0, 1] = 1.0
    for conn, message in ((np.full((4, 4), np.nan), "finite"), (asym, "symmetric")):
        with pytest.raises(InvalidArgumentError, match=message):
            pw.glued_double_cone(g1, g1, conn)
    assert pw.glued_double_cone(g1, g1, pw.Graph(np.eye(4))) == pw.glued_double_cone(g1, g1, np.eye(4))


def test_glued_cone_condition_flagship_instance():
    rep = pw.glued_cone_pst_condition(15, 6, 8)
    assert rep.holds, rep.detail
    assert rep.witness["delta_ratio"] == Fraction(2)
    assert Fraction(2) in rep.witness["gamma_ratios"]
    assert abs(rep.witness["time"] - math.pi / 4) < 1e-12


def test_glued_cone_flagship_transfer_is_real(oracle_amp):
    g1 = pw.circulant(15, [1, 2, 4])
    conn = pw.circulant(15, [1, 2, 4, 7]).adj
    g = pw.glued_double_cone(g1, g1, conn)
    amp = oracle_amp(g, 0, 31, math.pi / 4)
    assert abs(amp) >= 1 - 1e-8
    # the transfer phase is e^{i pi/4}
    assert abs(amp - np.exp(1j * math.pi / 4)) < 1e-6


def test_glued_cone_condition_odd_odd_ratio():
    # (9,4,4): branch widths 5 and 3 -> ratio 5/3 sits odd/odd, no transfer
    rep = pw.glued_cone_pst_condition(9, 4, 4)
    assert not rep.holds
    assert rep.witness["delta_ratio"] == Fraction(5, 3)
    assert rep.witness["time"] is None


def test_glued_cone_condition_irrational():
    rep = pw.glued_cone_pst_condition(3, 2, 2)
    assert not rep.holds
    assert "irrational" in rep.detail


@pytest.mark.parametrize(
    "n, k, gamma, time", [(3, 0, 2, math.pi / 2), (12, 0, 4, math.pi / 4), (15, 8, 6, math.pi / 2)]
)
def test_glued_cone_condition_exact_test_overrides_class_shortcut(n, k, gamma, time, oracle_amp):
    # the parity classes reject these, but the four apex phases align
    rep = pw.glued_cone_pst_condition(n, k, gamma)
    assert rep.holds
    assert rep.witness["time"] == pytest.approx(time, abs=1e-12)
    assert rep.detail.endswith("(parity-class shortcut disagrees; exact test governs)")
    half = pw.circulant(n, range(1, k // 2 + 1))
    g = pw.glued_double_cone(half, half, pw.circulant(n, range(1, gamma // 2 + 1)))
    assert pw.pst_certificate(g, 0, g.n - 1).verdict == "yes"
    assert abs(oracle_amp(g, 0, g.n - 1, time)) > 1 - 1e-9


@pytest.mark.parametrize("n, k", [(1, 0), (4, 0), (8, 2)])
def test_glued_cone_condition_unglued_halves(n, k):
    # gamma = 0 leaves the apexes in separate components, and each eigenvalue
    # k/2 +- Delta sits on both symmetry branches
    rep = pw.glued_cone_pst_condition(n, k, 0)
    assert not rep.holds
    assert rep.witness["time"] is None
    assert "disagrees" not in rep.detail


def test_glued_cone_family():
    assert pw.glued_cone_family(2) == (15, 6, 8)
    assert pw.glued_cone_family(3) == (60, 12, 16)
    with pytest.raises(InvalidArgumentError):
        pw.glued_cone_family(1)
    # every family member passes the condition, with halving times
    for a in (2, 3, 4):
        n, k, gamma = pw.glued_cone_family(a)
        rep = pw.glued_cone_pst_condition(n, k, gamma)
        assert rep.holds
        assert abs(rep.witness["time"] - math.pi / 2**a) < 1e-12


def test_glued_cone_family_time_is_exact_far_out():
    # the eigenvalue differences have gcd 2**60, so the time is pi / 2**60
    rep = pw.glued_cone_pst_condition(*pw.glued_cone_family(60))
    assert rep.holds
    assert rep.witness["time_exact"] == Fraction(1, 2**60)


def test_glued_cone_apex_eigendata():
    data = pw.glued_cone_apex_eigendata(15, 6, 8)
    by_value = {round(lam): (sigma, w) for lam, sigma, w in data}
    assert by_value[15] == (0, pytest.approx(1 / 32))
    assert by_value[-1] == (0, pytest.approx(15 / 32))
    assert by_value[3] == (1, pytest.approx(5 / 16))
    assert by_value[-5] == (1, pytest.approx(3 / 16))
    assert sum(w for _, _, w in data) == pytest.approx(1.0)


def test_glued_cone_apex_fidelity_matches_matrix(oracle_amp):
    g1 = pw.circulant(15, [1, 2, 4])
    conn = pw.circulant(15, [1, 2, 4, 7]).adj
    g = pw.glued_double_cone(g1, g1, conn)
    for t in (0.0, 0.3, math.pi / 4, 1.9):
        closed = pw.glued_cone_apex_fidelity(15, 6, 8, t)
        assert abs(closed - oracle_amp(g, 0, 31, t)) < 1e-9
    amp = pw.glued_cone_apex_fidelity(15, 6, 8, math.pi / 4)
    assert abs(abs(amp) - 1.0) < 1e-12


@pytest.mark.parametrize("n, k, gamma", [(15, 6, 8), pw.glued_cone_family(3)])
def test_glued_cone_support_is_pair_spectrum(n, k, gamma):
    half = pw.circulant(n, range(1, k // 2 + 1))
    conn = pw.circulant(n, range(1, gamma // 2 + 1)).adj
    g = pw.glued_double_cone(half, half, conn)
    lam, sign, weight = np.array(pw.glued_cone_apex_eigendata(n, k, gamma)).T
    _assert_same_support(lam, (-1.0) ** sign * weight, pw.pair_spectrum(pw.eigendecompose(g), 0, g.n - 1))


def test_glued_cone_accepts_distinct_copies(oracle_amp):
    # two different 2-regular graphs on 6 vertices, identity connection
    g1, g2 = pw.cycle(6), pw.circulant(6, [2])  # C6 vs two triangles
    conn = np.eye(6)
    g = pw.glued_double_cone(g1, g2, conn)
    assert g.n == 14
    # still a legal graph with the right layering
    assert np.array_equal(g.adj[1:7, 7:13], conn)


# ---------------------------------------------------------------------------
# cylindrical cones
# ---------------------------------------------------------------------------

def test_cylindrical_cone_structure():
    g = pw.cylindrical_cone(pw.cycle(3), pw.empty_graph(5), pw.cycle(3))
    assert g.n == 13
    assert pw.cylindrical_apexes(g) == (0, 12)
    # consecutive layers fully joined
    assert np.all(g.adj[0, 1:4] == 1) and np.all(g.adj[0, 4:] == 0)
    assert np.all(g.adj[1:4, 4:9] == 1)
    assert np.all(g.adj[4:9, 9:12] == 1)
    assert np.all(g.adj[12, 9:12] == 1) and np.all(g.adj[12, :9] == 0)
    # middle layer has no internal edges
    assert np.all(g.adj[4:9, 4:9] == 0)


def test_cylindrical_check_all_odd_contradiction():
    trace = pw.cylindrical_no_pst_check(3, 2, 2)
    assert trace.verdict == "no"
    assert trace.params["n"] == 3 and trace.params["k"] == 2 and trace.params["m"] == 2
    assert len(trace.requirements) == 2
    assert any("odd" in line for line in trace.trace)
    assert trace.trace[-1].endswith(": contradiction")


def test_cylindrical_check_square_discriminant_odd_k():
    trace = pw.cylindrical_no_pst_check(2, 1, 1)
    assert trace.verdict == "no"
    assert any("contradiction" in line for line in trace.trace)


def test_cylindrical_check_irrational_branch():
    trace = pw.cylindrical_no_pst_check(3, 1, 1)
    assert trace.verdict == "no"
    assert any("irrational" in line for line in trace.trace)


def test_cylindrical_check_halving_descent():
    trace = pw.cylindrical_no_pst_check(12, 4, 2)
    assert trace.verdict == "no"
    assert any("halving" in line for line in trace.trace)


def test_cylindrical_check_is_always_no(rng):
    for _ in range(100):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(0, n))
        m = int(rng.integers(1, 12))
        assert pw.cylindrical_no_pst_check(n, k, m).verdict == "no"


def test_cylindrical_check_validates_arguments():
    with pytest.raises(InvalidArgumentError):
        pw.cylindrical_no_pst_check(3, 3, 1)  # k must stay below n
    with pytest.raises(InvalidArgumentError):
        pw.cylindrical_no_pst_check(0, 0, 1)
    with pytest.raises(InvalidArgumentError):
        pw.cylindrical_no_pst_check(3, 2, 0)


@pytest.mark.parametrize(
    "n,k,m,expected_max",
    [(3, 2, 2, 0.800000000000), (4, 2, 2, 0.996344935754)],
)
def test_cylindrical_scan_corroborates(n, k, m, expected_max):
    # the connected 2-regular graph on n vertices is the n-cycle
    g1 = pw.cycle(n)
    g = pw.cylindrical_cone(g1, pw.empty_graph(m), g1)
    a, b = pw.cylindrical_apexes(g)
    # the four eigenvalues the parity argument reasons about must actually
    # appear in the spectrum of the assembled graph
    spectrum = np.linalg.eigvalsh(g.adj)
    half_k = k / 2.0
    delta = math.sqrt(half_k**2 + n)
    gamma = math.sqrt(half_k**2 + (2 * m + 1) * n)
    for target in (half_k + delta, half_k - delta, half_k + gamma, half_k - gamma):
        assert np.min(np.abs(spectrum - target)) < 1e-9
    _, fmax = pw.max_fidelity_scan(g, a, b, 200.0, 200001, 60)
    assert fmax < 1 - 1e-3
    assert fmax == pytest.approx(expected_max, abs=1e-9)


# ---------------------------------------------------------------------------
# weighted 4-path with loops
# ---------------------------------------------------------------------------

def test_weighted_p4_matrix():
    g = pw.weighted_p4(2.5, 0.5)
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.5, 2.5, 0.0],
            [0.0, 2.5, 0.5, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    assert np.array_equal(g.adj, expected)
    with pytest.raises(InvalidArgumentError):
        pw.weighted_p4(0.0)
    negative_zero_loops = pw.weighted_p4(1.0, -0.0)
    assert np.array_equal(negative_zero_loops.adj, pw.path_graph([1.0, 1.0, 1.0]).adj)
    assert np.signbit(np.diag(negative_zero_loops.adj)).tolist() == [False, True, True, False]


def test_p4_condition_loopless_instances(oracle_amp):
    # ratio exactly 1: transfer at pi/gamma
    gamma = 2.0 / math.sqrt(3.0)
    rep = pw.p4_pst_condition(gamma, 0.0)
    assert rep.holds, rep.detail
    assert rep.witness["case"] == "no-loops"
    assert abs(rep.witness["time"] - math.pi / gamma) < 1e-12
    assert abs(oracle_amp(pw.weighted_p4(gamma), 0, 3, rep.witness["time"])) >= 1 - 1e-8

    # odd/odd gamma ratio instance, transfer at 3*pi/gamma
    gamma = 6.0 / math.sqrt(7.0)
    rep = pw.p4_pst_condition(gamma, 0.0)
    assert rep.holds, rep.detail
    assert abs(rep.witness["time"] - 3 * math.pi / gamma) < 1e-12
    assert abs(oracle_amp(pw.weighted_p4(gamma), 0, 3, rep.witness["time"])) >= 1 - 1e-8


def test_p4_condition_unweighted_path_fails():
    rep = pw.p4_pst_condition(1.0, 0.0)
    assert not rep.holds
    assert "irrational" in rep.detail


def test_p4_condition_exact_test_overrides_class_shortcut():
    # both branch ratios are rational and sit in the classes the shortcut
    # accepts, yet the multiplier triple (5,4,3) has even sum: no transfer
    rep = pw.p4_pst_condition(0.75, 0.75)
    assert not rep.holds
    assert rep.witness["class_form"] is True
    assert tuple(rep.witness["triple"]) == (5, 4, 3)
    assert "exact test governs" in rep.detail
    # numeric corroboration: the walk is 4*pi-periodic with peak 0.8
    g = pw.weighted_p4(0.75, 0.75)
    _, fmax = pw.max_fidelity_scan(g, 0, 3, 4 * math.pi, 40001, 60)
    assert fmax == pytest.approx(0.8, abs=1e-6)


def test_p4_condition_with_loops_positive(oracle_amp):
    # planted instance: gamma = 8/sqrt(63), kappa = 10/sqrt(63) gives branch
    # widths 12/sqrt(63) and 8/sqrt(63), triple (3,2,2), odd sum
    root = math.sqrt(63.0)
    rep = pw.p4_pst_condition(8.0 / root, 10.0 / root)
    assert rep.holds, rep.detail
    assert rep.witness["case"] == "loops"
    assert tuple(rep.witness["triple"]) == (3, 2, 2)
    t_star = rep.witness["time"]
    assert abs(t_star - 2 * math.pi * root / 8.0) < 1e-10
    g = pw.weighted_p4(8.0 / root, 10.0 / root)
    assert abs(oracle_amp(g, 0, 3, t_star)) >= 1 - 1e-8


def test_p4_condition_ratio_reconstructing_to_zero_fails():
    # Delta_minus / gamma = 1e-9 reconstructs to 0/1: no triple, no division
    rep = pw.p4_pst_condition(1e9, 1e9)
    assert not rep.holds
    assert rep.detail == "condition fails (irrational Delta/gamma ratio)"


@pytest.mark.parametrize("kappa", [1e5, -1e5])
def test_p4_condition_nearly_rational_ratio_fails(kappa):
    # Delta_pm / gamma = sqrt(1 + 1e-10) is irrational, though within 1e-9 of 1
    rep = pw.p4_pst_condition(1e5, kappa)
    assert not rep.holds
    assert rep.witness["triple"] is None
    assert rep.detail == "condition fails (irrational Delta/gamma ratio)"


def test_p4_condition_rejects_nonpositive_gamma():
    with pytest.raises(InvalidArgumentError):
        pw.p4_pst_condition(-1.0, 0.0)


@pytest.mark.parametrize("call", [pw.p4_pst_condition, pw.weighted_p4])
@pytest.mark.parametrize("gamma", [-1.0, 0.0, math.nan])
def test_p4_builder_and_condition_share_gamma_check(call, gamma):
    with pytest.raises(InvalidArgumentError, match="middle weight gamma must be positive"):
        call(gamma, 0.0)


# ---------------------------------------------------------------------------
# the three conditions against the decisions they replaced: phase alignment
# of the glued cone's four apex eigenvalues, the 4-path's lcm/gcd triple and
# the double cone's parity class
# ---------------------------------------------------------------------------

def _glued_alignment_reference(n, k, gamma):
    """(holds, time_exact) from the exact phase alignment of the four apex
    eigenvalues k_pm +- Delta_pm with swap signs (0, 0, 1, 1)."""
    k_plus, k_minus = Fraction(k + gamma, 2), Fraction(k - gamma, 2)
    d_plus = sqrt_rational(k_plus * k_plus + n)
    d_minus = sqrt_rational(k_minus * k_minus + n)
    if d_plus is None or d_minus is None:
        return False, None
    values = [k_plus + d_plus, k_plus - d_plus, k_minus + d_minus, k_minus - d_minus]
    if len(set(values)) < 4:  # one eigenvalue carries both swap signs
        return False, None
    denom = math.lcm(*[(v - values[0]).denominator for v in values[1:]])
    deltas = [int((v - values[0]) * denom) for v in values[1:]]
    tau = minimal_phase_alignment(deltas, [0, 1, 1])
    return (False, None) if tau is None else (True, tau * denom)


def test_glued_cone_condition_matches_phase_alignment_reference():
    for n in range(1, 41):
        for k in range(n):
            for gamma in range(n + 1):
                rep = pw.glued_cone_pst_condition(n, k, gamma)
                got = (rep.holds, rep.witness.get("time_exact"))
                assert got == _glued_alignment_reference(n, k, gamma), (n, k, gamma)


@pytest.mark.parametrize(
    "n, k, gamma, vector, t_exact",
    [
        (4, 0, 0, (1, 1, 0), None),  # eigenvalues +-2, each on both branches
        (8, 2, 0, (1, 1, 0), None),  # eigenvalues 1 +- 3, each on both branches
        (3, 0, 2, (1, 1, 1), Fraction(1, 2)),  # +-3 on one branch, +-1 on the other
        (15, 6, 8, (2, 1, 2), Fraction(1, 4)),
    ],
)
def test_glued_cone_condition_multipliers(n, k, gamma, vector, t_exact):
    # an eigenvalue on both branches (gamma = 0) gives an even multiplier sum
    d_plus = sqrt_rational(Fraction(k + gamma, 2) ** 2 + n)
    d_minus = sqrt_rational(Fraction(k - gamma, 2) ** 2 + n)
    plus = {Fraction(k + gamma, 2) + s * d_plus for s in (1, -1)}
    minus = {Fraction(k - gamma, 2) + s * d_minus for s in (1, -1)}
    assert bool(plus & minus) == (gamma == 0)
    assert _multipliers((d_plus, d_minus, Fraction(gamma))) == (vector, t_exact)
    rep = pw.glued_cone_pst_condition(n, k, gamma)
    assert (rep.holds, rep.witness.get("time_exact")) == (t_exact is not None, t_exact)


def _p4_rational_grid():
    """(gamma, kappa) with Delta_pm / gamma = r_pm for small rationals r_pm:
    kappa = gamma (r_plus^2 - r_minus^2), gamma^2 = 4 / (2 S - D^2 - 1) with
    S = r_plus^2 + r_minus^2 and D = r_plus^2 - r_minus^2."""
    ratios = sorted({Fraction(p, q) for p in range(1, 9) for q in range(1, 9)})
    for r_plus in ratios:
        for r_minus in ratios:
            s, d = r_plus**2 + r_minus**2, r_plus**2 - r_minus**2
            if 2 * s - d * d - 1 > 0:
                gamma = 2.0 / math.sqrt(float(2 * s - d * d - 1))
                yield gamma, gamma * float(d)


def test_p4_condition_matches_lcm_gcd_triple_reference():
    checked = 0
    for gamma, kappa in _p4_rational_grid():
        d_plus = 0.5 * math.sqrt((kappa + gamma) ** 2 + 4.0)
        d_minus = 0.5 * math.sqrt((kappa - gamma) ** 2 + 4.0)
        fp = Fraction(*rational_reconstruct(d_plus / gamma))
        fm = Fraction(*rational_reconstruct(d_minus / gamma))
        scale = math.lcm(fp.denominator, fm.denominator)
        c_plus, c_minus = int(fp * scale), int(fm * scale)
        g = math.gcd(c_plus, c_minus, scale)
        triple = [c_plus // g, c_minus // g, scale // g]
        holds = sum(triple) % 2 == 1
        rep = pw.p4_pst_condition(gamma, kappa)
        assert (rep.witness["triple"], rep.holds) == (triple, holds), (gamma, kappa)
        time = triple[2] * math.pi / gamma if holds else None
        assert repr(rep.witness["time"]) == repr(time), (gamma, kappa)
        checked += holds
    assert checked > 100


def test_double_cone_condition_matches_parity_class_reference():
    checked = 0
    for lam0 in (1.0, 2.0, 3.0, 2.0 * math.sqrt(2.0), math.sqrt(3.0)):
        for b in (0, 1):
            for p in range(1, 12):
                for q in range(1, 12):
                    # alpha with (lam_plus + b) / Delta = p / q
                    delta = (0.5 * (lam0 + b) + b) * q / p
                    alpha_sq = (delta * delta - (0.5 * (lam0 - b)) ** 2) / 2
                    if alpha_sq <= 0:
                        continue
                    alpha = math.sqrt(alpha_sq)
                    lam_plus, delta, _, _ = _double_cone_parts(lam0, b, alpha)
                    rec = rational_reconstruct((lam_plus + b) / delta)
                    holds = rec is not None and classify_rational(*rec) != CLASS_ODD_OVER_ODD
                    time = rec[1] * math.pi / delta if holds else None
                    rep = pw.double_cone_pst_condition(lam0, b, alpha)
                    assert rep.holds == holds, (lam0, b, alpha)
                    assert repr(rep.witness["time"]) == repr(time), (lam0, b, alpha)
                    checked += holds
    assert checked > 100
