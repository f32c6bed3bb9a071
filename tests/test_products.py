import itertools
import math

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import (
    AmbiguousDegeneracyError,
    InvalidArgumentError,
    InvalidSizeError,
    NonCommutingError,
)


def _multiset_close(xs, ys, tol=1e-8):
    xs, ys = np.sort(np.asarray(xs)), np.sort(np.asarray(ys))
    return xs.shape == ys.shape and np.abs(xs - ys).max() <= tol


def test_cartesian_product_layout():
    g = pw.cartesian_product(pw.complete(2), pw.path_graph([1.0, 1.0]))
    # vertex (g,h) sits at g*|V_H| + h
    assert g.n == 6
    assert g.adj[0, 3] == 1  # (0,0)-(1,0): edge in K2, same h
    assert g.adj[0, 1] == 1  # same g, edge in P3
    assert g.adj[0, 4] == 0  # changes both coordinates


def test_weak_product_layout():
    g = pw.weak_product(pw.complete(2), pw.complete(3))
    assert g.adj[0, 4] == 1  # both coordinates move
    assert g.adj[0, 3] == 0  # only the K2 coordinate moves
    assert g.adj[0, 1] == 0  # only the K3 coordinate moves


def test_lexicographic_product_layout():
    g = pw.lexicographic_product(pw.complete(2), pw.empty_graph(2))
    # K2[K̄2] = C4 on this ordering? every cross pair is adjacent
    assert g.adj[0, 2] == 1 and g.adj[0, 3] == 1
    assert g.adj[0, 1] == 0  # within a fiber, K̄2 has no edges


def test_product_labels_combined():
    g = pw.weak_product(pw.hypercube(1), pw.hypercube(1))
    assert list(g.labels) == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]


def test_cartesian_spectrum_is_sum():
    g, h = pw.cycle(4), pw.complete(3)
    expected = [x + y for x in pw.spectrum(g) for y in pw.spectrum(h)]
    assert _multiset_close(pw.spectrum(pw.cartesian_product(g, h)), expected)


def test_weak_spectrum_is_product():
    g, h = pw.cycle(5), pw.path_graph([1.0, 1.0])
    expected = [x * y for x in pw.spectrum(g) for y in pw.spectrum(h)]
    assert _multiset_close(pw.spectrum(pw.weak_product(g, h)), expected)


def test_product_spectrum_laws_on_corpus(corpus):
    pairs = [(corpus[i], corpus[i + 1]) for i in range(0, 12, 2)]
    for g, h in pairs:
        if g.n * h.n > 150:
            continue
        sg, sh = pw.spectrum(g), pw.spectrum(h)
        cart = [x + y for x in sg for y in sh]
        assert _multiset_close(pw.spectrum(pw.cartesian_product(g, h)), cart)
        weak = [x * y for x in sg for y in sh]
        assert _multiset_close(pw.spectrum(pw.weak_product(g, h)), weak)


def test_hypercube_is_iterated_cartesian_k2():
    k2 = pw.complete(2)
    q3 = pw.cartesian_product(pw.cartesian_product(k2, k2), k2)
    assert _multiset_close(pw.spectrum(q3), pw.spectrum(pw.hypercube(3)))


def test_generalized_lexicographic_needs_matching_sizes():
    with pytest.raises(InvalidSizeError):
        pw.generalized_lexicographic_product(pw.complete(2), pw.complete(3), pw.complete(4))


def test_generalized_lexicographic_reduces_to_standard():
    # the standard product corresponds to C = all-ones (loops included);
    # a loop-free complete C misses the same-inner-vertex cross edges
    g, h = pw.complete(2), pw.hypercube(2)
    all_ones = pw.Graph(np.ones((h.n, h.n)))
    via_glex = pw.generalized_lexicographic_product(g, all_ones, h)
    assert np.array_equal(via_glex.adj, pw.lexicographic_product(g, h).adj)
    loop_free = pw.generalized_lexicographic_product(g, pw.complete(h.n), h)
    assert not np.array_equal(loop_free.adj, pw.lexicographic_product(g, h).adj)


def test_generalized_lexicographic_spectrum_matches_matrix():
    g = pw.hypercube(2)
    h = pw.hypercube(2)
    c = pw.complete(4)
    predicted = pw.generalized_lexicographic_spectrum(g, c, h)
    built = pw.spectrum(pw.generalized_lexicographic_product(g, c, h))
    assert _multiset_close(predicted, built)


def test_generalized_lexicographic_spectrum_circulant_pair():
    # H and C circulants on the same ring commute without being equal
    g = pw.complete(3)
    h = pw.circulant(6, [1])
    c = pw.circulant(6, [2, 3])
    predicted = pw.generalized_lexicographic_spectrum(g, c, h)
    built = pw.spectrum(pw.generalized_lexicographic_product(g, c, h))
    assert _multiset_close(predicted, built)


def test_generalized_lexicographic_spectrum_rejects_wide_clusters():
    # inner eigenvalues 0.9e-8 apart chain into one cluster 30x the tolerance
    h = pw.Graph(np.diag(np.arange(30) * 0.9e-8))
    with pytest.raises(AmbiguousDegeneracyError):
        pw.generalized_lexicographic_spectrum(pw.complete(2), pw.empty_graph(30), h)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("product", [pw.cartesian_product, pw.weak_product, pw.lexicographic_product,
                                     lambda g, h: pw.generalized_lexicographic_product(g, h, h)])
def test_products_report_overflow_once(product):
    loop = pw.Graph([[1.5e308]])  # every product sums or multiplies two of these
    with pytest.raises(InvalidArgumentError, match="adjacency entries must be finite"):
        product(loop, loop)


def test_noncommuting_inner_pair_is_rejected():
    h = pw.path_graph([1.0, 1.0, 1.0])
    c = pw.circulant(4, [1])
    with pytest.raises(NonCommutingError):
        pw.generalized_lexicographic_spectrum(pw.complete(2), c, h)


def test_weak_fidelity_factorizes(oracle_amp):
    # double spectral sum against the assembled matrix
    g, h = pw.hypercube(2), pw.complete(4)
    dg, dh = pw.eigendecompose(g), pw.eigendecompose(h)
    prod = pw.weak_product(g, h)
    dp = pw.eigendecompose(prod)
    for t in (0.4, math.pi / 2, 2.9):
        for (ga, ha), (gb, hb) in [((0, 0), (3, 0)), ((0, 1), (3, 2))]:
            double_sum = 0.0 + 0.0j
            for k in range(g.n):
                for l in range(h.n):
                    wk = dg.vectors[ga, k] * dg.vectors[gb, k]
                    wl = dh.vectors[ha, l] * dh.vectors[hb, l]
                    double_sum += wk * wl * np.exp(-1j * t * dg.values[k] * dh.values[l])
            a, b = ga * h.n + ha, gb * h.n + hb
            assert abs(double_sum - pw.fidelity(dp, a, b, t)) < 1e-9
            assert abs(double_sum - oracle_amp(prod, a, b, t)) < 1e-9


def _circulant_by_rolls(g):
    """The reference rule: 0/1 entries, a zero diagonal, and row j equal to
    row 0 rolled by j."""
    a, row0 = g.adj, g.adj[0]
    if row0[0] != 0.0 or not np.all((a == 0.0) | (a == 1.0)):
        return False
    return all(np.array_equal(a[j], np.roll(row0, j)) for j in range(1, g.n))


def _circulant_cases():
    rng = np.random.default_rng(11)
    cases = {"K1": pw.complete(1), "Kbar4": pw.empty_graph(4), "K2": pw.complete(2), "K6": pw.complete(6),
             "P3": pw.path_graph([1.0, 1.0]), "Q3": pw.hypercube(3), "I3": pw.Graph(np.eye(3)),
             "2C4": pw.scale(pw.cycle(4), 2.0), "C8-loop": pw.Graph(pw.cycle(8).adj + np.eye(8)),
             "K33": pw.join(pw.empty_graph(3), pw.empty_graph(3))}
    for n, jumps in ((5, [1]), (7, [1, 2]), (8, [1, 4]), (12, [1, 5]), (16, [1, 2, 3, 8]), (30, [2, 7, 15])):
        adj = pw.circulant(n, jumps).adj
        name = f"C{n}{jumps}"
        cases[name] = pw.Graph(adj)
        perm = rng.permutation(n)
        cases[f"{name}-relabelled"] = pw.Graph(adj[np.ix_(perm, perm)])
        mult = (np.arange(n) * next(k for k in range(2, n) if math.gcd(k, n) == 1)) % n
        cases[f"{name}-multiplied"] = pw.Graph(adj[np.ix_(mult, mult)])  # relabelled, still circulant
        cases[f"{name}-negative-zeros"] = pw.Graph(np.where(adj == 0.0, -0.0, adj))
        removed, j = adj.copy(), jumps[0]
        removed[3, (3 + j) % n] = removed[(3 + j) % n, 3] = 0.0
        cases[f"{name}-removed"] = pw.Graph(removed)  # every entry left fits row 0; the count does not
        free = next(k for k in range(1, n) if adj[3, (3 + k) % n] == 0.0 and k != n - j)
        moved = removed.copy()
        moved[3, (3 + free) % n] = moved[(3 + free) % n, 3] = 1.0
        cases[f"{name}-moved"] = pw.Graph(moved)  # the count holds; two entries do not fit
        added = adj.copy()
        added[0, free] = added[free, 0] = 1.0
        cases[f"{name}-added"] = pw.Graph(added)
    return cases


CIRCULANT_CASES = _circulant_cases()


@pytest.mark.parametrize("name", CIRCULANT_CASES)
def test_circulant_check_matches_the_roll_rule(name):
    g = CIRCULANT_CASES[name]
    assert pw.is_circulant_adjacency(g) == _circulant_by_rolls(g)


def test_circulant_cases_cover_both_answers():
    answers = [_circulant_by_rolls(g) for g in CIRCULANT_CASES.values()]
    assert sum(answers) >= 20 and len(answers) - sum(answers) >= 20


def test_is_circulant_adjacency():
    assert pw.is_circulant_adjacency(pw.circulant(7, [1, 2]))
    assert pw.is_circulant_adjacency(pw.complete(4))
    assert not pw.is_circulant_adjacency(pw.path_graph([1.0, 1.0]))
    assert not pw.is_circulant_adjacency(pw.Graph(np.eye(3)))  # loops excluded
    assert not pw.is_circulant_adjacency(pw.scale(pw.cycle(4), 2.0))  # not 0/1


# ---------------------------------------------------------------------------
# transfer conditions
# ---------------------------------------------------------------------------

def test_weak_condition_holds_for_q2_k4():
    rep = pw.check_weak_pst_condition(pw.hypercube(2), math.pi / 2, pw.complete(4))
    assert rep.holds
    assert bool(rep) is True


def test_weak_condition_implies_transfer(oracle_amp):
    # note: the hypothesis needs t*Spec(G) inside Z*pi, which holds for
    # even-spectrum graphs like Q2/Q4 but not for Q3 at pi/2
    cases = [
        (pw.hypercube(2), math.pi / 2, 3),
        (pw.path_graph([1.0, 1.0]), math.pi / math.sqrt(2), 2),
        (pw.hypercube(4), math.pi / 2, 15),
    ]
    for g, t_g, target in cases:
        rep = pw.check_weak_pst_condition(g, t_g, pw.complete(4))
        assert rep.holds, rep.detail
        prod = pw.weak_product(g, pw.complete(4))
        assert abs(oracle_amp(prod, 0, target * 4, t_g)) >= 1 - 1e-8


def test_weak_condition_rejects_bad_time():
    rep = pw.check_weak_pst_condition(pw.hypercube(2), 1.0, pw.complete(4))
    assert not rep.holds
    assert "Z*pi" in rep.detail


def test_weak_condition_rejects_even_inner_spectrum():
    # K3 has an even eigenvalue (2), so the inner-parity requirement fails
    rep = pw.check_weak_pst_condition(pw.hypercube(2), math.pi / 2, pw.complete(3))
    assert not rep.holds


def test_weak_condition_rejects_noncirculant_inner():
    # Q3 has an all-odd spectrum but its binary-ordered adjacency is not a
    # literal circulant pattern, so only the circulant clause can fail
    rep = pw.check_weak_pst_condition(pw.hypercube(2), math.pi / 2, pw.hypercube(3))
    assert not rep.holds
    assert rep.witness["h_circulant"] is False


def test_weak_condition_names_every_failed_condition_in_order():
    # P3 is neither circulant nor of odd integer spectrum (+-sqrt 2, 0)
    rep = pw.check_weak_pst_condition(pw.hypercube(2), 1.0, pw.path_graph([1.0, 1.0]))
    assert not rep.holds
    assert rep.detail == (
        "t*Spec(G) leaves Z*pi; inner graph is not circulant; inner spectrum is not all odd integers"
    )


def test_lex_clique_condition():
    rep = pw.check_lexico_clique_condition(pw.hypercube(2), pw.complete(4), math.pi / 2)
    assert rep.holds, rep.detail
    # wrong clique order
    rep = pw.check_lexico_clique_condition(pw.hypercube(2), pw.complete(4), math.pi / 2, m=3)
    assert not rep.holds
    # irregular inner graph
    rep = pw.check_lexico_clique_condition(pw.hypercube(2), pw.path_graph([1.0, 1.0]), math.pi / 2)
    assert not rep.holds


def test_std_lex_condition_k2_q2(oracle_amp):
    rep = pw.check_std_lexico_condition(pw.complete(2), pw.hypercube(2), math.pi / 2)
    assert rep.holds, rep.detail
    # the integer shortcut needs t_H = (pi/2)*deg(H); Q2 transfers at pi/2,
    # not pi, so the shortcut is not applicable here
    assert rep.witness["integer_form"] is None
    prod = pw.lexicographic_product(pw.complete(2), pw.hypercube(2))
    for g_idx in range(2):
        a, b = g_idx * 4 + 0, g_idx * 4 + 3
        assert abs(oracle_amp(prod, a, b, math.pi / 2)) >= 1 - 1e-8


def test_std_lex_integer_shortcut(oracle_amp):
    # H = K2 transfers exactly at (pi/2)*deg(H) = pi/2, and Q2 is integral
    # with every 1*2*lambda divisible by 4, so the arithmetic form agrees
    rep = pw.check_std_lexico_condition(pw.hypercube(2), pw.complete(2), math.pi / 2)
    assert rep.holds, rep.detail
    assert rep.witness["integer_form"] is True
    prod = pw.lexicographic_product(pw.hypercube(2), pw.complete(2))
    for g_idx in range(4):
        a, b = g_idx * 2, g_idx * 2 + 1
        assert abs(oracle_amp(prod, a, b, math.pi / 2)) >= 1 - 1e-8


def test_std_lex_condition_rejects_incompatible_outer():
    # P3's sqrt(2) eigenvalue cannot satisfy the 2*pi*Z membership
    rep = pw.check_std_lexico_condition(pw.path_graph([1.0, 1.0]), pw.hypercube(2), math.pi / 2)
    assert not rep.holds
    assert rep.witness["integer_form"] is None or rep.witness["integer_form"] is False


def test_condition_report_witnesses_serialize():
    import json

    from pstwalk.cli import _jsonable

    rep = pw.check_weak_pst_condition(pw.hypercube(2), math.pi / 2, pw.complete(4))
    json.dumps(_jsonable(rep.witness))
