"""Theorem oracle: the paper's constructions over every small factor.

Each check builds one family of the paper from the census classes
(conftest.classes) or from small circulants, and holds pst_certificate to
the family's theorem. Where a sufficient condition holds, the certificate
must say "yes" and scipy's expm must reach |F| >= 1 - FIDELITY_TOL at the
theorem's time; where an exact condition fails, it must not say "yes". The
verdict counts are pinned, so a change that moves a verdict on any family
instance shows here.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.linalg import expm

import pstwalk as pw

FIDELITY_TOL = 1e-9
ALPHAS = (0.5, 1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0, 3.0)  # double-cone scales


def _connection_sets(n):
    """Every connection set of a circulant on n vertices, the empty one first."""
    jumps = range(1, n // 2 + 1)
    return [s for r in range(len(jumps) + 1) for s in combinations(jumps, r)]


def _odd_circulants(max_n):
    """The circulants on at most max_n vertices whose eigenvalues are all odd
    integers."""
    out = []
    for n in range(2, max_n + 1):
        for s in _connection_sets(n)[1:]:
            mu = pw.spectrum(pw.circulant(n, s))
            if np.all(np.abs(mu - np.round(mu)) <= 1e-9) and np.all(np.round(mu) % 2 == 1):
                out.append(pw.circulant(n, s))
    return out


def _transfers(g, t, pairs):
    """min |<b| exp(-itA) |a>| over pairs (a, b), from one scipy expm of the
    real matrix [[0, tA], [-tA, 0]], whose exponential is [[C, S], [-S, C]]
    for exp(-itA) = C - iS (threaded BLAS can take milliseconds over a
    small complex product)."""
    n = g.n
    m = np.zeros((2 * n, 2 * n))
    m[:n, n:] = t * g.adj
    m[n:, :n] = -t * g.adj
    u = expm(m)
    return min(math.hypot(u[b, a], u[b, n + a]) for a, b in pairs)


def test_weak_products_with_odd_circulants_transfer(classes):
    # G x H transfers between (a, h) and (b, h) at t_G where G transfers
    # between a and b at t_G, t_G Spec(G) lies in Z pi and H is a circulant
    # with odd eigenvalues only
    odd = _odd_circulants(8)
    assert [h.n for h in odd] == [2, 4, 4, 6, 6, 8, 8, 8, 8]
    periodic, skipped = {}, 0  # {(graph, t_G): its pairs that transfer at t_G}
    for g in (g for graphs in classes.values() for g in graphs):
        degree = g.degrees()
        for a, b in combinations(range(g.n), 2):
            if degree[a] != degree[b]:  # not cospectral: (A^2)_aa != (A^2)_bb
                continue
            cert = pw.pst_certificate(g, a, b)
            if cert.verdict != "yes":
                continue
            if pw.check_weak_pst_condition(g, cert.time_num, odd[0]).holds:
                periodic.setdefault((g, cert.time_num), []).append((a, b))
            else:
                skipped += 1  # t_G Spec(G) leaves Z pi
    verdicts = Counter()
    for (g, t), ends in periodic.items():
        for h in odd:
            assert pw.check_weak_pst_condition(g, t, h).holds
            prod = pw.weak_product(g, h)
            pairs = [(a * h.n + x, b * h.n + x) for a, b in ends for x in range(h.n)]
            verdicts.update(pw.pst_certificate(prod, *pair).verdict for pair in pairs)
            assert _transfers(prod, t, pairs) >= 1.0 - FIDELITY_TOL, (g.adj, ends, h.adj)
    assert verdicts == {"yes": 810} and skipped == 29


def test_lexicographic_products_transfer(classes):
    # G[H] transfers between (v, a) and (v, b), for every vertex v of G,
    # at t_H where H is regular and transfers between a and b at t_H, and
    # t_H |V_H| Spec(G) lies in 2 Z pi
    verdicts = {}
    for name, h, (a, b) in (("K2", pw.complete(2), (0, 1)), ("C4", pw.cycle(4), (0, 2)),
                            ("Q3", pw.hypercube(3), (0, 7))):
        assert pw.pst_certificate(h, a, b).time_exact == (1, 2, 1.0)
        t = math.pi / 2
        count = Counter()
        for g in (g for graphs in classes.values() for g in graphs):
            if not pw.check_std_lexico_condition(g, h, t).holds:
                continue
            prod = pw.lexicographic_product(g, h)
            pairs = [(v * h.n + a, v * h.n + b) for v in range(g.n)]
            count.update(pw.pst_certificate(prod, *pair).verdict for pair in pairs)
            assert _transfers(prod, t, pairs) >= 1.0 - FIDELITY_TOL, (g.adj, name)
        verdicts[name] = count
    assert verdicts == {"K2": {"yes": 52}, "C4": {"yes": 207}, "Q3": {"yes": 207}}


def test_double_cones_transfer_exactly_where_the_condition_holds(classes):
    # the apexes of K2-bar + G with Perron-vector spokes transfer iff
    # double_cone_pst_condition holds, at its time
    verdicts = Counter()
    for g in (g for graphs in classes.values() for g in graphs if pw.is_connected(g)):
        lam0 = pw.perron_vector(g)[0]
        for b in (0, 1):
            for alpha in ALPHAS:
                report = pw.double_cone_pst_condition(lam0, b, alpha)
                cert = pw.pst_certificate(pw.double_cone(g, b, alpha), 0, 1)
                verdicts[report.holds, cert.verdict] += 1
                if report.holds:
                    assert cert.verdict == "yes" and math.isclose(cert.time_num, report.witness["time"])
    assert verdicts == {(True, "yes"): 1, (False, "no"): 43, (False, "unknown"): 1660}


def test_glued_double_cones_transfer_exactly_where_the_condition_holds():
    # apex + G + G + apex on circulant layers G, linked by the identity or by
    # a circulant (which commute with G), transfer iff
    # glued_cone_pst_condition holds for the degrees, at its time
    verdicts = Counter()
    for n in range(2, 10):
        links = [pw.Graph(np.eye(n))] + [pw.circulant(n, s) for s in _connection_sets(n)[1:]]
        for s in _connection_sets(n):
            layer = pw.circulant(n, s)
            k = round(pw.regular_degree(layer))
            for link in links:
                report = pw.glued_cone_pst_condition(n, k, round(pw.regular_degree(link)))
                g = pw.glued_double_cone(layer, layer, link)
                cert = pw.pst_certificate(g, *pw.glued_cone_apexes(g))
                verdicts[report.holds, cert.verdict] += 1
                if report.holds:
                    assert cert.verdict == "yes"
                    assert Fraction(*cert.time_exact[:2]) * Fraction(cert.time_exact[2]) == report.witness["time_exact"]
    assert verdicts == {(True, "yes"): 2, (False, "no"): 56, (False, "unknown"): 622}


def test_cylindrical_cones_never_transfer(classes):
    # apex + G + empty middle + G + apex never transfers between the apexes
    # for a regular G (cylindrical_no_pst_check proves it by parity)
    verdicts = Counter()
    for g in (g for graphs in classes.values() for g in graphs):
        k = pw.regular_degree(g)
        if k is None:
            continue
        for m in (1, 2, 3):
            assert pw.cylindrical_no_pst_check(g.n, round(k), m).verdict == "no"
            cone = pw.cylindrical_cone(g, pw.empty_graph(m), g)
            verdicts[pw.pst_certificate(cone, *pw.cylindrical_apexes(cone)).verdict] += 1
    assert verdicts == {"no": 5, "unknown": 52}
