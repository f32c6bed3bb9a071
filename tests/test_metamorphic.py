"""Metamorphic relations on the pair questions over the test corpus.

Three transformations with known effects on the walk exp(-itA):
- relabelling the vertices changes nothing but the vertex names;
- scaling every weight by c > 0 turns the transfer time t* into t*/c;
- a shift A + sI multiplies every amplitude by exp(-ist), so |F| and the
  verdict are unchanged.

Each relation is checked on certificates (verdict, signs, t*, time_exact),
scans (t*, fmax) and collapse deviations. Floats compare at FTOL. Besides
the corpus (n <= 24), two larger structured graphs carry the relations to
sizes where pair questions may be answered on an equitable quotient.
"""

import math

import numpy as np
import pytest

import pstwalk as pw

FTOL = 1e-9
T_MAX = 2.0 * math.pi
STEPS = 2001
GRID = np.linspace(0.0, T_MAX, 200)
SCALES = (2.0, 1.0 / 3.0, math.sqrt(2.0))
SHIFTS = (1.0, -2.5)
# (corpus index, a, b, transformation) of each verdict that moves from yes
# or no to unknown under a relation; a move between yes and no is a defect.
UNKNOWN_MOVES = frozenset()


def _pairs(rng, g):
    """(0, n-1) and one seeded pair of distinct vertices."""
    pairs = {(0, g.n - 1)}
    if g.n > 2:
        a, b = (int(v) for v in rng.choice(g.n, size=2, replace=False))
        pairs.add((a, b))
    return sorted(pairs)


def _answers(g, a, b, t_max=T_MAX, grid=GRID):
    cert = pw.pst_certificate(g, a, b)
    t_s, fmax = pw.max_fidelity_scan(g, a, b, t_max, STEPS)
    try:
        dev = pw.collapse_fidelity_check(g, a, b, grid)
    except (pw.NotEquitableError, pw.NotConnectedError) as exc:
        dev = type(exc).__name__
    return cert, (t_s, fmax), dev


def _close(x, y):
    """Floats within FTOL; anything else (None, an error name) equal."""
    if isinstance(x, float) and isinstance(y, float):
        return abs(x - y) <= FTOL
    return x == y


def _same_scan_max(g, a, b, scan, other, c=1.0):
    """fmax agrees, and t* agrees or both times reach the same |F| (equal
    maxima at several times may be resolved either way)."""
    (t, f), (t_o, f_o) = scan, other
    if abs(f - f_o) > FTOL:
        return False
    if abs(t - t_o * c) <= FTOL:
        return True
    dec = pw.eigendecompose(g)
    return abs(abs(pw.fidelity(dec, a, b, t_o * c)) - f) <= FTOL


def _same_verdict(base, other, key, moves):
    if other.verdict == base.verdict:
        return True
    if other.verdict == "unknown":
        moves.add(key)
        return True
    return False  # yes <-> no, or unknown -> yes/no


def _relabelled(g, rng):
    perm = rng.permutation(g.n)  # vertex v of g is vertex perm[v] of h
    inv = np.argsort(perm)
    return pw.Graph(g.adj[np.ix_(inv, inv)]), perm


def _large():
    """Q7 and the glued circulant cones of family member 3, apex to apex."""
    n, k, gamma = pw.glued_cone_family(3)
    half = pw.circulant(n, range(1, k // 2 + 1))
    cone = pw.glued_double_cone(half, half, pw.circulant(n, range(1, gamma // 2 + 1)))
    return [(pw.hypercube(7), 0, 127), (cone, 0, 2 * n + 1)]


@pytest.fixture(scope="module")
def cases(corpus):
    rng = np.random.default_rng(11)
    out = []
    for i, g in enumerate(corpus):
        for a, b in _pairs(rng, g):
            out.append((i, g, a, b, _answers(g, a, b)))
    for i, (g, a, b) in enumerate(_large()):
        out.append((f"large{i}", g, a, b, _answers(g, a, b)))
    return out


def test_relabelling_changes_no_answer(cases):
    rng = np.random.default_rng(12)
    moves = set()
    for i, g, a, b, (cert, scan, dev) in cases:
        h, perm = _relabelled(g, rng)
        ha, hb = int(perm[a]), int(perm[b])
        h_cert, h_scan, h_dev = _answers(h, ha, hb)
        where = (i, a, b, "relabel")
        assert _same_verdict(cert, h_cert, where, moves), where
        if h_cert.verdict == cert.verdict:
            assert h_cert.signs == cert.signs and h_cert.support == cert.support, where
            assert _close(h_cert.time_num, cert.time_num), where
            if cert.time_exact is not None:
                assert h_cert.time_exact[:2] == cert.time_exact[:2], where
                assert _close(h_cert.time_exact[2], cert.time_exact[2]), where
        assert _same_scan_max(h, ha, hb, h_scan, scan), where
        assert _close(h_dev, dev), where
    assert moves <= UNKNOWN_MOVES, sorted(moves - UNKNOWN_MOVES)


@pytest.mark.parametrize("c", SCALES)
def test_scaling_divides_transfer_times(cases, c):
    moves = set()
    for i, g, a, b, (cert, scan, dev) in cases:
        h = pw.scale(g, c)
        h_cert, h_scan, h_dev = _answers(h, a, b, T_MAX / c, GRID / c)
        where = (i, a, b, f"scale {c:.6g}")
        assert _same_verdict(cert, h_cert, where, moves), where
        if h_cert.verdict == cert.verdict:
            assert h_cert.signs == cert.signs and h_cert.support == cert.support, where
            if cert.time_num is not None:
                assert _close(h_cert.time_num * c, cert.time_num), where
        assert _same_scan_max(h, a, b, h_scan, scan, 1.0 / c), where
        assert _close(h_dev, dev), where
    assert moves <= UNKNOWN_MOVES, sorted(moves - UNKNOWN_MOVES)


@pytest.mark.parametrize("s", SHIFTS)
def test_identity_shift_keeps_fidelity_and_verdict(cases, s):
    moves = set()
    for i, g, a, b, (cert, scan, dev) in cases:
        h = pw.Graph(g.adj + s * np.eye(g.n))
        h_cert, h_scan, h_dev = _answers(h, a, b)
        where = (i, a, b, f"shift {s:g}")
        assert _same_verdict(cert, h_cert, where, moves), where
        if h_cert.verdict == cert.verdict:
            assert h_cert.signs == cert.signs and h_cert.support == cert.support, where
            assert _close(h_cert.time_num, cert.time_num), where
        assert _same_scan_max(h, a, b, h_scan, scan), where
        assert _close(h_dev, dev), where
    assert moves <= UNKNOWN_MOVES, sorted(moves - UNKNOWN_MOVES)
