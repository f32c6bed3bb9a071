"""Shared fixtures: an independent matrix-exponential oracle and a
seed-pinned randomized graph corpus."""

import math
from itertools import combinations, permutations

import numpy as np
import pytest
from scipy.linalg import expm

import pstwalk as pw

CORPUS_SEED = 20250814
CENSUS_ORDERS = range(2, 7)  # the census: every simple graph on 2-6 vertices


def expm_amplitude(g, a, b, t):
    """Transfer amplitude straight from scipy's expm — no spectral shortcut."""
    return expm(-1j * t * g.adj)[b, a]


@pytest.fixture(scope="session")
def oracle_amp():
    return expm_amplitude


def newton_max(sums, err, t, lo, hi, iters):
    """max_fidelity_scan's bracketed Newton steps on g = |F|^2 from t within
    (lo, hi), where sums(t) gives F, F' and F'' at t and err bounds their
    rounding: a step that loses more than err of the top |F| halves the
    bracket instead. Returns the time of the top |F| reached."""
    t_top, top = t, -np.inf
    for _ in range(iters):
        f, f1, f2 = sums(t)
        if abs(f) < top - err:
            lo, hi = (lo, t) if t > t_top else (t, hi)
            t_next = math.nan
        else:
            t_top, top = t, abs(f)
            d1 = 2.0 * (f.conjugate() * f1).real
            d2 = 2.0 * (abs(f1) ** 2 + (f.conjugate() * f2).real)
            if abs(f) <= err:
                lo, hi = (lo, t) if t - lo > hi - t else (t, hi)
            elif d1 > 0.0:
                lo = t
            elif d1 < 0.0:
                hi = t
            else:
                break
            t_next = t - d1 / d2 if d2 < 0.0 else math.nan
            if t_next == t:
                break
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
            if not lo < t_next < hi:
                break
        t = t_next
    return t_top


def _random_graph(rng) -> pw.Graph:
    n = int(rng.integers(2, 25))
    density = float(rng.uniform(0.15, 0.9))
    upper = np.triu(rng.random((n, n)) < density, 1)
    if rng.random() < 0.5:
        weights = np.ones((n, n))
    else:
        weights = rng.uniform(0.2, 3.0, size=(n, n))
    adj = np.where(upper, weights, 0.0)
    adj = adj + adj.T
    if rng.random() < 0.2:
        loops = np.where(rng.random(n) < 0.3, rng.uniform(0.5, 2.0, size=n), 0.0)
        adj = adj + np.diag(loops)
    return pw.Graph(adj)


def _structured_graphs():
    graphs = [
        pw.complete(2),
        pw.complete(3),
        pw.complete(5),
        pw.complete(9),
        pw.empty_graph(4),
        pw.path_graph([1.0] * 2),
        pw.path_graph([1.0] * 4),
        pw.path_graph([1.0] * 7),
        pw.path_graph([3.0, 1.5, 3.0], loops=(0.0, 1.0, 1.0, 0.0)),
        pw.cycle(3),
        pw.cycle(4),
        pw.cycle(6),
        pw.cycle(7),
        pw.cycle(12),
        pw.hypercube(1),
        pw.hypercube(2),
        pw.hypercube(3),
        pw.hypercube(4),
        pw.circulant(8, [1, 3]),
        pw.circulant(15, [1, 2, 4]),
        pw.circulant(15, [1, 2, 4, 7]),
        pw.circulant(9, [2]),
        pw.join(pw.empty_graph(2), pw.complete(3)),
        pw.join(pw.complete(2), pw.complete(3)),
        pw.join(pw.complete(1), pw.cycle(5)),
        pw.scale(pw.complete(3), np.sqrt(2.0)),
        pw.cartesian_product(pw.complete(2), pw.complete(3)),
        pw.cartesian_product(pw.path_graph([1.0]), pw.cycle(4)),
        pw.weak_product(pw.complete(2), pw.complete(4)),
        pw.weak_product(pw.hypercube(2), pw.complete(4)),
        pw.weak_product(pw.path_graph([1.0, 1.0]), pw.complete(4)),
        pw.lexicographic_product(pw.complete(2), pw.hypercube(2)),
        pw.lexicographic_product(pw.path_graph([1.0, 1.0]), pw.complete(2)),
        pw.double_cone(pw.complete(3), 0, 1.0),
        pw.double_cone(pw.scale(pw.complete(3), np.sqrt(2.0)), 0, np.sqrt(3.0)),
        pw.double_cone(pw.cycle(5), 1, 2.0),
        pw.double_cone(pw.path_graph([1.0, 1.0]), 0, 1.5),
        pw.glued_double_cone(pw.cycle(4), pw.cycle(4), np.eye(4)),
        pw.cylindrical_cone(pw.cycle(3), pw.empty_graph(1), pw.cycle(3)),
        pw.cylindrical_cone(pw.cycle(3), pw.empty_graph(2), pw.cycle(3)),
        pw.cylindrical_cone(pw.cycle(4), pw.empty_graph(2), pw.cycle(4)),
        pw.weighted_p4(1.0),
        pw.weighted_p4(0.75, 0.75),
        pw.weighted_p4(2.0 / np.sqrt(3.0)),
        pw.complement(pw.cycle(6)),
        pw.complement(pw.path_graph([1.0] * 4)),
    ]
    return graphs


@pytest.fixture(scope="session")
def corpus():
    """>= 100 graphs, n <= 24, deterministic across runs."""
    rng = np.random.default_rng(CORPUS_SEED)
    graphs = [_random_graph(rng) for _ in range(60)] + _structured_graphs()
    assert len(graphs) >= 100
    assert all(g.n <= 24 for g in graphs)
    return graphs


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(CORPUS_SEED + 1)


def _glued_ladder_cone(index):
    n, k, gamma = pw.glued_cone_family(index)
    half = pw.circulant(n, range(1, k // 2 + 1))
    return pw.glued_double_cone(half, half, pw.circulant(n, range(1, gamma // 2 + 1))), 0, 2 * n + 1


def _random_ladder(seed):
    """The benchmark's random ladder of one seed: n = 32..256, edge density
    0.2, uniform(0.2, 3) weights, loops on about 30% of vertices, each graph
    connected, and a random vertex pair."""
    rng = np.random.default_rng(seed)

    def adjacency(n):
        upper = np.triu(rng.random((n, n)) < 0.2, 1)
        adj = np.where(upper, rng.uniform(0.2, 3.0, size=(n, n)), 0.0)
        adj = adj + adj.T
        return adj + np.diag(np.where(rng.random(n) < 0.3, rng.uniform(0.5, 2.0, size=n), 0.0))

    out = []
    for n in (32, 64, 128, 192, 256):
        adj = adjacency(n)
        while not pw.is_connected(pw.Graph(adj)):
            adj = adjacency(n)
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        out.append((f"random{n}", pw.Graph(adj), a, b))
    return out


def _ladder():
    structured = [
        ("lex(K:2,Q:2)", pw.lexicographic_product(pw.complete(2), pw.hypercube(2)), 0, 3),
        ("cylcone(3,2,2)", pw.cylindrical_cone(pw.complete(3), pw.empty_graph(2), pw.complete(3)), 0, 9),
        ("weak(Q:2,K:4)", pw.weak_product(pw.hypercube(2), pw.complete(4)), 0, 12),
        ("gluedcone2", *_glued_ladder_cone(2)),
        ("Q6", pw.hypercube(6), 0, 63),
        ("gluedcone3", *_glued_ladder_cone(3)),
    ] + [(f"Q{d}", pw.hypercube(d), 0, 2 ** d - 1) for d in (7, 8, 9)]
    return structured + _random_ladder(0)


@pytest.fixture(scope="session")
def ladder():
    """The benchmark's two ladders as (name, graph, a, b): the structured
    one, and the random one of seed 0."""
    return _ladder()


def _classes(n):
    """One adjacency matrix per isomorphism class of simple graphs on n
    vertices: the least edge mask of each class, in ascending order."""
    edges = list(combinations(range(n), 2))  # at most 15: two bytes of mask
    index = {e: i for i, e in enumerate(edges)}
    masks = np.arange(1 << len(edges), dtype=np.int64)
    byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    least = masks.copy()
    for p in permutations(range(n)):
        image = np.zeros(16, dtype=np.int64)  # image[i]: where edge i goes under p, as a bit
        image[:len(edges)] = [1 << index[tuple(sorted((p[u], p[v])))] for u, v in edges]
        # a mask's image is the OR of its two bytes' images, each a table lookup
        low, high = byte_bits @ image[:8], byte_bits @ image[8:]
        np.minimum(least, low[masks & 255] | high[masks >> 8], out=least)
    out = []
    for mask in np.unique(least).tolist():
        adj = np.zeros((n, n))
        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                adj[u, v] = adj[v, u] = 1.0
        out.append(pw.Graph(adj))
    return out


@pytest.fixture(scope="session")
def classes():
    """{n: one graph per isomorphism class of simple graphs on n vertices}
    for n in CENSUS_ORDERS, 207 classes in all."""
    return {n: _classes(n) for n in CENSUS_ORDERS}
