"""Census oracle: every simple graph on 2-6 vertices, every vertex pair.

The 207 isomorphism classes are enumerated afresh on each run
(conftest._classes, shared through the session fixture classes): a graph on n
vertices is a bitmask over the n(n-1)/2 possible edges, and the class of a
mask is its least image over the n! vertex permutations, found for all
masks at once. Every pair a < b of every class is certified, 2,760 pairs
in all, and the verdict counts are pinned: a change that moves any verdict
on a complete class of inputs shows here, whoever chose the corpus.
"""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import pstwalk as pw
from conftest import CENSUS_ORDERS as ORDERS

CLASSES = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156}  # simple graphs up to isomorphism
VERDICTS = {"no": 2484, "yes": 44, "unknown": 232}
FIDELITY_TOL = 1e-12


def _certificates(g):
    """{(a, b): certificate} over every pair a < b of g."""
    return {(a, b): pw.pst_certificate(g, a, b) for a, b in combinations(range(g.n), 2)}


@pytest.fixture(scope="module")
def census(classes):
    """(graph, its certificates) for every class."""
    return [(g, _certificates(g)) for graphs in classes.values() for g in graphs]


def test_census_enumerates_every_class_once(classes):
    for n, graphs in classes.items():
        assert len(graphs) == CLASSES[n]
        # edge counts per class: the counts of classes with m edges are
        # symmetric in m and n(n-1)/2 - m (complementation)
        edges = Counter(int(np.count_nonzero(g.adj)) // 2 for g in graphs)
        top = n * (n - 1) // 2
        assert all(edges[m] == edges[top - m] for m in range(top + 1))


def test_census_verdicts_are_pinned(census):
    verdicts = Counter(cert.verdict for _, certs in census for cert in certs.values())
    assert verdicts == VERDICTS


def test_census_transfers_reach_one_under_expm(census, oracle_amp):
    for g, certs in census:
        for (a, b), cert in certs.items():
            if cert.verdict == "yes":
                assert abs(oracle_amp(g, a, b, cert.time_num)) >= 1.0 - FIDELITY_TOL, (g.adj, a, b)


def test_census_relabelling_keeps_every_verdict(census):
    rng = np.random.default_rng(35)
    for g, certs in census:
        perm = rng.permutation(g.n)  # vertex v of g is vertex perm[v] of h
        inv = np.argsort(perm)
        h = pw.Graph(g.adj[np.ix_(inv, inv)])
        for (a, b), cert in certs.items():
            a_h, b_h = sorted((int(perm[a]), int(perm[b])))
            assert pw.pst_certificate(h, a_h, b_h).verdict == cert.verdict, (g.adj, a, b)


@pytest.mark.parametrize("n", ORDERS)
def test_path_ends_transfer_only_on_two_and_three_vertices(n):
    # Christandl et al., PRL 92, 187902 (2004)
    cert = pw.pst_certificate(pw.path_graph([1.0] * (n - 1)), 0, n - 1)
    assert (cert.verdict == "yes") == (n <= 3), cert.reason
