"""Cone-family constructions and their closed-form apex amplitudes.

Four families live here, all built around two distinguished "apex" vertices:

* double cones: two apexes joined to a weighted base graph through edges
  proportional to the base's Perron vector;
* glued double cones: apex + G + G + apex, the two copies of G linked by a
  0/1 connection matrix commuting with both adjacencies;
* cylindrical cones: apex + G1 + middle + G2 + apex with full joins between
  consecutive layers;
* weighted 4-paths with a tunable middle edge and optional loops on the two
  internal vertices.

Their exact transfer conditions live in :mod:`pstwalk.conditions`, which
needs no numpy.
"""

from __future__ import annotations

from math import sqrt
from typing import Tuple, Union

import numpy as np

# p4_pst_condition is re-imported so that pstwalk.cones.p4_pst_condition
# still names it; conditions.__all__ alone exports it
from .conditions import (
    _check_double_cone,
    _check_p4_gamma,
    _double_cone_delta,
    _glued_branch_data,
    _validate_nkg,
    p4_pst_condition,
)
from .errors import InvalidArgumentError, InvalidSizeError, NonCommutingError
from .graphs import Graph, _commute, _layered, _own, path_graph, regular_degree
from .spectral import _amplitudes, perron_vector

__all__ = [
    "double_cone",
    "double_cone_fidelity",
    "glued_double_cone",
    "glued_cone_family",
    "glued_cone_apex_eigendata",
    "glued_cone_apex_fidelity",
    "glued_cone_apexes",
    "cylindrical_cone",
    "cylindrical_apexes",
    "weighted_p4",
]


# ---------------------------------------------------------------------------
# double cones
# ---------------------------------------------------------------------------

def double_cone(base: Graph, b: int, alpha: float) -> Graph:
    """Two apexes (indices 0 and 1, mutual weight b) over a connected base.

    Each apex attaches to base vertex u with weight alpha * x0[u], where x0
    is the base's Perron unit vector; that weighting is what makes the walk
    between the apexes collapse to a three-level system with an exact
    closed-form amplitude.
    """
    _check_double_cone(b, alpha)
    _, x0 = perron_vector(base)
    spoke = alpha * x0[None, :]
    links = {(0, 1): float(b), (0, 2): spoke, (1, 2): spoke}
    adj = _layered([[[0.0]], [[0.0]], base.adj], links)
    labels = None
    if base.labels is not None:
        labels = ("A", "B") + base.labels
    return _own(adj, labels)


def _double_cone_parts(lam0: float, b: int, alpha: float):
    """lam_plus, Delta, and the eigenvalues and weights of the apex-to-apex
    amplitude: the symmetric apex state and the base's Perron state mix into
    lam_plus -+ Delta, and the antisymmetric apex state has eigenvalue -b."""
    lam_plus, delta = _double_cone_delta(lam0, b, alpha)
    r = 0.5 * (lam0 - b) / delta
    theta = np.array([lam_plus - delta, lam_plus + delta, -b])
    return lam_plus, delta, theta, np.array([1 + r, 1 - r, -2]) / 4


def double_cone_fidelity(lam0: float, b: int, alpha: float, t) -> Union[complex, np.ndarray]:
    """Apex-to-apex amplitude of the double cone, in closed form.

    lam0 is the base's top eigenvalue. Accepts scalar or array t.
    """
    _, _, theta, weight = _double_cone_parts(lam0, b, alpha)
    return _amplitudes(weight, theta, t)


# ---------------------------------------------------------------------------
# glued double cones
# ---------------------------------------------------------------------------

def glued_double_cone(
    g1: Graph, g2: Graph, connection: Union[Graph, np.ndarray]
) -> Graph:
    """Apex + G1 + G2 + apex on 2n+2 vertices.

    Vertex 0 joins every vertex of G1; vertex 2n+1 joins every vertex of G2;
    the 0/1 regular graph C, commuting with both layers by graphs._commute,
    links vertex i of G1 to vertex j of G2 whenever C[i,j]=1; the layers
    share one degree by regular_degree's rule. C's diagonal entries are
    ordinary cross edges, so C=I is the perfect matching between the copies.
    """
    conn = connection.adj if isinstance(connection, Graph) else np.asarray(connection, dtype=float)
    n = g1.n
    if g2.n != n or conn.shape != (n, n):
        raise InvalidSizeError("the glued graphs and the connection matrix must have one order")
    c = connection if isinstance(connection, Graph) else Graph(conn)
    if not c.is_unweighted() or regular_degree(c) is None:
        raise InvalidArgumentError("connection matrix must be 0/1 with constant row sums")
    if regular_degree(g1, g2) is None:
        raise InvalidArgumentError("glued graphs must be regular with equal degree")
    if not (_commute(c, g1) and _commute(c, g2)):
        raise NonCommutingError("connection matrix must commute with both adjacencies")
    apex = [[0.0]]
    return _own(_layered([apex, g1.adj, g2.adj, apex], {(0, 1): 1.0, (1, 2): c.adj, (2, 3): 1.0}))


def glued_cone_apexes(g: Graph) -> Tuple[int, int]:
    """Apex indices (0, last) of a glued double cone built here."""
    return 0, g.n - 1


def glued_cone_family(a: int) -> Tuple[int, int, int]:
    """(n, k, gamma) of the circulant family indexed by a >= 2; every member
    passes glued_cone_pst_condition."""
    if a < 2:
        raise InvalidArgumentError("family index must be at least 2")
    return 15 * 4 ** (a - 2), 3 * 2 ** (a - 1), 4 * 2 ** (a - 1)


def glued_cone_apex_eigendata(
    n: int, k: int, gamma: int
) -> Tuple[Tuple[float, int, float], ...]:
    """The four (eigenvalue, swap sign, weight) triples carrying all apex
    support: lam = k_pm +- Delta_pm, sign 0 on the symmetric branch and 1 on
    the antisymmetric one, weight n / (2(n + lam^2)). Weights sum to 1."""
    _validate_nkg(n, k, gamma)
    (k_plus, dsq_plus), (k_minus, dsq_minus) = _glued_branch_data(n, k, gamma)
    d_plus = sqrt(float(dsq_plus))
    d_minus = sqrt(float(dsq_minus))
    out = []
    for base, delta, sign in ((k_plus, d_plus, 0), (k_minus, d_minus, 1)):
        for s in (1.0, -1.0):
            lam = float(base) + s * delta
            out.append((lam, sign, n / (2.0 * (n + lam * lam))))
    return tuple(out)


def glued_cone_apex_fidelity(n: int, k: int, gamma: int, t) -> Union[complex, np.ndarray]:
    """Closed-form apex-to-apex amplitude of the glued double cone."""
    lam, sign, weight = np.array(glued_cone_apex_eigendata(n, k, gamma)).T
    return _amplitudes((-1.0) ** sign * weight, lam, t)


# ---------------------------------------------------------------------------
# cylindrical cones
# ---------------------------------------------------------------------------

def cylindrical_cone(g1: Graph, middle: Graph, g2: Graph) -> Graph:
    """Layered graph apex + G1 + middle + G2 + apex, consecutive layers fully
    joined with weight-1 edges. Layer blocks keep their own adjacency."""
    apex = [[0.0]]
    blocks = [apex, g1.adj, middle.adj, g2.adj, apex]
    return _own(_layered(blocks, {(i, i + 1): 1.0 for i in range(4)}))


def cylindrical_apexes(g: Graph) -> Tuple[int, int]:
    return 0, g.n - 1


# ---------------------------------------------------------------------------
# weighted 4-paths
# ---------------------------------------------------------------------------

def weighted_p4(gamma: float, kappa: float = 0.0) -> Graph:
    """Path 0-1-2-3 with outer weights 1, middle weight gamma, and loops of
    weight kappa on the two internal vertices."""
    _check_p4_gamma(gamma)
    return path_graph((1.0, gamma, 1.0), (0.0, kappa, kappa, 0.0))
