"""Graph products (cartesian, weak, lexicographic, generalized lexicographic)
and the arithmetic sufficiency checks for state transfer on them.

Vertex (g, h) of a product sits at index g*|V_H| + h, matching the
left-operand-first convention used by join.
"""

from __future__ import annotations

from math import isfinite, pi
from typing import List, Optional, Tuple

import numpy as np

from .conditions import ConditionReport
from .errors import InvalidArgumentError, InvalidSizeError, NonCommutingError, NumericFailureError
from .graphs import Graph, _commute, _edge_list, _own, regular_degree
from .spectral import _clusters, _decomposition, _means, is_integral, spectrum

__all__ = [
    "cartesian_product",
    "weak_product",
    "lexicographic_product",
    "generalized_lexicographic_product",
    "generalized_lexicographic_spectrum",
    "is_circulant_adjacency",
    "check_weak_pst_condition",
    "check_lexico_clique_condition",
    "check_std_lexico_condition",
]

MEMBERSHIP_RTOL = 1e-9


def _product_labels(g: Graph, h: Graph) -> Optional[Tuple[str, ...]]:
    if g.labels is None or h.labels is None:
        return None
    return tuple(f"({lg},{lh})" for lg in g.labels for lh in h.labels)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """G_I[H]: each vertex of a copy of H linked to its twin in every adjacent copy."""
    return generalized_lexicographic_product(g, _own(np.eye(h.n)), h)


def weak_product(g: Graph, h: Graph) -> Graph:
    # one kron, not G_C[H]: adding I (x) A_H's zeros would turn -0.0 into +0.0
    with np.errstate(over="ignore"):
        adj = np.kron(g.adj, h.adj)
    return _own(adj, _product_labels(g, h))


def lexicographic_product(g: Graph, h: Graph) -> Graph:
    """G_J[H]: each vertex of a copy of H linked to all of every adjacent copy."""
    return generalized_lexicographic_product(g, _own(np.ones((h.n, h.n))), h)


def _check_order(c: Graph, h: Graph) -> None:
    """G_C[H] needs C of H's order, else InvalidSizeError."""
    if c.n != h.n:
        raise InvalidSizeError(f"connection graph has {c.n} vertices but inner graph has {h.n}")


def generalized_lexicographic_product(g: Graph, c: Graph, h: Graph) -> Graph:
    """Adjacency A_G (x) A_C + I (x) A_H; C prescribes the connection pattern
    between copies of H, so it must have the same order as H. Every product
    but the weak one is built here."""
    _check_order(c, h)
    with np.errstate(over="ignore"):  # Graph reports an overflow as non-finite
        adj = np.kron(g.adj, c.adj)
        # add kron(I, A_H) in place, with no second n x n array: 0 * A_H into
        # every block (the signs of the sum's zeros come from it), then A_H
        # into the diagonal blocks, as (x + 0 * y) + y == x + y bit for bit
        blocks = adj.reshape(g.n, h.n, g.n, h.n)
        blocks += 0.0 * h.adj[:, None, :]
        for i in range(0, g.n * h.n, h.n):
            adj[i:i + h.n, i:i + h.n] += h.adj
    return _own(adj, _product_labels(g, h))


def _commuting_eigenpairs(h: Graph, c: Graph) -> List[Tuple[float, float]]:
    """Joint eigenvalues (mu_l, gamma_l) of symmetric A_H, A_C that commute
    by graphs._commute, from the shared checked eigendecomposition of H
    clustered as everywhere else."""
    if not _commute(h, c):
        raise NonCommutingError("inner and connection adjacencies do not commute")
    dec = _decomposition(h)
    bounds, _ = _clusters(dec.values, None)
    means = _means(dec.values, bounds, np.arange(bounds.size - 1))
    pairs: List[Tuple[float, float]] = []
    for lo, hi, mu in zip(bounds[:-1], bounds[1:], means.tolist()):
        block = dec.vectors[:, lo:hi].copy()  # contiguous: BLAS rounds a strided view differently
        gam = np.linalg.eigvalsh(block.T @ c.adj @ block)
        pairs.extend((mu, float(x)) for x in gam)
    return pairs


def generalized_lexicographic_spectrum(g: Graph, c: Graph, h: Graph) -> np.ndarray:
    """Spectrum {lambda_k * gamma_l + mu_l} via a common eigenbasis of H and C.

    Requires [A_H, A_C] = 0; raises NonCommutingError otherwise, and
    AmbiguousDegeneracyError when an eigenvalue cluster of H is too wide to
    group (see spectral_projectors).
    """
    _check_order(c, h)
    pairs = _commuting_eigenpairs(h, c)
    lam = spectrum(g)
    vals = [lk * gamma + mu for lk in lam for (mu, gamma) in pairs]
    return np.sort(np.asarray(vals))[::-1]


def is_circulant_adjacency(g: Graph) -> bool:
    """True when A[j,k] equals A[0][(k-j) mod n] exactly, with 0/1 entries and
    a zero diagonal — a literal circulant pattern, not an isomorphism test.
    In O(nnz) over the edge list: each listed entry must be 1 and so must
    its row-0 entry at (v - u) mod n, which maps each row's nonzeros one to
    one into row 0's, and the list must hold n nnz(row 0) entries, which
    makes every map onto."""
    row, edges = g.adj[0], _edge_list(g)
    return bool(row[0] == 0.0 and np.all(edges.w == 1.0) and edges.w.size == g.n * np.count_nonzero(row)
                and np.all(row[(edges.v - edges.u) % g.n] == 1.0))


def _spectrum_near_multiples(
    lam: np.ndarray, t: float, scale: float, base: float
) -> Tuple[bool, List[float]]:
    """Is every x = (t*scale)*lambda, lambda in lam, within 1e-9*(1+|x|) of
    an integer multiple of base? Returns the verdict and the signed
    residuals. A time t that is not finite raises InvalidArgumentError, a
    scale or an x beyond the float range NumericFailureError."""
    if not isfinite(t):
        raise InvalidArgumentError(f"transfer time must be finite, got {t}")
    try:
        factor = t * scale
    except OverflowError:  # an integer scale too large for a float
        raise NumericFailureError("the scale of t leaves the float range") from None
    ok = True
    residuals = []
    for lk in lam:
        x = factor * float(lk)
        if not isfinite(x):
            raise NumericFailureError(f"t*lambda = {factor}*{float(lk)} leaves the float range")
        res = x - round(x / base) * base
        residuals.append(res)
        ok = ok and abs(res) <= MEMBERSHIP_RTOL * (1.0 + abs(x))
    return ok, residuals


def _report(witness: dict, *checks: Tuple[bool, str]) -> ConditionReport:
    """The report of a sufficiency test from its (ok, problem) checks: it
    holds when every check does, and its detail names the failed problems
    in order."""
    problems = [problem for ok, problem in checks if not ok]
    return ConditionReport(not problems, witness, "; ".join(problems) or "all conditions hold")


def check_weak_pst_condition(g: Graph, t_g: float, h: Graph) -> ConditionReport:
    """Sufficiency test for transfer on the weak product G x H at time t_g.

    Needs (i) t_g * Spec(G) inside Z*pi and (ii) H a circulant graph whose
    eigenvalues are all odd integers. Sufficient, not necessary.
    """
    spec_ok, residuals = _spectrum_near_multiples(spectrum(g), t_g, 1, pi)
    circ = is_circulant_adjacency(h)
    mu = spectrum(h)
    odd_ok = is_integral(h) and bool(np.all(np.round(mu) % 2 == 1))
    return _report(
        {"t_spec_mod_pi": residuals, "h_circulant": circ, "h_spectrum": [float(x) for x in mu]},
        (spec_ok, "t*Spec(G) leaves Z*pi"),
        (circ, "inner graph is not circulant"),
        (odd_ok, "inner spectrum is not all odd integers"),
    )


def check_lexico_clique_condition(
    g: Graph, h: Graph, t: float, m: Optional[int] = None
) -> ConditionReport:
    """Sufficiency test for transfer on G_{K_m}[H] when G and H both have
    transfer at the common time t: H must be m-vertex regular and
    t*m*Spec(G) must lie in 2*Z*pi.
    """
    if m is None:
        m = h.n
    reg = regular_degree(h)
    spec_ok, residuals = _spectrum_near_multiples(spectrum(g), t, m, 2.0 * pi)
    return _report(
        {"t_m_spec_mod_2pi": residuals, "h_regular_degree": reg, "clique_order": m},
        (h.n == m, f"inner graph has {h.n} vertices, expected {m}"),
        (reg is not None, "inner graph is not regular"),
        (spec_ok, "t*m*Spec(G) leaves 2*Z*pi"),
    )


def check_std_lexico_condition(g: Graph, h: Graph, t_h: float) -> ConditionReport:
    """Sufficiency test for transfer on the standard lexicographic G[H] at the
    inner graph's transfer time t_h: H regular and t_h*|V_H|*Spec(G) in 2*Z*pi.

    witness["integer_form"] additionally reports the all-integer variant
    k_H*|V_H|*Spec(G) in 4*Z when G is integral and t_h = (pi/2)*k_H;
    it is None when that variant does not apply.
    """
    reg = regular_degree(h)
    lam = spectrum(g)
    spec_ok, residuals = _spectrum_near_multiples(lam, t_h, h.n, 2.0 * pi)
    integer_form: Optional[bool] = None
    if reg is not None and is_integral(g):
        k_h = round(reg)
        if abs(reg - k_h) <= 1e-9 and abs(t_h - 0.5 * pi * k_h) <= MEMBERSHIP_RTOL * (
            1.0 + abs(t_h)
        ):
            integer_form = all(
                (k_h * h.n * round(float(lk))) % 4 == 0 for lk in lam
            )
    return _report(
        {"t_n_spec_mod_2pi": residuals, "h_regular_degree": reg, "integer_form": integer_form},
        (reg is not None, "inner graph is not regular"),
        (spec_ok, "t_H*|V_H|*Spec(G) leaves 2*Z*pi"),
    )
