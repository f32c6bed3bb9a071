"""Equitable partitions, distance partitions, and the symmetrized quotient.

A partition is equitable when every vertex of cell j sends the same total
edge weight d[j][k] into cell k. The symmetrized quotient replaces the m
cells by a weighted graph with B[j,k] = sign(d[j,k]) sqrt(d[j,k]*d[k,j])
and loops B[j,j] = d[j,j]. B is P^T A P for the characteristic matrix P
with columns normalized, so B's spectrum is part of A's and, where a and
b are singleton cells, <b| exp(-itA) |a> equals the quotient's amplitude
between their cells; that is what makes quotients useful for
state-transfer analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidArgumentError, NotConnectedError, NotEquitableError
from .graphs import Graph, distances_from
from .spectral import _decomposition, _pair, fidelity

__all__ = [
    "EquitablePartition",
    "QuotientGraph",
    "is_equitable",
    "distance_partition",
    "coarsest_equitable_refinement",
    "quotient_symmetrized",
    "collapse_fidelity_check",
    "format_cells",
]

Cells = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class EquitablePartition:
    """Ordered disjoint cells covering V, plus the cell-degree matrix."""

    cells: Cells
    degrees: np.ndarray  # degrees[j, k]: weight from any vertex of cell j into cell k

    @property
    def m(self) -> int:
        return len(self.cells)

    def cell_of(self, v: int) -> int:
        for j, cell in enumerate(self.cells):
            if v in cell:
                return j
        raise InvalidArgumentError(f"vertex {v} not covered by partition")


@dataclass(frozen=True)
class QuotientGraph:
    graph: Graph
    cell_map: Tuple[int, ...]


def _normalize_cells(g: Graph, cells: Sequence[Sequence[int]]) -> Cells:
    """The cells as sorted tuples of ints. Malformed cells raise on their first
    fault, read cell by cell and each cell in ascending order (an empty cell,
    a vertex out of range, a vertex seen before), and only then on a gap."""
    out = tuple(tuple(sorted(map(int, cell))) for cell in cells)
    flat = [v for cell in out for v in cell]
    if (len(flat) == g.n and all(out) and min(flat) >= 0 and max(flat) < g.n
            and np.bincount(flat, minlength=g.n).max() == 1):
        return out
    seen: set = set()
    for cell in out:
        if not cell:
            raise InvalidArgumentError("empty cell in partition")
        for v in cell:
            if v < 0 or v >= g.n:
                raise InvalidArgumentError(f"vertex {v} out of range")
            if v in seen:
                raise InvalidArgumentError(f"vertex {v} appears in two cells")
            seen.add(v)
    raise InvalidArgumentError("cells do not cover every vertex")


class _EdgeList(NamedTuple):
    """The nonzero entries of an adjacency matrix in row-major order: weight
    w[i] at (u[i], v[i]), each edge listed from both ends, a loop once."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def tol(self) -> float:
        """Equitability tolerance: 1e-10 relative to the largest |weight|."""
        return 1e-10 * (1.0 + float(np.max(np.abs(self.w), initial=0.0)))


def _edge_list(g: Graph) -> _EdgeList:
    """g's edge list, extracted on first use and kept on g (Graph._keep)."""
    def extract() -> _EdgeList:
        flat = np.flatnonzero(g.adj != 0.0)
        u, v = np.divmod(flat, g.n)
        return _EdgeList(g.n, u, v, g.adj.ravel()[flat])
    return g._keep(("edges",), extract)


def _equitable_tol(g: Graph) -> float:
    """The tolerance is_equitable applies on g."""
    return _edge_list(g).tol


SIGNATURE_DECIMALS = 9  # refinement groups cell sums rounded to this many decimals


def _labels(cells: Cells) -> np.ndarray:
    """label[v]: index of the cell holding vertex v."""
    sizes = [len(c) for c in cells]
    return np.repeat(np.arange(len(cells)), sizes)[np.argsort(np.concatenate(cells))]


def _cell_sums(edges: _EdgeList, label: np.ndarray) -> np.ndarray:
    """sums[u, k]: total weight from vertex u into cell k, where label[v] in
    0..m-1 is the cell of v; O(nnz + n*m)."""
    n, m = edges.n, int(label.max()) + 1
    sums = np.bincount(edges.u * m + label[edges.v], weights=edges.w, minlength=n * m)
    # bincount over no edges returns integer zeros
    return sums.astype(float, copy=False).reshape(n, m)


def _equitable(edges: _EdgeList, cells: Cells) -> Optional[EquitablePartition]:
    """is_equitable on well-formed cells, each sorted."""
    label = _labels(cells)
    sums = _cell_sums(edges, label)
    d = sums[[c[0] for c in cells]]
    sums -= d[label]
    if np.max(np.abs(sums, out=sums)) > edges.tol:
        return None
    return EquitablePartition(cells, d)


def is_equitable(g: Graph, cells: Sequence[Sequence[int]]) -> Optional[EquitablePartition]:
    """Degree matrix of the partition if it is equitable, else None.

    Every vertex's cell sums must match those of the smallest vertex of its
    cell to within _equitable_tol; that vertex's sums form the degree matrix.
    Malformed cell lists (overlap, gaps, out-of-range vertices) raise; a
    well-formed but non-equitable partition just returns None.
    """
    return _equitable(_edge_list(g), _normalize_cells(g, cells))


def distance_partition(
    g: Graph, a: int, require_antipode: bool = False
) -> Optional[EquitablePartition]:
    """Partition of V by distance from a, if it is equitable.

    With require_antipode, the farthest cell must be a single vertex.
    Raises NotConnectedError when some vertex is unreachable from a. The
    partition from the last source asked (or None) is kept on g, so a second
    call from a, such as the one collapse_fidelity_check makes, runs no
    second search.
    """
    g.check_vertex(a)
    part = g._keep(("distance partition", a), lambda: _distance_partition(g, a))
    if part is None or (require_antipode and len(part.cells[-1]) != 1):
        return None
    return part


def _distance_partition(g: Graph, a: int) -> Optional[EquitablePartition]:
    dist = distances_from(g, a)
    if np.any(np.isinf(dist)):
        raise NotConnectedError("distance partition needs a connected graph")
    cells = [np.flatnonzero(dist == r).tolist() for r in range(int(np.max(dist)) + 1)]
    part = is_equitable(g, cells)
    if part is not None:
        part.degrees.setflags(write=False)  # kept on g, handed to every caller
    return part


def coarsest_equitable_refinement(
    g: Graph, initial_cells: Sequence[Sequence[int]]
) -> EquitablePartition:
    """Coarsest equitable refinement of the input, cells ordered by smallest
    contained vertex. Each round splits all cells at once by their vertices'
    cell sums rounded to SIGNATURE_DECIMALS, until a round splits nothing or
    every cell is a singleton; the result must then pass is_equitable under
    _equitable_tol."""
    edges, label = _edge_list(g), _labels(_normalize_cells(g, initial_cells))
    n = g.n
    while label.max() + 1 < n:  # singletons cannot split
        sums = _cell_sums(edges, label)
        np.round(sums, SIGNATURE_DECIMALS, out=sums)
        keys = np.vstack([sums.T[::-1], label])  # np.lexsort sorts by its last row first
        order = np.lexsort(keys)
        keys = keys[:, order]
        new_cell = np.any(keys[:, 1:] != keys[:, :-1], axis=0)  # vertices with equal keys share a cell
        split = np.empty(n, dtype=np.intp)
        split[order] = np.cumsum(np.concatenate(([False], new_cell)))
        if split.max() == label.max():  # no cell split
            break
        label = split
    order = np.argsort(label, kind="stable")  # cell by cell, each cell ascending
    cells = np.split(order, np.flatnonzero(np.diff(label[order])) + 1)
    cells.sort(key=lambda c: c[0])  # c[0] is its smallest vertex
    part = _equitable(edges, tuple(tuple(c.tolist()) for c in cells))
    if part is None:  # pragma: no cover - refinement fixpoint is equitable
        raise NotEquitableError("refinement failed to reach an equitable partition")
    return part


def quotient_symmetrized(g: Graph, partition: EquitablePartition) -> QuotientGraph:
    """Weighted quotient graph with B[j,k] = sign(d[j,k]) sqrt(d[j,k]*d[k,j])
    and B[j,j] = d[j,j]: the signs keep negative weights negative, so B's
    spectrum stays part of the graph's."""
    check = is_equitable(g, partition.cells)
    if check is None:
        raise NotEquitableError("partition is not equitable on this graph")
    return _quotient(check)


def _quotient(part: EquitablePartition) -> QuotientGraph:
    """quotient_symmetrized of a partition whose degrees were checked on the graph."""
    d = part.degrees
    # |C_j| d[j,k] = |C_k| d[k,j], so d and d.T agree in sign up to the
    # equitability tolerance; d + d.T keeps B exactly symmetric where
    # rounding leaves a near-zero pair of opposite signs
    b = np.sign(d + d.T) * np.sqrt(np.abs(d * d.T))
    np.fill_diagonal(b, np.diag(d))
    return QuotientGraph(Graph(b), tuple(_labels(part.cells).tolist()))


def _collapse(
    g: Graph, a: int, b: int, t_grid: Sequence[float]
) -> Tuple[EquitablePartition, QuotientGraph, float]:
    """The distance partition from a, its symmetrized quotient, and the
    deviation that collapse_fidelity_check returns."""
    g.check_vertex(a)
    g.check_vertex(b)
    part = distance_partition(g, a, require_antipode=True)
    if part is None:
        raise NotEquitableError(
            "distance partition from the source is not equitable with a "
            "singleton antipode"
        )
    if part.cells[-1] != (b,):
        raise NotEquitableError(
            f"vertex {b} is not the antipodal cell of the distance partition"
        )
    ts = np.asarray(list(t_grid), dtype=float)
    if ts.size == 0 or not np.all(np.isfinite(ts)):
        raise InvalidArgumentError("t_grid must hold at least one time, all finite")
    quot = _quotient(part)
    f_full = np.abs(_pair(g, a, b).amplitude(ts))
    f_quot = np.abs(fidelity(_decomposition(quot.graph), 0, part.m - 1, ts))
    return part, quot, float(np.max(np.abs(f_full - f_quot)))


def collapse_fidelity_check(g: Graph, a: int, b: int, t_grid: Sequence[float]) -> float:
    """Max over the grid of | |F_G(a->b)| - |F_quotient| |.

    Requires the distance partition from a to be equitable with b as its
    singleton antipodal cell (NotEquitableError otherwise) and a non-empty
    grid of finite times (InvalidArgumentError otherwise). |F_G| comes from
    the walk on the graph itself, on large graphs the Ritz pairs of a
    Lanczos reduction from e_a and e_b (see spectral._walk), never from the
    quotient or any other partition.
    """
    return _collapse(g, a, b, t_grid)[2]


def format_cells(partition: EquitablePartition) -> str:
    lines = [
        f"cell {j}: " + " ".join(str(v) for v in cell)
        for j, cell in enumerate(partition.cells)
    ]
    return "\n".join(lines) + "\n"
