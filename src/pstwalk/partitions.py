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

from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidArgumentError, NotConnectedError, NotEquitableError, NumericFailureError
from .graphs import Graph, _EdgeList, _edge_list, _own, distances_from
from .spectral import (ORTHO_TOL, RECON_TOL, SUPPORT_TOL, EigenDecomposition, PairSpectrum, _decomposition,
                       _support, eigendecompose, fidelity)

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

# The floor and the cap of the quotient route of pair questions (see _pair):
# below the floor the dense solve is cheaper, and the cap bounds the rounds.
QUOTIENT_MIN_N = 128
QUOTIENT_MAX_CELLS = 32


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


def _input_labels(g: Graph, cells: Iterable[Iterable[int]]) -> np.ndarray:
    """label[v]: the index of the input cell holding vertex v, each vertex
    read through int(), which must read it back equal to itself (3.0 is
    vertex 3; 0.7, 'a' and None are refused, the first in input order).
    Other malformed cells raise on their first fault, read cell by cell and
    each cell in ascending order (an empty cell, a vertex out of range, a
    vertex seen before), and only then on a gap."""
    given = [list(cell) for cell in cells]
    cells = None
    with suppress(TypeError, ValueError, OverflowError):
        cells = [list(map(int, cell)) for cell in given]
    if cells != given:  # one comparison in C; then the first entry at fault
        for v in chain.from_iterable(given):
            with suppress(TypeError, ValueError, OverflowError):
                if int(v) == v:
                    continue
            raise InvalidArgumentError(f"vertex {v!r} is not an integer")
    flat = list(chain.from_iterable(cells))
    n = g.n
    if len(flat) == n and all(cells) and min(flat) >= 0 and max(flat) < n:
        label = np.full(n, -1, dtype=np.intp)
        label[np.fromiter(flat, np.intp, n)] = np.repeat(np.arange(len(cells)), list(map(len, cells)))
        if label.min() >= 0:  # n vertices in range, none missed: none repeated
            return label
    seen: set = set()
    for cell in cells:
        if not cell:
            raise InvalidArgumentError("empty cell in partition")
        for v in sorted(cell):
            if v < 0 or v >= n:
                raise InvalidArgumentError(f"vertex {v} out of range")
            if v in seen:
                raise InvalidArgumentError(f"vertex {v} appears in two cells")
            seen.add(v)
    raise InvalidArgumentError("cells do not cover every vertex")


SIGNATURE_DECIMALS = 9  # refinement groups cell sums rounded to this many decimals


class _TooManyCells(Exception):
    """A capped refinement gave up: a round left more cells than its cap."""


def _cell_sums(edges: _EdgeList, label: np.ndarray) -> np.ndarray:
    """sums[u, k]: total weight from vertex u into cell k, where label[v] in
    0..m-1 is the cell of v; O(nnz + n*m)."""
    n, m = edges.n, int(label.max()) + 1
    sums = np.bincount(edges.u * m + label[edges.v], weights=edges.w, minlength=n * m)
    # bincount over no edges returns integer zeros
    return sums.astype(float, copy=False).reshape(n, m)


def _by_cell(label: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The vertices cell by cell, each cell ascending, and where each cell
    starts among them, for labels 0..m-1 that all occur."""
    sizes = np.bincount(label)
    return np.argsort(label, kind="stable"), np.cumsum(sizes) - sizes


def _equitable(edges: _EdgeList, label: np.ndarray) -> Optional[EquitablePartition]:
    """is_equitable on the labelling label[v] in 0..m-1, every label used:
    cell j holds the vertices labelled j, ascending. The rows of the cells'
    smallest vertices are the degree matrix, and every row is compared with
    its cell's. The cell tuples are built only for an equitable partition."""
    n = edges.n
    order, starts = _by_cell(label)
    m = starts.size
    sums = _cell_sums(edges, label)
    d = sums[order[starts]]
    if m < n:  # else every cell is a singleton
        sums -= d[label]
        if np.max(np.abs(sums, out=sums)) > edges.tol:
            return None
    flat, cuts = order.tolist(), [*starts.tolist(), n]
    return EquitablePartition(tuple(tuple(flat[i:j]) for i, j in zip(cuts, cuts[1:])), d)


def is_equitable(g: Graph, cells: Iterable[Iterable[int]]) -> Optional[EquitablePartition]:
    """Degree matrix of the partition if it is equitable, else None.

    Every vertex's cell sums must match those of the smallest vertex of its
    cell to within the equitability tolerance, 1e-10 (1 + max|weight|) (the
    tol of _edge_list); that vertex's sums form the degree matrix.
    Malformed cell lists (overlap, gaps, out-of-range vertices) raise; a
    well-formed but non-equitable partition just returns None.
    """
    return _equitable(_edge_list(g), _input_labels(g, cells))


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
    label, edges = dist.astype(np.intp), _edge_list(g)  # cell r: distance r
    # a vertex's sum into cell 0 is its weight to a, which can differ only
    # across cell 1, the neighbours of a: a spread there decides at once
    w = g.adj[a, label == 1]
    if w.size and np.max(np.abs(w - w[0])) > edges.tol:
        return None
    part = _equitable(edges, label)
    if part is not None:
        part.degrees.setflags(write=False)  # kept on g, handed to every caller
    return part


def coarsest_equitable_refinement(
    g: Graph, initial_cells: Iterable[Iterable[int]]
) -> EquitablePartition:
    """Coarsest equitable refinement of the input, cells ordered by smallest
    contained vertex. Each round splits all cells at once by their vertices'
    cell sums rounded to SIGNATURE_DECIMALS, until a round splits nothing or
    every cell is a singleton. Where that fixpoint fails is_equitable under
    its tolerance, 1e-10 (1 + max|weight|) (the tol of _edge_list), as sums
    that round alike but differ by more do, the rounds go on with the
    unrounded sums, whose fixpoint is equitable; kept on g, degrees read-only."""
    return _refinement(g, _input_labels(g, initial_cells), g.n)


def _refinement(g: Graph, label: np.ndarray, max_cells: int) -> EquitablePartition:
    """coarsest_equitable_refinement of the input labelling label, kept on g
    under it (Graph._keep). _TooManyCells, keeping nothing, where a round
    leaves more than max_cells cells."""
    def build() -> EquitablePartition:
        edges = _edge_list(g)
        part, fixed = _refine(g, edges, label, SIGNATURE_DECIMALS, max_cells)
        if part is None:
            part, _ = _refine(g, edges, fixed, None, max_cells)
        part.degrees.setflags(write=False)  # kept on g, handed to every caller
        return part

    return g._keep(("refinement", label.tobytes()), build)


def _refine(
    g: Graph, edges: _EdgeList, label: np.ndarray, decimals: Optional[int], max_cells: int
) -> Tuple[Optional[EquitablePartition], np.ndarray]:
    """The rounds of coarsest_equitable_refinement from label, on cell sums
    rounded to decimals (unrounded where None): the fixpoint's partition if
    it is equitable, else None, and its labels by smallest vertex.
    _TooManyCells where a round leaves more than max_cells cells."""
    n, m = g.n, int(label.max()) + 1
    while m < n:  # singletons cannot split
        # one row per vertex: its label, then its cell sums plus 0.0, which
        # turns -0.0 into 0.0; vertices whose rows match byte for byte share
        # a cell, and one sort of the rows as byte strings brings them together
        rows = np.empty((n, m + 1))
        rows[:, 0] = label
        sums = _cell_sums(edges, label)
        if decimals is not None:
            np.round(sums, decimals, out=sums)
        np.add(sums, 0.0, out=rows[:, 1:])
        order = np.argsort(rows.view(np.dtype((np.void, rows.itemsize * (m + 1)))).ravel())
        bits = rows.view(np.int64)[order]
        new_cell = np.zeros(n, dtype=bool)
        np.any(bits[1:] != bits[:-1], axis=1, out=new_cell[1:])
        split = np.cumsum(new_cell)
        if split[-1] + 1 == m:  # no cell split
            break
        label, m = np.empty_like(split), int(split[-1]) + 1
        if m > max_cells:
            raise _TooManyCells
        label[order] = split
    if m == n:
        # every cell a singleton, so equitable: the degree matrix is the
        # adjacency, with -0.0 read as 0.0 as the cell sums read it: the
        # read-only adjacency itself unless it has more sign bits set than
        # its listed (nonzero) entries, that is unless it holds a -0.0
        label, adj = np.arange(n), g.adj
        if np.count_nonzero(np.signbit(adj)) > np.count_nonzero(np.signbit(edges.w)):
            adj = adj + 0.0
        return EquitablePartition(tuple(zip(label.tolist())), adj), label
    order, starts = _by_cell(label)
    label = np.argsort(np.argsort(order[starts]))[label]  # cells by smallest vertex
    return _equitable(edges, label), label


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
    cell_map = np.repeat(np.arange(part.m), [len(c) for c in part.cells])  # cell by cell
    return QuotientGraph(_own(b), tuple(cell_map[np.argsort(np.concatenate(part.cells))].tolist()))


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
    # an array of one or more dimensions as it is; anything else through list(),
    # which refuses a scalar or 0-d array
    ts = np.asarray(t_grid if isinstance(t_grid, np.ndarray) and t_grid.ndim else list(t_grid), dtype=float)
    if ts.size == 0 or not np.all(np.isfinite(ts)):
        raise InvalidArgumentError("t_grid must hold at least one time, all finite")
    quot = _quotient(part)
    f_full = np.abs(fidelity(_pair(g, a, b), a, b, ts))
    f_quot = np.abs(fidelity(eigendecompose(quot.graph), 0, part.m - 1, ts))
    return part, quot, float(np.max(np.abs(f_full - f_quot)))


def collapse_fidelity_check(g: Graph, a: int, b: int, t_grid: Sequence[float]) -> float:
    """Max over the grid of | |F_G(a->b)| - |F_quotient| |.

    Requires the distance partition from a to be equitable with b as its
    singleton antipodal cell (NotEquitableError otherwise) and a non-empty
    grid of finite times (InvalidArgumentError otherwise). |F_G| comes from
    the pair's eigenpairs (see _pair). On the quotient route, where the
    refinement of {a}, {b}, rest is this distance partition, they lift the
    same quotient, so the deviation reads 0; the evidence there is the
    lift's residual A V - V Theta against A itself, checked in _lifted.
    """
    return _collapse(g, a, b, t_grid)[2]


def _pair(g: Graph, a: int, b: int) -> EigenDecomposition:
    """Checked eigenpairs dec that carry the walk from a and from b of g
    (fidelity(dec, a, c, t) is <c| exp(-itA) |a> for every vertex c, and
    likewise from b): on a graph of at least QUOTIENT_MIN_N vertices, at
    most QUOTIENT_MAX_CELLS distinct degrees and no negative weight, those
    of A on the cell space W of the kept refinement of {a}, {b}, rest
    (_lifted) where it has at most QUOTIENT_MAX_CELLS cells, else the
    graph's checked decomposition. Built here, the refinement gives up at
    the cap, and a kept one past it goes dense too, so the route depends
    only on the graph and the pair. With no negative weight, W holds the
    all-ones vector, which a nonnegative Perron vector meets, so the top
    |eigenvalue| of the lift is the graph's and so is its grouping
    tolerance (_spectrum). g keeps its last pair, so one reduction serves
    every question on it."""
    a, b = g.check_vertex(a), g.check_vertex(b)

    def walk() -> EigenDecomposition:
        # more distinct degrees than the cap mean more cells (a random graph has about n)
        if (g.n >= QUOTIENT_MIN_N and np.unique(np.round(g.degrees(), 9)).size <= QUOTIENT_MAX_CELLS
                and not np.any(_edge_list(g).w < 0.0)):
            ends = [a] if a == b else [a, b]  # the labelling of [[a], [b], rest]
            label = np.full(g.n, len(ends), dtype=np.intp)
            label[ends] = np.arange(len(ends))
            with suppress(_TooManyCells):
                part = _refinement(g, label, QUOTIENT_MAX_CELLS)
                if part.m <= QUOTIENT_MAX_CELLS:
                    return _lifted(g, part)
        return _decomposition(g)

    return g._keep(("pair", a, b), walk)


def _lifted(g: Graph, part: EquitablePartition) -> EigenDecomposition:
    """The eigenpairs of A on the cell space of the equitable partition
    part: the checked eigenpairs (Theta, S) of its symmetrized quotient,
    lifted to the rows V[v] = S[j] / sqrt(|C_j|), v in cell j. The residual
    A V - V Theta, by one dense product (at these sizes and densities it
    beats a sum over the edge list), and V^T V - I are checked."""
    quot = _quotient(part)
    dec = eigendecompose(quot.graph)
    cell = np.array(quot.cell_map)
    v = dec.vectors[cell] / np.sqrt(np.bincount(cell))[cell, None]
    amax = max(1.0, float(np.max(np.abs(_edge_list(g).w), initial=0.0)))
    if not np.max(np.abs(g.adj @ v - v * dec.values)) <= RECON_TOL * g.n * amax:
        raise NumericFailureError("lifted quotient residual out of tolerance")
    if not np.max(np.abs(v.T @ v - np.eye(part.m))) <= ORTHO_TOL * g.n:
        raise NumericFailureError("lifted quotient orthonormality out of tolerance")
    v.setflags(write=False)
    return EigenDecomposition(dec.values, v)


def _spectrum(g: Graph, a: int, b: int, tol: float = SUPPORT_TOL) -> Tuple[PairSpectrum, float]:
    """The PairSpectrum at tol of the pair (a, b) of g on the clusters of
    _pair's eigenvalues, and their grouping tolerance: the graph's own on
    the dense route; on the quotient route the lift's, so support indexes
    the pair's clusters and AmbiguousDegeneracyError concerns only
    eigenvalues of the cell space. The spectral projectors map e_a and e_b
    into that space, so the support, weights and signs are the graph's,
    and the grouping tolerance is too (see _pair). g keeps the SUPPORT_TOL
    spectrum of the last pair asked; as a failed build keeps nothing, a new
    walk is kept only once its spectrum passed _support."""
    a, b = g.check_vertex(a), g.check_vertex(b)
    return g._keep(("pair spectrum", a, b) if tol == SUPPORT_TOL else None,
                   lambda: _support(_pair(g, a, b), a, b, tol))


def format_cells(partition: EquitablePartition) -> str:
    lines = [
        f"cell {j}: " + " ".join(str(v) for v in cell)
        for j, cell in enumerate(partition.cells)
    ]
    return "\n".join(lines) + "\n"
