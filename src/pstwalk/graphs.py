"""Weighted undirected graphs with optional self-loops.

A graph is a real symmetric adjacency matrix; the diagonal holds self-loop
weights.  All builders return immutable `Graph` objects, and adjacency
symmetry is exact (bitwise equal entries), never merely approximate.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    GraphFormatError,
    InvalidArgumentError,
    InvalidSizeError,
    SelfLoopError,
    UnsupportedGraphError,
)

__all__ = [
    "Graph",
    "complete",
    "empty_graph",
    "path_graph",
    "cycle",
    "circulant",
    "hypercube",
    "complement",
    "join",
    "scale",
    "regular_degree",
    "distance_matrix",
    "distances_from",
    "is_connected",
    "parse_graph",
    "serialize_graph",
]


_SYMMETRY_BLOCK = 64  # rows per block of the symmetry check


def _check_vertex(v: int, n: int) -> int:
    """v as an int if it is an integer (operator.index: a Python or numpy
    integer, not a float or a string) and a vertex 0..n-1, else
    InvalidArgumentError: the rule of every vertex, of a graph or of its
    eigenpairs."""
    try:
        v = operator.index(v)
    except TypeError:
        raise InvalidArgumentError(f"vertex {v!r} is not an integer") from None
    if not 0 <= v < n:
        raise InvalidArgumentError(f"vertex {v} out of range [0, {n})")
    return v


class Graph:
    """Immutable weighted graph on vertices 0..n-1.

    adj is a read-only row-major (C order) copy of the adjacency given, in
    whatever layout it came. The builders of this package hand the fresh
    arrays they make over through _own, which checks them by the same rules
    and copies nothing; an all-singleton equitable refinement takes adj
    itself as its degree matrix where adj holds no -0.0. Equality compares
    adjacency matrices exactly (labels are cosmetic).
    What _keep keeps, derived from the graph, sits in one private slot
    outside equality, hashing, repr and serialization.
    """

    __slots__ = ("adj", "labels", "_kept")

    def __init__(self, adj, labels: Optional[Sequence[str]] = None):
        self._hold(np.array(adj, dtype=float, order="C"), labels)

    def _hold(self, a: np.ndarray, labels: Optional[Sequence[str]]) -> None:
        """Take a, a float array no one else writes to, as the adjacency:
        square, at least one vertex, finite and exactly symmetric, else the
        error naming what fails; then read-only."""
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidArgumentError("adjacency must be a square matrix")
        if a.shape[0] < 1:
            raise InvalidSizeError("graphs need at least one vertex")
        if not np.all(np.isfinite(a)):
            raise InvalidArgumentError("adjacency entries must be finite")
        # row blocks of the upper triangle against their mirrored column
        # blocks: no n x n temporary, and == reads -0.0 as 0.0 as before
        for i in range(0, a.shape[0], _SYMMETRY_BLOCK):
            if not np.array_equal(a[i:i + _SYMMETRY_BLOCK, i:], a[i:, i:i + _SYMMETRY_BLOCK].T):
                raise InvalidArgumentError("adjacency must be exactly symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "adj", a)
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != a.shape[0]:
                raise InvalidArgumentError("label count must match vertex count")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_kept", {})

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__; what was kept is dropped
        return (Graph, (self.adj, self.labels))

    def _keep(self, key, build):
        """The value kept under key, else build()'s, kept under key once
        build returns. A key is a tuple (name, *args), and one value is kept
        per name: a new key replaces the value kept under its name. A key of
        None keeps nothing. A build that raises keeps nothing, and what it
        kept through nested calls is dropped again."""
        kept = self._kept  # never changed in place: a new dict replaces it
        if key in kept:
            return kept[key]
        try:
            value = build()
        except BaseException:
            object.__setattr__(self, "_kept", kept)
            raise
        if key is not None:
            now = {k: v for k, v in self._kept.items() if k[0] != key[0]} | {key: value}
            object.__setattr__(self, "_kept", now)
        return value

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    def weight(self, u: int, v: int) -> float:
        return float(self.adj[u, v])

    def degrees(self) -> np.ndarray:
        """Weighted degrees: row sums (a loop contributes its weight once)."""
        return self.adj.sum(axis=1)

    def is_unweighted(self) -> bool:
        return bool(np.all((self.adj == 0.0) | (self.adj == 1.0)))

    def has_loops(self) -> bool:
        return bool(np.any(np.diag(self.adj) != 0.0))

    def check_vertex(self, v: int) -> int:
        return _check_vertex(v, self.n)

    def relabelled(self, labels: Optional[Sequence[str]]) -> "Graph":
        return Graph(self.adj, labels)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adj.shape == other.adj.shape and np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash((self.n, (self.adj + 0.0).tobytes()))  # + 0.0 maps -0.0 to 0.0, as == does

    def __repr__(self):
        kind = "weighted" if not self.is_unweighted() else "unweighted"
        return f"Graph(n={self.n}, {kind}, edges={int(np.count_nonzero(np.triu(self.adj)))})"


def _own(a: np.ndarray, labels: Optional[Sequence[str]] = None) -> Graph:
    """Graph(a, labels) on a itself, not a copy: the rule by which a builder
    hands over the fresh row-major float array it made. Checked as Graph
    checks its copy, and read-only from then on."""
    g = object.__new__(Graph)
    g._hold(a, labels)
    return g


class _EdgeList(NamedTuple):
    """The nonzero entries of an adjacency matrix in row-major order: weight
    w[i] at (u[i], v[i]), each edge listed from both ends, a loop once; tol
    is the equitability tolerance, 1e-10 relative to the largest |weight|."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    tol: float


def _edge_list(g: Graph) -> _EdgeList:
    """g's edge list, extracted on first use and kept on g (Graph._keep) for
    the reads where O(nnz) beats a dense pass: cell sums, the row-0 test,
    max|w| and ||A||_F^2. The extraction holds one n x n boolean mask and
    O(nnz) besides, as g.adj is row-major and its ravel a view."""
    def extract() -> _EdgeList:
        flat = np.flatnonzero(g.adj != 0.0)
        u = flat // g.n
        v = flat - u * g.n  # flat % g.n: one product and one difference cost less than np.divmod
        w = g.adj.ravel()[flat]
        return _EdgeList(g.n, u, v, w, 1e-10 * (1.0 + float(np.max(np.abs(w), initial=0.0))))
    return g._keep(("edges",), extract)


def _row0_determines(g: Graph, index: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> bool:
    """A[u, v] == A[0, index(u, v)] exactly for all u, v, for an index that
    permutes each row's columns (u ^ v, (v - u) mod n), in O(nnz): each
    listed entry must equal its row-0 entry, which maps each row's nonzeros
    one to one into row 0's, and the list must hold n nnz(row 0) entries,
    which makes every map onto (-0.0 reads as zero on both sides)."""
    row, edges = g.adj[0], _edge_list(g)
    return bool(edges.w.size == g.n * np.count_nonzero(row) and np.array_equal(row[index(edges.u, edges.v)], edges.w))


# ---------------------------------------------------------------------------
# constructors


def _layered(blocks, links) -> np.ndarray:
    """The symmetric block matrix with the square `blocks` on its diagonal in
    order. links[(i, j)], i < j, is a scalar or a matrix set between blocks i
    and j, and its transpose mirrors it between j and i; unlinked blocks get
    zeros. Every block-structured builder lays out its adjacency here."""
    ends = np.cumsum([len(block) for block in blocks])
    spans = [slice(end - len(block), end) for block, end in zip(blocks, ends)]
    a = np.zeros((ends[-1], ends[-1]))
    for span, block in zip(spans, blocks):
        a[span, span] = block
    for (i, j), link in links.items():
        a[spans[i], spans[j]] = link
        a[spans[j], spans[i]] = np.transpose(link)
    return a


def complete(n: int) -> Graph:
    """K_n: all distinct vertex pairs adjacent with weight 1."""
    if n < 1:
        raise InvalidSizeError("complete(n) needs n >= 1")
    a = np.ones((n, n))
    np.fill_diagonal(a, 0.0)
    return _own(a)


def empty_graph(n: int) -> Graph:
    """K̄_n: n isolated vertices."""
    if n < 1:
        raise InvalidSizeError("empty_graph(n) needs n >= 1")
    return _own(np.zeros((n, n)))


def path_graph(weights: Sequence[float], loops=None) -> Graph:
    """Path on len(weights)+1 vertices with given edge weights and loops.

    `loops` may be None (no loops), a scalar applied to every vertex, or a
    sequence of per-vertex loop weights whose length must match.
    """
    w = [float(x) for x in weights]
    n = len(w) + 1
    if loops is None:
        lo = [0.0] * n
    elif np.isscalar(loops):
        lo = [float(loops)] * n
    else:
        lo = [float(x) for x in loops]
        if len(lo) != n:
            raise InvalidArgumentError(
                f"got {len(w)} edge weights (path on {n} vertices) but {len(lo)} loop weights"
            )
    links = {(i, i + 1): x for i, x in enumerate(w)}
    return _own(_layered([[[x]] for x in lo], links))


def cycle(n: int) -> Graph:
    """C_n for n >= 3."""
    if n < 3:
        raise InvalidSizeError("cycle(n) needs n >= 3")
    return circulant(n, [1])


def circulant(n: int, jumps: Iterable[int]) -> Graph:
    """Circ(n, S): j ~ k iff (k - j) mod n lies in S ∪ (n - S).

    The connection set must avoid 0 (no loops) and stay below n.
    """
    if n < 1:
        raise InvalidSizeError("circulant(n, S) needs n >= 1")
    a = np.zeros((n, n))
    j = np.arange(n)
    for s in jumps:
        s = int(s)
        if s == 0:
            raise SelfLoopError("connection set must not contain 0 (self-loop)")
        if s < 0 or s >= n:
            raise InvalidArgumentError(f"connection {s} outside 1..{n - 1}")
        k = (j + s) % n
        a[j, k] = a[k, j] = 1.0
    return _own(a)


def hypercube(d: int) -> Graph:
    """Q_d: binary strings of length d, edges at Hamming distance one."""
    if d < 1:
        raise InvalidSizeError("hypercube(d) needs d >= 1")
    m = 1 << d
    a = np.zeros((m, m))
    rows = np.arange(m)[:, None]
    a[rows, rows ^ (1 << np.arange(d))] = 1.0
    # bit d-1-k of each vertex in column k, as ASCII '0'/'1': one d-byte string a row
    bits = (rows >> np.arange(d - 1, -1, -1)) & 1
    labels = (bits.astype(np.uint8) + ord("0")).view(f"S{d}").ravel().astype(f"U{d}")
    return _own(a, labels.tolist())


def complement(g: Graph) -> Graph:
    """Complement of an unweighted loop-free graph."""
    if not g.is_unweighted() or g.has_loops():
        raise UnsupportedGraphError("complement is defined for unweighted loop-free graphs")
    a = 1.0 - g.adj
    np.fill_diagonal(a, 0.0)
    return _own(a)


def join(g: Graph, h: Graph) -> Graph:
    """Join: disjoint union of g and h plus all edges between the parts.

    Vertices of g come first.
    """
    labels = None
    if g.labels is not None and h.labels is not None:
        labels = list(g.labels) + list(h.labels)
    return _own(_layered([g.adj, h.adj], {(0, 1): 1.0}), labels)


def scale(g: Graph, c: float) -> Graph:
    """Multiply every weight (edges and loops) by a finite c."""
    c = float(c)
    if not np.isfinite(c):
        raise InvalidArgumentError("scale factor must be finite")
    with np.errstate(over="ignore"):  # Graph reports an overflow as non-finite
        adj = g.adj * c
    return _own(adj, g.labels)


# ---------------------------------------------------------------------------
# queries


def regular_degree(g: Graph) -> Optional[float]:
    """The common weighted degree if g is regular, else None."""
    d = g.degrees()
    tol = 1e-12 * g.n * (1.0 + float(np.max(np.abs(g.adj))))
    if np.max(d) - np.min(d) <= tol:
        return float(d[0])
    return None


def distances_from(g: Graph, source: int) -> np.ndarray:
    """Hop-count distances from one vertex along nonzero edges, by
    breadth-first search; loops ignored. Unreachable vertices get +inf."""
    g.check_vertex(source)
    linked = g.adj != 0.0
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    frontier = dist == 0.0
    hops = 0.0
    while frontier.any():
        hops += 1.0
        frontier = linked[frontier].any(axis=0) & np.isinf(dist)
        dist[frontier] = hops
    return dist


def distance_matrix(g: Graph) -> np.ndarray:
    """Hop-count distances along nonzero edges; loops ignored.

    Unreachable pairs get +inf.
    """
    return np.array([distances_from(g, s) for s in range(g.n)])


def is_connected(g: Graph) -> bool:
    return bool(np.all(np.isfinite(distances_from(g, 0))))


# ---------------------------------------------------------------------------
# serialization
#
# Text format, line oriented:
#   pstgraph 1
#   n <count>
#   label <i> <string>          (optional; the string runs to the end of the line)
#   edge <u> <v> <weight>       (u <= v; u == v is a self-loop)
# Weights are printed with 17 significant digits so round-trips are exact.

FORMAT_HEADER = "pstgraph 1"


def serialize_graph(g: Graph) -> str:
    """The text format above. Raises InvalidArgumentError for a label that
    would not parse back to itself: empty, with leading or trailing
    whitespace, or holding a line break."""
    lines = [FORMAT_HEADER, f"n {g.n}"]
    if g.labels is not None:
        for i, s in enumerate(g.labels):
            if s.strip().splitlines() != [s]:
                raise InvalidArgumentError(
                    f"label {i} {s!r} would not read back: labels are one non-empty "
                    "line without leading or trailing whitespace"
                )
            lines.append(f"label {i} {s}")
    rows, cols = np.nonzero(np.triu(g.adj))
    for u, v, w in zip(rows.tolist(), cols.tolist(), g.adj[rows, cols].tolist()):
        lines.append(f"edge {u} {v} {w:.17g}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = text.splitlines()
    body = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    body = [(no, ln) for no, ln in body if ln and not ln.startswith("#")]
    if not body or body[0][1] != FORMAT_HEADER:
        raise GraphFormatError(f"missing '{FORMAT_HEADER}' header line")
    if len(body) < 2 or not body[1][1].startswith("n "):
        raise GraphFormatError("second line must be 'n <count>'")
    try:
        n = int(body[1][1].split()[1])
    except (IndexError, ValueError):
        raise GraphFormatError("second line must be 'n <count>'")
    if n < 1:
        raise GraphFormatError("vertex count must be >= 1")
    a = np.zeros((n, n))
    labels: dict[int, str] = {}
    seen: dict[tuple[int, int], float] = {}
    for no, ln in body[2:]:
        parts = ln.split(maxsplit=2)
        if parts[0] == "label":
            if len(parts) != 3:
                raise GraphFormatError(f"line {no}: label lines are 'label <i> <string>'")
            try:
                i = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {no}: bad label index")
            if not 0 <= i < n:
                raise GraphFormatError(f"line {no}: label index {i} out of range")
            labels[i] = parts[2]
        elif parts[0] == "edge":
            fields = ln.split()
            if len(fields) != 4:
                raise GraphFormatError(f"line {no}: edge lines are 'edge <u> <v> <weight>'")
            try:
                u, v, w = int(fields[1]), int(fields[2]), float(fields[3])
            except ValueError:
                raise GraphFormatError(f"line {no}: bad edge fields")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {no}: edge ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen and seen[key] != w:
                raise GraphFormatError(
                    f"line {no}: duplicate edge {key} with conflicting weight {w} (had {seen[key]})"
                )
            seen[key] = w
            a[u, v] = a[v, u] = w
        else:
            raise GraphFormatError(f"line {no}: unknown directive '{parts[0]}'")
    lab = None
    if labels:
        lab = [labels.get(i, str(i)) for i in range(n)]
    return _own(a, lab)
