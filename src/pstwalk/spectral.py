"""Symmetric eigendecomposition and continuous-time walk evaluation.

The walk on a graph with adjacency A is U(t) = exp(-itA); all evolution and
fidelity values are computed through the spectral resolution of A, never by
generic matrix exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    AmbiguousDegeneracyError,
    DegenerateEigenvalueError,
    InvalidArgumentError,
    NotConnectedError,
    NumericFailureError,
)
from .graphs import Graph, is_connected

__all__ = [
    "EigenDecomposition",
    "PairSpectrum",
    "SpectralProjectors",
    "eigendecompose",
    "evolve",
    "propagator",
    "fidelity",
    "spectral_projectors",
    "pair_spectrum",
    "spectrum",
    "is_integral",
    "perron_vector",
    "default_group_tol",
]

RECON_TOL = 1e-10
ORTHO_TOL = 1e-10
# Eigenvalue x time-step terms per temporary. At 1 << 17 the 2 MB temporaries
# went back to the OS and were page-faulted in again on every chunk.
SCAN_TERMS = 1 << 15
_STEP_BLOCK = 128  # time steps per block of inner phases on an even grid
# Pair questions and collapse checks on graphs of at least KRYLOV_MIN_N
# vertices are answered on the Krylov space of e_a and e_b where it closes
# within KRYLOV_MAX_DIM dimensions (see _walk); below the floor the dense
# solve is cheaper, and the cut-off bounds the Lanczos steps.
KRYLOV_MIN_N = 128
KRYLOV_MAX_DIM = 32


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending; vectors[:, k] belongs to values[k]."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SpectralProjectors:
    """Eigenspace projectors after clustering nearly equal eigenvalues."""

    values: Tuple[float, ...]          # one representative per cluster, descending
    projectors: Tuple[np.ndarray, ...]
    group_tol: float

    def __len__(self) -> int:
        return len(self.values)


def eigendecompose(g: Graph) -> EigenDecomposition:
    """Dense symmetric eigensolve, validated against the residual contract."""
    w, v = np.linalg.eigh(g.adj)
    if not np.all(np.isfinite(w)):
        raise NumericFailureError("eigenvalues overflowed to non-finite values")
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    n = g.n
    amax = max(1.0, float(np.max(np.abs(g.adj))))
    check = (v * w) @ v.T  # one n x n buffer for both checks
    check -= g.adj
    np.abs(check, out=check)
    if not np.max(check) <= RECON_TOL * n * amax:
        raise NumericFailureError("eigendecomposition residual out of tolerance")
    np.matmul(v.T, v, out=check)
    check.flat[:: n + 1] -= 1.0
    np.abs(check, out=check)
    if not np.max(check) <= ORTHO_TOL * max(1, n):
        raise NumericFailureError("eigenvector orthonormality out of tolerance")
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(w, v)


def _decomposition(g: Graph) -> EigenDecomposition:
    """The checked eigendecomposition of g, solved by eigendecompose on first
    use and kept on g for as long as g lives; a failed solve keeps nothing."""
    if g._spectrum is None:
        object.__setattr__(g, "_spectrum", eigendecompose(g))
    return g._spectrum


def _eigenvalues(g: Graph) -> np.ndarray:
    """The eigenvalues of g, descending, from a values-only solve kept on g
    like _decomposition's. They must be finite, and their sum and sum of
    squares must match tr A and ||A||_F^2."""
    if g._values is None:
        w = np.linalg.eigvalsh(g.adj)[::-1].copy()
        if not np.all(np.isfinite(w)):
            raise NumericFailureError("eigenvalues overflowed to non-finite values")
        fro2 = float(np.vdot(g.adj, g.adj))
        tol = RECON_TOL * g.n * max(1.0, fro2)
        if not (abs(float(np.sum(w)) - float(np.trace(g.adj))) <= tol
                and abs(float(np.dot(w, w)) - fro2) <= tol):
            raise NumericFailureError("eigenvalue trace identities out of tolerance")
        w.setflags(write=False)
        object.__setattr__(g, "_values", w)
    return g._values


def evolve(decomp: EigenDecomposition, t: float, src: int) -> np.ndarray:
    """State exp(-itA)|src> as a complex amplitude vector."""
    coeff = np.exp(-1j * t * decomp.values) * decomp.vectors[src, :]
    return decomp.vectors @ coeff


def propagator(decomp: EigenDecomposition, t: float) -> np.ndarray:
    """Full unitary exp(-itA)."""
    phase = np.exp(-1j * t * decomp.values)
    return (decomp.vectors * phase) @ decomp.vectors.T


def fidelity(decomp: EigenDecomposition, a: int, b: int, t) -> complex:
    """Transfer amplitude <b| exp(-itA) |a>.

    `t` may be a scalar (returns complex) or an array (returns a complex array).
    """
    w_ab = decomp.vectors[b, :] * decomp.vectors[a, :]
    if np.ndim(t) == 0:
        return complex(np.dot(w_ab, np.exp(-1j * float(t) * decomp.values)))
    return _amplitudes(w_ab, decomp.values, t)


def _amplitudes(weight, theta, times, absolute: bool = False):
    """sum_k weight[k] exp(-i theta[k] t) at each t of times (its absolute
    value if asked; a scalar for scalar times). An even grid t0 + jh of at
    least 2B points (B = _STEP_BLOCK; each t within 4 ulp of max|t|) goes by
    exp(-i theta (t_s + jh)) = exp(-i theta t_s) exp(-i theta jh): start
    phases times a k x B block of weighted inner phases, one matrix product,
    (m/B + B) k exponentials for m points, error <= c eps sum|weight|
    (1 + max|theta| max|t|) against direct exponentials, c small, eps the
    unit roundoff. Other grids take one exponential per term and time.
    Temporaries hold about max(SCAN_TERMS, B k) terms."""
    theta = np.asarray(theta, dtype=float)
    t = np.asarray(times, dtype=float).ravel()
    m, nb, even = t.size, _STEP_BLOCK, False
    out, emit = (np.empty(m), np.abs) if absolute else (np.empty(m, complex), np.positive)
    if m >= 2 * nb:
        h = (t[-1] - t[0]) / (m - 1)
        tol = 4.0 * np.spacing(max(abs(t[0]), abs(t[-1])))
        off = lambda s: np.arange(s, min(s + SCAN_TERMS, m)) * h + t[0] - t[s : s + SCAN_TERMS]
        even = all(np.max(np.abs(off(s))) <= tol for s in range(0, m, SCAN_TERMS))  # by chunks
    if not even:
        span = max(1, SCAN_TERMS // max(theta.size, 1))
        for s in range(0, m, span):
            emit(weight @ np.exp(-1j * np.outer(theta, t[s : s + span])), out=out[s : s + span])
        return out.reshape(np.shape(times))[()]
    inner = np.exp(-1j * np.outer(theta, h * np.arange(nb))) * np.reshape(weight, (-1, 1))
    span = nb * max(1, SCAN_TERMS // (theta.size + nb))  # time points per chunk
    for s in range(0, m, span):
        phase = np.outer(t[s : s + span : nb], -1j * theta)
        np.exp(phase, out=phase)
        emit((phase @ inner).ravel()[: m - s], out=out[s : s + span])
        del phase  # before the next block's phases are allocated
    return out.reshape(np.shape(times))[()]


def default_group_tol(decomp: EigenDecomposition) -> float:
    return _group_tol(decomp.values)


def _group_tol(values: np.ndarray) -> float:
    return 1e-8 * max(1.0, float(np.max(np.abs(values))))


def _clusters(w: np.ndarray, group_tol: Optional[float]):
    """Single-linkage clusters of the indices of the eigenvalues w (sorted
    descending), each cluster's mean eigenvalue, and the grouping tolerance
    used.

    A cluster whose diameter exceeds 10x the grouping tolerance is rejected:
    that means the tolerance sits inside a continuum of eigenvalues and any
    grouping would be arbitrary.
    """
    if group_tol is None:
        group_tol = _group_tol(w)
    if group_tol <= 0:
        raise InvalidArgumentError("group_tol must be positive")
    breaks = np.nonzero(w[:-1] - w[1:] > group_tol)[0] + 1
    groups = np.split(np.arange(len(w)), breaks)
    for idx in groups:
        diam = float(w[idx[0]] - w[idx[-1]])
        if diam > 10.0 * group_tol:
            raise AmbiguousDegeneracyError(
                f"eigenvalue cluster around {w[idx[0]]:.6g} has diameter {diam:.3g} "
                f"> 10*group_tol ({10 * group_tol:.3g})"
            )
    return groups, [float(np.mean(w[idx])) for idx in groups], group_tol


def spectral_projectors(decomp: EigenDecomposition, group_tol: Optional[float] = None) -> SpectralProjectors:
    """Cluster eigenvalues by single linkage and form one projector per cluster."""
    groups, reps, group_tol = _clusters(decomp.values, group_tol)
    projs = []
    for idx in groups:
        block = decomp.vectors[:, idx]
        p = block @ block.T
        p.setflags(write=False)
        projs.append(p)
    return SpectralProjectors(tuple(reps), tuple(projs), group_tol)


@dataclass(frozen=True)
class PairSpectrum:
    """Eigenvalue support of a vertex pair (a, b): the eigenvalue clusters r
    (as in spectral_projectors) with E_r e_a or E_r e_b nonzero.

    support holds their cluster indices, theta their eigenvalues and weight
    their (E_r)_{ab}, so <b| exp(-itA) |a> = sum weight * exp(-i theta t)
    up to the cluster diameters. Where every E_r e_a = +-E_r e_b (strong
    cospectrality), signs gives 0 for + and 1 for -; otherwise signs is None
    and broken_at is the eigenvalue of the first cluster that breaks it.
    """

    support: Tuple[int, ...]
    theta: Tuple[float, ...]
    weight: np.ndarray
    signs: Optional[Tuple[int, ...]]
    broken_at: Optional[float]


def pair_spectrum(decomp: EigenDecomposition, a: int, b: int, tol: float = 1e-8) -> PairSpectrum:
    """The PairSpectrum of (a, b) in O(n^2) time and memory: each E_r e_a is
    a sum of scaled eigenvector columns, never a dense projector. A vector
    with all entries within tol of zero counts as zero."""
    groups, reps, _ = _clusters(decomp.values, None)
    starts = [int(idx[0]) for idx in groups]
    return _pair_support(decomp.vectors, a, b, starts, range(len(groups)), reps, tol)


def _pair_support(v, a, b, starts, clusters, reps, tol) -> PairSpectrum:
    """The PairSpectrum of rows a, b of eigenvector columns v. The columns
    from starts[j] to starts[j + 1] belong to eigenvalue cluster clusters[j],
    of mean reps[clusters[j]]."""
    ea = np.add.reduceat(v * v[a, :], starts, axis=1)
    eb = np.add.reduceat(v * v[b, :], starts, axis=1)
    sup = np.nonzero((np.linalg.norm(ea, axis=0) > tol) | (np.linalg.norm(eb, axis=0) > tol))[0]
    ea, eb = ea[:, sup], eb[:, sup]
    plus = np.max(np.abs(ea - eb), axis=0, initial=0.0) <= tol
    minus = np.max(np.abs(ea + eb), axis=0, initial=0.0) <= tol
    support = tuple(int(clusters[j]) for j in sup)
    theta = tuple(reps[r] for r in support)
    broken = np.nonzero(~plus & ~minus)[0]
    signs = None if broken.size else tuple(0 if p else 1 for p in plus)
    weight = np.add.reduceat(v[a, :] * v[b, :], starts)[sup]
    broken_at = theta[broken[0]] if broken.size else None
    return PairSpectrum(support, theta, weight, signs, broken_at)


class _Pair(NamedTuple):
    """A vertex pair's question reduced: its PairSpectrum on the graph, and
    the checked eigenpairs dec of _walk that carry the walk between the
    pair; group_tol is the graph's clustering tolerance."""

    spectrum: PairSpectrum
    dec: EigenDecomposition
    a: int
    b: int
    group_tol: float

    def amplitude(self, t):
        """<b| exp(-itA) |a> of the graph; see fidelity."""
        return fidelity(self.dec, self.a, self.b, t)


def _pair(g: Graph, a: int, b: int, tol: float = 1e-8) -> _Pair:
    """The pair (a, b) of g, vertices checked, on the eigenpairs of
    _walk(g, a, b). Where those are Ritz pairs, the graph's own eigenvalues
    (_eigenvalues) give the clusters: each Ritz value must lie within the
    grouping tolerance of a graph eigenvalue and joins the cluster of the
    nearest one, so support, theta and group_tol are the graph's. The Ritz
    vectors have graph rows, so entry tolerances apply as on the dense
    route."""
    a, b = g.check_vertex(a), g.check_vertex(b)
    dec = _walk(g, a, b)
    if dec is g._spectrum:  # the dense route
        return _Pair(pair_spectrum(dec, a, b, tol), dec, a, b, default_group_tol(dec))
    values = _eigenvalues(g)
    groups, reps, group_tol = _clusters(values, None)
    # the nearest graph eigenvalue of each Ritz value; both descend, so the
    # clusters found run in order and each is one run of Ritz columns
    asc = values[::-1]
    i = np.clip(np.searchsorted(asc, dec.values), 1, g.n - 1)
    i -= dec.values - asc[i - 1] < asc[i] - dec.values
    nearest = g.n - 1 - i
    if not np.all(np.abs(values[nearest] - dec.values) <= group_tol):
        raise NumericFailureError("Ritz value is not an eigenvalue of the graph")
    cluster = np.repeat(np.arange(len(groups)), [len(idx) for idx in groups])[nearest]
    starts = np.flatnonzero(np.diff(cluster, prepend=-1))
    ps = _pair_support(dec.vectors, a, b, starts, cluster[starts], reps, tol)
    return _Pair(ps, dec, a, b, group_tol)


def _walk(g: Graph, a: int, b: int) -> EigenDecomposition:
    """Eigenpairs that carry the walk from a and from b: fidelity(dec, a, c, t)
    is <c| exp(-itA) |a> for every vertex c, and likewise from b. On a graph
    of at least KRYLOV_MIN_N vertices and at most KRYLOV_MAX_DIM distinct
    degrees, the Ritz pairs of A on the Krylov space K(e_a, e_b) where it
    closes within KRYLOV_MAX_DIM dimensions; otherwise the graph's checked
    decomposition."""
    walk = None
    if g.n >= KRYLOV_MIN_N:
        # more distinct degrees than the cut-off (a random graph has about n)
        # leave the pair to the dense solve without a Lanczos step
        deg = np.sort(np.round(g.degrees(), 9))
        if np.count_nonzero(deg[1:] != deg[:-1]) < KRYLOV_MAX_DIM:
            walk = _lanczos(g, (a, b), KRYLOV_MAX_DIM)
    return _decomposition(g) if walk is None else walk


def _lanczos(g: Graph, starts, max_dim: int) -> Optional[EigenDecomposition]:
    """Ritz pairs of A on the Krylov space of the unit vectors e_s, s in
    starts (one vertex or several; vectors n x k, values descending), by
    Lanczos with full reorthogonalisation. Where the space of one start
    closes, the next start vector, orthogonalised against the basis, carries
    on; one already in the span adds nothing. None where no invariant space
    of at most max_dim dimensions is reached. The Ritz residual
    A Q S - Q S Theta and Q^T Q - I are checked, each in O(n k^2)."""
    n = g.n
    amax = max(1.0, float(g.adj.max()), float(-g.adj.min()))
    q = np.zeros((n, max_dim))
    aq = np.zeros((n, max_dim))  # A q_j, kept for the residual check
    k = 0
    for v in np.atleast_1d(starts):
        r, scale = np.zeros(n), 1.0  # a start vector has norm 1, A q_j up to amax
        r[v] = 1.0
        while True:
            for _ in range(2):  # Gram-Schmidt twice keeps q orthonormal to rounding
                r -= q[:, :k] @ (q[:, :k].T @ r)
            beta = float(np.linalg.norm(r))
            if beta <= RECON_TOL * scale:
                break
            if k == max_dim:
                return None
            q[:, k] = r / beta
            aq[:, k] = g.adj @ q[:, k]
            r, scale, k = aq[:, k].copy(), amax, k + 1
    q, aq = q[:, :k], aq[:, :k]
    t = q.T @ aq
    theta, s = np.linalg.eigh(0.5 * (t + t.T))
    theta, s = theta[::-1].copy(), s[:, ::-1]
    ritz = q @ s
    if not np.max(np.abs(aq @ s - ritz * theta)) <= RECON_TOL * n * amax:
        raise NumericFailureError("Lanczos Ritz residual out of tolerance")
    ortho = q.T @ q
    ortho.flat[:: k + 1] -= 1.0
    if not np.max(np.abs(ortho)) <= ORTHO_TOL * n:
        raise NumericFailureError("Lanczos basis orthonormality out of tolerance")
    theta.setflags(write=False)
    ritz.setflags(write=False)
    return EigenDecomposition(theta, ritz)


def spectrum(g: Graph) -> np.ndarray:
    """Eigenvalues of the adjacency matrix, sorted descending."""
    return _decomposition(g).values


def is_integral(g: Graph, tol: float = 1e-8) -> bool:
    w = spectrum(g)
    return bool(np.all(np.abs(w - np.round(w)) <= tol))


def perron_vector(g: Graph) -> Tuple[float, np.ndarray]:
    """Top eigenvalue and its positive unit eigenvector.

    Requires a connected graph with nonnegative weights and a numerically
    simple top eigenvalue.
    """
    if np.any(g.adj < 0):
        raise InvalidArgumentError("perron_vector needs nonnegative weights")
    if not is_connected(g):
        raise NotConnectedError("perron_vector needs a connected graph")
    decomp = _decomposition(g)
    lam0 = float(decomp.values[0])
    if g.n > 1 and decomp.values[0] - decomp.values[1] <= 1e-10:
        raise DegenerateEigenvalueError("top eigenvalue is not numerically simple")
    x0 = decomp.vectors[:, 0].copy()
    k = int(np.argmax(np.abs(x0)))
    if x0[k] < 0:
        x0 = -x0
    return lam0, x0
