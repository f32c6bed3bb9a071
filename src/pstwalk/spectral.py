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
# Entry tolerance of the pair spectrum that certificates and scans read; a
# graph's kept pair always keeps this one beside at most one other (_pair).
SUPPORT_TOL = 1e-8


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
    """Transfer amplitude <b| exp(-itA) |a> by _amplitudes: a numpy complex
    (a subclass of complex) for a scalar t, a complex array for an array t."""
    return _amplitudes(decomp.vectors[b, :] * decomp.vectors[a, :], decomp.values, t)


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
    times = np.asarray(times, dtype=float)
    t = times.ravel()
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
            emit(weight @ np.exp(-1j * (theta[:, None] * t[s : s + span])), out=out[s : s + span])
        return out.reshape(times.shape)[()]
    inner = np.exp(-1j * np.outer(theta, h * np.arange(nb))) * np.reshape(weight, (-1, 1))
    span = nb * max(1, SCAN_TERMS // (theta.size + nb))  # time points per chunk
    for s in range(0, m, span):
        phase = np.outer(t[s : s + span : nb], -1j * theta)
        np.exp(phase, out=phase)
        emit((phase @ inner).ravel()[: m - s], out=out[s : s + span])
        del phase  # before the next block's phases are allocated
    return out.reshape(times.shape)[()]


def default_group_tol(decomp: EigenDecomposition) -> float:
    return _group_tol(decomp.values)


def _group_tol(values: np.ndarray) -> float:
    return 1e-8 * max(1.0, float(np.max(np.abs(values))))


def _clusters(w: np.ndarray, group_tol: Optional[float]):
    """Single-linkage clusters of the eigenvalues w (sorted descending) as
    bounds, an index array whose entries j and j + 1 delimit cluster j (so
    bounds[0] = 0 and bounds[-1] = len(w)); each cluster's mean eigenvalue;
    and the grouping tolerance used.

    A cluster whose diameter exceeds 10x the grouping tolerance is rejected:
    that means the tolerance sits inside a continuum of eigenvalues and any
    grouping would be arbitrary.
    """
    if group_tol is None:
        group_tol = _group_tol(w)
    if group_tol <= 0:
        raise InvalidArgumentError("group_tol must be positive")
    bounds = np.flatnonzero(np.concatenate(([True], w[:-1] - w[1:] > group_tol, [True])))
    diam = w[bounds[:-1]] - w[bounds[1:] - 1]
    wide = np.flatnonzero(diam > 10.0 * group_tol)
    if wide.size:
        j = wide[0]
        raise AmbiguousDegeneracyError(
            f"eigenvalue cluster around {w[bounds[j]]:.6g} has diameter {diam[j]:.3g} "
            f"> 10*group_tol ({10 * group_tol:.3g})"
        )
    means = w[bounds[:-1]]  # a singleton's mean is its eigenvalue
    for j in np.flatnonzero(np.diff(bounds) > 1):
        means[j] = np.mean(w[bounds[j] : bounds[j + 1]])
    return bounds, means, group_tol


def spectral_projectors(decomp: EigenDecomposition, group_tol: Optional[float] = None) -> SpectralProjectors:
    """Cluster eigenvalues by single linkage and form one projector per cluster."""
    bounds, means, group_tol = _clusters(decomp.values, group_tol)
    projs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = decomp.vectors[:, lo:hi]
        p = block @ block.T
        p.setflags(write=False)
        projs.append(p)
    return SpectralProjectors(tuple(means.tolist()), tuple(projs), group_tol)


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
    """The PairSpectrum of (a, b) in O(n^2) time and memory, built by
    _support like every pair's: each E_r e_a is a sum of scaled eigenvector
    columns, never a dense projector. A vector with all entries within tol
    of zero counts as zero."""
    return _support(decomp, decomp.values, a, b, tol)[0]


def _support(dec: EigenDecomposition, values, a: int, b: int, tol: float) -> Tuple[PairSpectrum, float]:
    """The PairSpectrum of rows a, b of the checked eigenpairs dec of a graph
    with eigenvalues values (descending), and the graph's grouping tolerance.
    Each eigenvalue of dec must lie within that tolerance of a graph
    eigenvalue, and its column joins the cluster of the nearest one; where
    values is dec.values, each column joins its own eigenvalue's cluster."""
    bounds, means, group_tol = _clusters(values, None)
    # both descend, so the nearest eigenvalues run in order and each cluster
    # found is one run of columns
    asc = values[::-1]
    hi = np.minimum(np.searchsorted(asc, dec.values), len(asc) - 1)
    lo = np.maximum(hi - 1, 0)
    nearest = len(asc) - 1 - np.where(dec.values - asc[lo] < asc[hi] - dec.values, lo, hi)
    if not np.all(np.abs(values[nearest] - dec.values) <= group_tol):
        raise NumericFailureError("Ritz value is not an eigenvalue of the graph")
    cluster = np.searchsorted(bounds, nearest, side="right") - 1
    runs = np.flatnonzero(np.diff(cluster, prepend=-1))
    v = dec.vectors
    ea = np.add.reduceat(v * v[a, :], runs, axis=1)
    eb = np.add.reduceat(v * v[b, :], runs, axis=1)
    sup = np.nonzero((np.linalg.norm(ea, axis=0) > tol) | (np.linalg.norm(eb, axis=0) > tol))[0]
    ea, eb = ea[:, sup], eb[:, sup]
    plus = np.max(np.abs(ea - eb), axis=0, initial=0.0) <= tol
    minus = np.max(np.abs(ea + eb), axis=0, initial=0.0) <= tol
    support = cluster[runs][sup]
    theta = tuple(means[support].tolist())
    broken = np.nonzero(~plus & ~minus)[0]
    signs = None if broken.size else tuple(0 if p else 1 for p in plus)
    weight = np.add.reduceat(v[a, :] * v[b, :], runs)[sup]
    broken_at = theta[broken[0]] if broken.size else None
    return PairSpectrum(tuple(support.tolist()), theta, weight, signs, broken_at), group_tol


class _Pair(NamedTuple):
    """A vertex pair's question reduced: the checked eigenpairs dec of
    _walk(g, a, b) that carry the walk between the pair and the weight row
    dec.vectors[b] * dec.vectors[a] over them; where _pair was given a tol,
    also the pair's PairSpectrum on the graph and the graph's grouping
    tolerance group_tol."""

    a: int
    b: int
    dec: EigenDecomposition
    weight: np.ndarray
    spectrum: Optional[PairSpectrum] = None
    group_tol: Optional[float] = None

    def amplitude(self, t):
        """<b| exp(-itA) |a> of the graph; see fidelity."""
        return _amplitudes(self.weight, self.dec.values, t)


def _pair(g: Graph, a: int, b: int, tol: Optional[float] = None) -> _Pair:
    """The pair (a, b) of g, vertices checked, on the eigenpairs of
    _walk(g, a, b); with tol, its PairSpectrum and the graph's grouping
    tolerance too, clustered by _support against the graph's eigenvalues:
    the dense decomposition's own, or for Ritz pairs a values-only solve
    (_eigenvalues). So support, theta and group_tol are the graph's on
    either route, and as the Ritz vectors have graph rows, entry tolerances
    apply as on the dense route. Once all the call built passed its checks,
    g keeps the pair, with a dict from float(tol) to (PairSpectrum,
    group_tol) that holds the SUPPORT_TOL entry and at most one other."""
    a, b = g.check_vertex(a), g.check_vertex(b)
    kept = g._last_pair
    if kept is None or (kept[0].a, kept[0].b) != (a, b):
        dec = _walk(g, a, b)
        kept = (_Pair(a, b, dec, dec.vectors[b, :] * dec.vectors[a, :]), {})
    pair, spectra = kept
    if tol is not None:
        key = float(tol)
        found = spectra.get(key)
        if found is None:
            values = pair.dec.values if pair.dec is g._spectrum else _eigenvalues(g)
            found = _support(pair.dec, values, a, b, tol)
            spectra = {k: v for k, v in spectra.items() if k == SUPPORT_TOL}
            spectra[key] = found
            kept = (pair, spectra)
        pair = pair._replace(spectrum=found[0], group_tol=found[1])
    object.__setattr__(g, "_last_pair", kept)
    return pair


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
