"""Symmetric eigendecomposition and continuous-time walk evaluation.

The walk on a graph with adjacency A is U(t) = exp(-itA); all evolution and
fidelity values are computed through the spectral resolution of A, never by
generic matrix exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    AmbiguousDegeneracyError,
    DegenerateEigenvalueError,
    InvalidArgumentError,
    NotConnectedError,
    NumericFailureError,
)
from .graphs import Graph, _check_vertex, is_connected

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
_STEP_BLOCK = 128  # time steps per block of inner phases on an even grid; the scan's flat-top pick reads its bits
_SAMPLE_STEP = 16  # grid steps between the samples of a scan's coarse pass
_DIRECT_TERMS = 512  # phase tables of fewer terms take one exponential each
# Entry tolerance of the pair spectrum that certificates and scans read, the
# one spectrum a graph keeps for its kept pair (partitions._spectrum).
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
    w, vw = np.linalg.eigh(g.adj)
    if not np.all(np.isfinite(w)):
        raise NumericFailureError("eigenvalues overflowed to non-finite values")
    w = w[::-1].copy()
    v = vw[:, ::-1].copy()
    n = g.n
    amax = max(1.0, float(g.adj.max()), float(-g.adj.min()))
    # V diag(w) overwrites eigh's own vectors, so both checks take one new
    # n x n buffer
    check = np.multiply(v, w, out=vw) @ v.T
    del vw
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
    use and kept on g (Graph._keep) for as long as g lives."""
    return g._keep(("eigenpairs",), lambda: eigendecompose(g))


def evolve(decomp: EigenDecomposition, t: float, src: int) -> np.ndarray:
    """State exp(-itA)|src> as a complex amplitude vector; a vertex is a row
    of decomp.vectors, checked as Graph.check_vertex checks it."""
    src = _check_vertex(src, len(decomp.vectors))
    return decomp.vectors @ (_phases(decomp.values, t) * decomp.vectors[src, :])


def propagator(decomp: EigenDecomposition, t: float) -> np.ndarray:
    """Full unitary exp(-itA)."""
    return (decomp.vectors * _phases(decomp.values, t)) @ decomp.vectors.T


def _phases(values: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t values), t refused by _check_phases as fidelity refuses it."""
    _check_phases(float(np.abs(values).max(initial=0.0)) * abs(t))
    return np.exp(-1j * t * values)


def fidelity(decomp: EigenDecomposition, a: int, b: int, t) -> complex:
    """Transfer amplitude <b| exp(-itA) |a> by _amplitudes over V[b] V[a],
    vertices checked as evolve checks them: a numpy complex (a subclass of
    complex) for a scalar t, a complex array for an array t. Every pair
    amplitude of the package is this call, on partitions._pair's eigenpairs."""
    v = decomp.vectors
    a, b = _check_vertex(a, len(v)), _check_vertex(b, len(v))
    return _amplitudes(v[b, :] * v[a, :], decomp.values, t)


def _amplitudes(weight, theta, times):
    """sum_k weight[k] exp(-i theta[k] t) at each t of times, a complex
    array (a numpy complex for scalar times). An even grid t0 + jh of at
    least 2B points (B = _STEP_BLOCK; each t within 4 ulp of max|t|) goes by
    _rotation in blocks of B steps, its phase tables by _table: 23 k
    exponentials for the inner phases (B k where B k < _DIRECT_TERMS) and
    about 2 sqrt(q) k for a chunk of q block starts (59 k for m = 20,001
    points and k = 256), error <= c eps sum|weight| (1 + max|theta| max|t|)
    against direct exponentials, c small, eps the unit roundoff. Other
    grids take one exponential per term and time. Temporaries hold about
    max(SCAN_TERMS, B k) terms. Raises NumericFailureError where
    max|theta| max|t| is not finite, as no phase is then defined; on an
    even grid max|t| is read from its two ends."""
    theta = np.asarray(theta, dtype=float)
    times = np.asarray(times, dtype=float)
    t = times.ravel()
    reach = float(np.abs(theta).max(initial=0.0))
    m, nb, even = t.size, _STEP_BLOCK, False
    if m >= 2 * nb:
        end = max(abs(float(t[0])), abs(float(t[-1])))
        _check_phases(reach * end)  # before the grid test, whose offsets could overflow
        h = (t[-1] - t[0]) / (m - 1)
        tol = 4.0 * np.spacing(end)
        off = lambda s: np.arange(s, min(s + SCAN_TERMS, m)) * h + t[0] - t[s : s + SCAN_TERMS]
        even = all(np.max(np.abs(off(s))) <= tol for s in range(0, m, SCAN_TERMS))  # by chunks
    if not even:
        _check_phases(reach * float(np.abs(t).max(initial=0.0)))
        span = max(1, SCAN_TERMS // max(theta.size, 1))
        out = np.empty(m, complex)
        for s in range(0, m, span):
            out[s : s + span] = weight @ np.exp(-1j * (theta[:, None] * t[s : s + span]))
        return out.reshape(times.shape)[()]
    return _rotation(weight, theta, t, h, nb).reshape(times.shape)[()]


def _rotation(weight, theta: np.ndarray, t, h: float, nb: int) -> np.ndarray:
    """The complex F = sum_k weight[k] exp(-i theta[k] t) at the t.size
    points t[j] = t[0] + jh of an even grid, which is read from t only
    at its chunk starts: exp(-i theta (t_s + jh)) = exp(-i theta t_s)
    exp(-i theta jh), the phases of the block starts t_s times a k x nb
    block of weighted inner phases, one matrix product per chunk of about
    SCAN_TERMS terms (nb k where that is more). Both phase tables come from
    _table."""
    m = t.size
    out = np.empty(m, complex)
    inner = _table(theta, 0.0, h, nb).T * np.reshape(weight, (-1, 1))
    span = nb * max(1, SCAN_TERMS // (theta.size + nb))  # time points per chunk
    for s in range(0, m, span):
        phase = _table(theta, t[s], nb * h, -(-min(span, m - s) // nb))
        out[s : s + span] = (phase @ inner).ravel()[: m - s]
        del phase  # before the next block's phases are allocated
    return out


@dataclass(frozen=True)
class _Grid:
    """The even grid np.linspace(0.0, t_max, size), size >= 2, point by
    point: grid[j], for an index or an array of indices j, is bitwise
    np.linspace(0.0, t_max, size)[j], taken as linspace takes it: j step
    with step = t_max / (size - 1) ((j / (size - 1)) t_max where step
    underflows to zero), and t_max itself at the last index. A scan reads
    only the points it sums, so it holds no grid-sized array."""

    t_max: float
    size: int

    def __getitem__(self, j):
        div, t_max = self.size - 1, float(self.t_max)
        step = t_max / div
        if isinstance(j, int):  # a float, in the same double arithmetic
            return t_max if j == div else j * step if step else j / div * t_max
        t = np.multiply(j, step) if step else np.divide(j, div) * t_max
        return np.where(np.equal(j, div), t_max, t)


def _near_top(weight, theta, times, slack: float, err: float) -> np.ndarray:
    """The indices, ascending, of the points of the grid times =
    np.linspace(0.0, t_max, m), m >= 2 (an array, or a _Grid that makes only
    the points read), where |F|, F = sum_k weight[k] exp(-i theta[k] t)
    summed to within err, lies within slack of its grid top. |F| is taken
    at every S-th point (S = _SAMPLE_STEP), p samples in all, by one
    _rotation whose inner table has ceil(sqrt p) steps. The S points from a
    sample on are summed only where sqrt(max^2 + M L^2 / 8) + 2 err (M from
    _curvature, L the samples' longest spacing) reaches the top sample less
    slack, and from the last sample: one start phase per term and interval
    times a shared k x S table of weighted phases, in chunks of about
    SCAN_TERMS terms; a sample that can reach the top is summed again
    there. Both passes take their phase tables from _table. The samples and
    those intervals are all that is held: p k terms, plus S k per summed
    interval, and no grid-sized array unless most intervals are summed, as
    on a flat |F|. A point left out lies below the top less slack, so only
    rounding can classify a point otherwise than the full grid would."""
    theta = np.asarray(theta, dtype=float)
    m, s = times.size, _SAMPLE_STEP
    h = float(times[1])  # the grid step, as times[0] = 0
    at = times[s * np.arange((m - 1) // s + 1)]  # the samples' times
    p = at.size
    samples = np.abs(_rotation(weight, theta, at, s * h, math.isqrt(p - 1) + 1))
    # sqrt(hi^2 + M L^2 / 8) + 2 err >= top sample - slack, hi the larger
    # end of an interval and L the longest
    need = max(float(np.max(samples)) - slack - 2.0 * err, 0.0)
    span = float(np.max(np.diff(at), initial=0.0))
    floor = need * need - _curvature(weight, theta) * span * span / 8.0
    cut = math.sqrt(floor) if floor > 0.0 else -math.inf
    # a sample within slack of the top starts a summed interval, or is the last one
    rows = np.append(np.flatnonzero(np.maximum(samples[:-1], samples[1:]) >= cut), p - 1)
    near = np.empty((rows.size, s))  # grid point rows[i] s + j at [i, j]
    inner = _table(theta, 0.0, h, s).T * np.reshape(weight, (-1, 1))
    chunk = max(1, SCAN_TERMS // (theta.size + s))  # intervals per chunk
    for c in range(0, rows.size, chunk):
        np.abs(np.exp(-1j * (at[rows[c : c + chunk], None] * theta)) @ inner, out=near[c : c + chunk])
    near[-1, m - (p - 1) * s :] = -np.inf  # past the grid's last point
    hit = near >= np.max(near) - slack
    del near
    return (rows[:, None] * s + np.arange(s))[hit]


def _curvature(weight, theta) -> float:
    """M = sum_{r,s} |w_r w_s| (theta_r - theta_s)^2, a bound on
    |d^2 |F|^2 / dt^2| for F(t) = sum_r w_r exp(-i theta_r t): between two
    times L apart |F|^2 rises at most M L^2 / 8 above its larger end. In
    O(k) as 2 W sum_r |w_r| (theta_r - c)^2, W = sum_r |w_r| and c the
    |w|-weighted mean of theta (M = 2 W S_2 - 2 S_1^2 for the moments S_j
    about any c, and S_1 = 0 about that mean)."""
    w = np.abs(weight)
    total = float(np.sum(w))
    if total == 0.0:
        return 0.0
    theta = np.asarray(theta, dtype=float)
    dev = theta - float(w @ theta) / total
    return 2.0 * total * float(w @ (dev * dev))


def _check_phases(top: float) -> None:
    """Raise NumericFailureError where max|theta| max|t| = top is not finite
    (a float product: inf on overflow, without a warning)."""
    if not math.isfinite(top):
        raise NumericFailureError("the phases theta t leave the float range")


def _table(theta: np.ndarray, o: float, s: float, q: int) -> np.ndarray:
    """exp(-i theta (o + j s)) for j < q, one row per j: one exponential per
    phase where the table has fewer than _DIRECT_TERMS of them, else from
    the phases of each base-r digit of j (r = ceil(sqrt q)), taken by one
    exponential call and multiplied out in one broadcast product:
    exp(-i theta (o + (r j1 + j0) s)) = exp(-i theta r j1 s) exp(-i theta (o + j0 s)),
    about 2 sqrt(q) k exponentials in place of q k. Below _DIRECT_TERMS
    phases the split saves less time than its own calls take."""
    if q * theta.size < _DIRECT_TERMS:
        return np.exp(np.multiply.outer(o + s * np.arange(q), -1j * theta))
    r = math.isqrt(q - 1) + 1
    j = s * np.arange(r)  # j0 s; the high digit takes r j1 s for j1 < ceil(q / r) <= r
    digits = np.exp(np.concatenate((o + j, r * j[: -(-q // r)]))[:, None] * (-1j * theta))
    return (digits[r:, None] * digits[:r]).reshape(-1, theta.size)[:q]


def default_group_tol(decomp: EigenDecomposition) -> float:
    return _group_tol(decomp.values)


def _group_tol(values: np.ndarray) -> float:
    """1e-8 max|lambda|, 1e-8 for an all-zero spectrum: weights scaled by c group alike."""
    return 1e-8 * (float(np.max(np.abs(values))) or 1.0)


def _clusters(w: np.ndarray, group_tol: Optional[float]):
    """Single-linkage clusters of the eigenvalues w (sorted descending) as
    bounds, an index array whose entries j and j + 1 delimit cluster j (so
    bounds[0] = 0 and bounds[-1] = len(w)), and the grouping tolerance used.

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
    return bounds, group_tol


def _means(w: np.ndarray, bounds: np.ndarray, js: np.ndarray) -> np.ndarray:
    """The mean eigenvalue of each cluster j in js of w (see _clusters), by
    np.mean; a singleton's mean is its eigenvalue."""
    lo, hi = bounds[js], bounds[js + 1]
    means = w[lo]
    for i in np.flatnonzero(hi - lo > 1):
        means[i] = np.mean(w[lo[i] : hi[i]])
    return means


def spectral_projectors(decomp: EigenDecomposition, group_tol: Optional[float] = None) -> SpectralProjectors:
    """Cluster eigenvalues by single linkage and form one projector per cluster."""
    bounds, group_tol = _clusters(decomp.values, group_tol)
    means = _means(decomp.values, bounds, np.arange(bounds.size - 1))
    projs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = decomp.vectors[:, lo:hi]
        p = block @ block.T
        p.setflags(write=False)
        projs.append(p)
    return SpectralProjectors(tuple(means.tolist()), tuple(projs), group_tol)


@dataclass(frozen=True)
class PairSpectrum:
    """Eigenvalue support of a vertex pair (a, b) over eigenpairs that carry
    the walk from a and from b: the clusters r of their eigenvalues (as in
    spectral_projectors) with E_r e_a or E_r e_b nonzero.

    support holds their cluster indices, theta their eigenvalues and weight
    their (E_r)_{ab}, so <b| exp(-itA) |a> = sum weight * exp(-i theta t)
    up to the cluster diameters. Where every E_r e_a = +-E_r e_b (strong
    cospectrality), signs gives 0 for + and 1 for -; otherwise signs is None
    and broken_at is the eigenvalue of the first cluster that breaks it.
    Over the graph's eigendecomposition the clusters are the graph's; over
    the lifted quotient of a pair question (partitions._pair) they are the
    pair's own, so support indexes those.
    """

    support: Tuple[int, ...]
    theta: Tuple[float, ...]
    weight: np.ndarray
    signs: Optional[Tuple[int, ...]]
    broken_at: Optional[float]


def pair_spectrum(decomp: EigenDecomposition, a: int, b: int, tol: float = SUPPORT_TOL) -> PairSpectrum:
    """The PairSpectrum of (a, b) over the clusters of decomp's eigenvalues,
    in O(n^2) time and memory, built by _support like every pair's: each
    E_r e_a is a sum of scaled eigenvector columns, never a dense projector.
    A vector with all entries within tol of zero counts as zero. A vertex
    out of range (see evolve), a tol that is not positive or one that
    leaves no cluster supported raises InvalidArgumentError."""
    a, b = (_check_vertex(v, len(decomp.vectors)) for v in (a, b))
    return _support(decomp, a, b, tol)[0]


def _support(dec: EigenDecomposition, a: int, b: int, tol: float) -> Tuple[PairSpectrum, float]:
    """The PairSpectrum of rows a, b of the checked eigenpairs dec, on the
    clusters of dec.values (_clusters: run j of columns is cluster j), and
    their grouping tolerance.
    A tol that is not positive, where every sign test would fail on
    rounding, raises InvalidArgumentError, as does one that leaves no
    cluster supported (a unit vector has a cluster with ||E_r e_a|| >=
    1/sqrt(clusters))."""
    if not tol > 0:  # zero, negative or NaN
        raise InvalidArgumentError(f"tol must be positive, got {tol:g}")
    bounds, group_tol = _clusters(dec.values, None)
    runs = bounds[:-1]
    v = dec.vectors
    ea, eb, weight = v * v[a, :], v * v[b, :], v[a, :] * v[b, :]
    if runs.size < dec.n:  # some cluster has several columns: sum each run
        ea, eb, weight = (np.add.reduceat(x, runs, axis=-1) for x in (ea, eb, weight))
    sup = np.nonzero((np.linalg.norm(ea, axis=0) > tol) | (np.linalg.norm(eb, axis=0) > tol))[0]
    if not sup.size:
        raise InvalidArgumentError(f"tol {tol:g} leaves no supported eigenvalue cluster")
    if sup.size < runs.size:
        ea, eb, weight = ea[:, sup], eb[:, sup], weight[sup]
    plus = np.max(np.abs(ea - eb), axis=0, initial=0.0) <= tol
    minus = np.max(np.abs(ea + eb), axis=0, initial=0.0) <= tol
    theta = tuple(_means(dec.values, bounds, sup).tolist())
    broken = np.nonzero(~plus & ~minus)[0]
    signs = None if broken.size else tuple(0 if p else 1 for p in plus)
    broken_at = theta[broken[0]] if broken.size else None
    return PairSpectrum(tuple(sup.tolist()), theta, weight, signs, broken_at), group_tol


def spectrum(g: Graph) -> np.ndarray:
    """Eigenvalues of the adjacency matrix, sorted descending."""
    return _decomposition(g).values


def is_integral(g: Graph, tol: float = 1e-8) -> bool:
    w = spectrum(g)
    return bool(np.all(np.abs(w - np.round(w)) <= tol))


def perron_vector(g: Graph) -> Tuple[float, np.ndarray]:
    """Top eigenvalue and its positive unit eigenvector.

    Requires a connected graph with nonnegative weights and a numerically
    simple top eigenvalue: one more than 1e-10 lam0 above the next, so
    weights scaled by c > 0 answer alike.
    """
    if np.any(g.adj < 0):
        raise InvalidArgumentError("perron_vector needs nonnegative weights")
    if not is_connected(g):
        raise NotConnectedError("perron_vector needs a connected graph")
    decomp = _decomposition(g)
    lam0 = float(decomp.values[0])
    if g.n > 1 and decomp.values[0] - decomp.values[1] <= 1e-10 * lam0:
        raise DegenerateEigenvalueError("top eigenvalue is not numerically simple")
    x0 = decomp.vectors[:, 0].copy()
    k = int(np.argmax(np.abs(x0)))
    if x0[k] < 0:
        x0 = -x0
    return lam0, x0
