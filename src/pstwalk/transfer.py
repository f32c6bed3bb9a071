"""Transfer-quality analysis: fidelity series, maximum-fidelity scans,
strong cospectrality, exact perfect-transfer certificates, and the bundled
results table.

The certificate machinery decides perfect state transfer exactly whenever
the supported eigenvalues reduce to a common real scale times integers:
strong cospectrality supplies a sign per eigenvalue cluster, and transfer
exists iff some rational multiple of pi aligns every cluster's phase with
its sign. Spectra that admit no such scale get verdict "unknown" (never a
guessed answer) plus advice to scan numerically.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import floor, nan, pi, sqrt
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .conditions import (
    ConditionReport,
    NoTransferTrace,
    cylindrical_no_pst_check,
    double_cone_pst_condition,
    glued_cone_pst_condition,
)
from .cones import cylindrical_cone, double_cone, glued_double_cone
from .errors import InvalidArgumentError, NumericFailureError
from .graphs import Graph, circulant, complete, empty_graph, hypercube, path_graph, scale
from .partitions import _pair, _spectrum
from .products import lexicographic_product, weak_product
from .rationals import minimal_phase_alignment, rational_reconstruct
from .spectral import SUPPORT_TOL, _check_phases, _Grid, _near_top, fidelity

__all__ = [
    "FidelitySeries",
    "PstCertificate",
    "TableRow",
    "fidelity_series",
    "max_fidelity_scan",
    "fidelity_band",
    "strong_cospectrality",
    "pst_certificate",
    "pst_table",
]

NUMERIC_PST = 1.0 - 1e-8
PRETTY_GOOD = 1.0 - 1e-3


@dataclass(frozen=True)
class FidelitySeries:
    """Sampled transfer amplitudes <target| exp(-itA) |source>."""

    times: np.ndarray
    amplitudes: np.ndarray
    source: int
    target: int

    def to_csv(self) -> str:
        lines = ["t,re,im,abs"]
        for t, amp in zip(self.times, self.amplitudes):
            lines.append(
                f"{t:.17g},{amp.real:.17g},{amp.imag:.17g},{abs(amp):.17g}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PstCertificate:
    """Exact yes/no/unknown answer for perfect transfer between two vertices.

    time_exact packs the transfer time as (a, b, scale) meaning
    t* = (a/b) * pi * scale, with scale = 1.0 whenever the eigenvalue scale
    itself is rational. support and signs are the pair spectrum's (see
    partitions._spectrum): cluster indices of the graph's eigenvalues on
    the dense route, of the pair's own clusters on the quotient route.
    """

    verdict: str
    time_num: Optional[float]
    time_exact: Optional[Tuple[int, int, float]]
    support: Tuple[int, ...]
    signs: Tuple[int, ...]
    reason: str


def _window(g: Graph, a: int, b: int, t_max: float, steps: int) -> _Grid:
    """Checked arguments of a sampled time window, vertices first: the grid
    np.linspace(0.0, t_max, steps), made point by point (_Grid)."""
    g.check_vertex(a)
    g.check_vertex(b)
    if steps < 2:
        raise InvalidArgumentError("steps must be at least 2")
    if not t_max > 0:
        raise InvalidArgumentError("t_max must be positive")
    if not np.isfinite(t_max):
        raise InvalidArgumentError("t_max must be finite")
    return _Grid(t_max, operator.index(steps))


def fidelity_series(g: Graph, a: int, b: int, t_max: float, steps: int) -> FidelitySeries:
    _window(g, a, b, t_max, steps)
    times = np.linspace(0.0, t_max, steps)
    return FidelitySeries(times, fidelity(_pair(g, a, b), a, b, times), a, b)


def max_fidelity_scan(
    g: Graph, a: int, b: int, t_max: float, steps: int, refine_iters: int = 60
) -> Tuple[float, float]:
    """Grid maximum of |F| over [0, t_max], refined by Newton steps on
    |F|^2 around the best grid point. Returns (t_star, fmax) as floats.

    The grid is np.linspace(0, t_max, steps), made only at the points the
    scan reads (spectral._Grid), and runs over the k distinct eigenvalues
    that support the pair (see pair_spectrum), so its cost follows their
    number, not n: |F| at every 16th point, p = m / 16 samples by one
    rotation with a ceil(sqrt p)-step inner table, and the 16 points from
    a sample on only where the certified bound sqrt(max^2 + M L^2 / 8),
    M = sum |w_r w_s| (theta_r - theta_s)^2, can reach the top
    (spectral._near_top): p k plus 16 k terms per such interval, not m k,
    and no grid-sized array where few are summed. The clusters are those of
    the eigenpairs of the pair's reduced problem: the lifted quotient of
    the refinement of {a}, {b}, rest where that has few cells and no weight
    is negative (see partitions._pair), else the whole graph's. Grid points
    within the clustering error of its top, and the refinement, are then
    evaluated over every one of those eigenpairs. Of the grid points whose
    |F| lies within the rounding of |F| (below) of their top, the earliest run of neighbours
    on the grid is taken, and its highest point is the best grid point: of
    equal maxima the earliest is taken, whichever way they round, and a
    maximum flat over a few grid points keeps its highest. With
    F = sum w exp(-i theta t), each refining step takes F, F' and F'' from
    one product of the weight rows w, -i theta w and -theta^2 w with the
    phases, and g' = 2 Re(conj(F) F'), g'' = 2 (|F'|^2 + Re(conj(F) F''))
    for g = |F|^2. The steps keep a bracket, at first one grid spacing
    either side of the grid point within [0, t_max], that holds a maximum
    of |F| at least as high as the best point yet: a point lower than that
    by more than the rounding of |F| becomes the bracket's far end; any
    other becomes the best point, and the bracket keeps its side where g
    rises (the wider side where F is zero to rounding). From a best point t moves by the Newton step -g'/g'';
    where g'' >= 0 or the step would leave the bracket, to the bracket's
    midpoint. The steps stop where a step rounds to nothing, where g' = 0,
    where no float is left inside the bracket, or after refine_iters steps
    (0: the grid maximum only); none are taken where the pair's cluster
    weights sum, in absolute value, to no more than the rounding of |F|. The
    best point replaces the grid point only where its |F|, evaluated as
    fidelity evaluates it, is larger.
    The scan shares the pair that g keeps with the certificate, the series
    and the collapse check of the same pair, so one reduction serves them
    all. Raises AmbiguousDegeneracyError where the eigenvalues cannot be
    clustered, NumericFailureError where max|theta| t_max overflows, theta
    over the eigenpairs of the reduced problem, or where the rounding bound
    of |F| over the window, 8 eps sum|w| (1 + max|theta| t_max), exceeds
    1 - PRETTY_GOOD, as its float times then cannot resolve the walk, and
    InvalidArgumentError on a negative refine_iters."""
    if refine_iters < 0:
        raise InvalidArgumentError("refine_iters must be non-negative")
    grid = _window(g, a, b, t_max, steps)
    a, b = g.check_vertex(a), g.check_vertex(b)  # as ints, to index the eigenvector rows
    ps, group_tol = _spectrum(g, a, b)
    dec = _pair(g, a, b)
    theta, w = dec.values, dec.vectors[b, :] * dec.vectors[a, :]
    reach = float(np.max(np.abs(theta)))
    # an overflowing theta t_max is refused first, as a kernel call on the grid would
    _check_phases(reach * t_max)
    # |F| is known to err, _amplitudes' rounding bound (c = 8) over [0, t_max]
    err = 8.0 * np.finfo(float).eps * float(np.sum(np.abs(w))) * (1.0 + reach * t_max)
    if err > 1.0 - PRETTY_GOOD:
        raise NumericFailureError(
            f"the scan's rounding bound {err:.3g} exceeds {1.0 - PRETTY_GOOD:.3g}: "
            f"float times up to t_max = {t_max:g} cannot resolve the walk"
        )
    # |coarse - exact| <= sum_k |V[a,k] V[b,k]| |theta_k - theta_r| t <= 10 group_tol t;
    # the further 10 group_tol covers rounding and the clusters off the support.
    slack = 10.0 * group_tol * (t_max + 1.0)
    on = _near_top(ps.weight, ps.theta, grid, slack, err)  # grid indices near the top
    near = grid[on]
    exact = np.abs(fidelity(dec, a, b, near))
    level = np.flatnonzero(exact >= np.max(exact) - err)  # the top to rounding
    peak = level[on[level] - on[level[0]] == np.arange(level.size)]  # its earliest run of grid neighbours
    k = int(peak[np.argmax(exact[peak])])
    best_t, best_f = float(near[k]), float(exact[k])
    h = float(grid[1])
    lo, hi = max(0.0, best_t - h), min(t_max, best_t + h)
    if np.sum(np.abs(ps.weight)) <= err:  # |F| is zero to rounding at every t
        return best_t, best_f
    rows = np.stack((w, -1j * theta * w, -theta * theta * w))
    t, t_top, top = best_t, best_t, -np.inf
    for _ in range(refine_iters):
        f, f1, f2 = (rows @ np.exp(-1j * (theta[:, None] * t)))[:, 0]
        if abs(f) < top - err:
            # below the best point yet: a higher maximum lies between them
            lo, hi = (lo, t) if t > t_top else (t, hi)
            t_next = nan
        else:
            t_top, top = t, abs(f)
            d1 = 2.0 * (f.conjugate() * f1).real  # g' and g'' of g = |F|^2
            d2 = 2.0 * (abs(f1) ** 2 + (f.conjugate() * f2).real)
            if abs(f) <= err:  # F = 0 to rounding: g' has no sign, take the wider side
                lo, hi = (lo, t) if t - lo > hi - t else (t, hi)
            elif d1 > 0.0:  # the bracket keeps the side where g rises
                lo = t
            elif d1 < 0.0:
                hi = t
            else:
                break
            t_next = t - d1 / d2 if d2 < 0.0 else nan
            if t_next == t:  # a step below rounding
                break
        if not lo < t_next < hi:  # no Newton step inside the bracket
            t_next = 0.5 * (lo + hi)
            if not lo < t_next < hi:  # no float left inside
                break
        t = t_next
    if t_top != best_t:
        f_ref = float(abs(fidelity(dec, a, b, t_top)))
        if f_ref > best_f:
            best_t, best_f = float(t_top), f_ref
    return best_t, best_f


def fidelity_band(fmax: float) -> str:
    """Interpretation band for a scanned maximum fidelity.

    The band describes the one window that was scanned, not a verdict on
    the pair. Pairs with pretty-good transfer (sup |F| = 1, never reached,
    such as the ends of P4 and P5) land in "inconclusive" on long windows
    and may read "no numeric PST" on short ones. Exact answers come from
    pst_certificate or the family conditions.
    """
    if fmax >= NUMERIC_PST:
        return "numeric PST"
    if fmax > PRETTY_GOOD:
        return "inconclusive (possible pretty-good transfer)"
    return "no numeric PST"


# ---------------------------------------------------------------------------
# strong cospectrality and certificates
# ---------------------------------------------------------------------------

def strong_cospectrality(
    g: Graph, a: int, b: int, tol: float = SUPPORT_TOL
) -> Optional[Tuple[int, ...]]:
    """Sign vector over supported eigenvalue clusters if every cluster
    projects |a> onto +-|b>'s projection; None otherwise. A necessary
    condition for perfect transfer between a and b. A tol that is not
    positive, or that leaves no cluster supported, raises
    InvalidArgumentError."""
    return _spectrum(g, a, b, tol)[0].signs


def _approx_gcd(values: Sequence[float], tol: float) -> float:
    g = 0.0
    for v in values:
        x, y = abs(v), g
        while y > tol:
            x, y = y, x - floor(x / y) * y
        g = x
    return g


def pst_certificate(g: Graph, a: int, b: int) -> PstCertificate:
    """Exact transfer certificate between vertices a and b.

    Pipeline: (1) strong cospectrality — failure is a definitive no;
    (2) reduce supported eigenvalues to scale * integers, trying the smallest
    consecutive gap and then an approximate-gcd fallback — failure is
    verdict unknown; (3) solve the parity phase-alignment system on the
    integer differences — infeasibility is a definitive no; (4) confirm the
    aligned time numerically and report it exactly.
    """
    ps, group_tol = _spectrum(g, a, b)
    if ps.signs is None:
        return PstCertificate(
            "no",
            None,
            None,
            (),
            (),
            f"not strongly cospectral: eigenvalue cluster at "
            f"{ps.broken_at:.6g} projects the endpoints onto "
            f"non-proportional vectors",
        )
    support, signs, vals = ps.support, ps.signs, ps.theta
    diffs = [v - vals[0] for v in vals[1:]]
    # one supported cluster only where a == b: any scale, and tau = 1 below
    gap = min((vals[i] - vals[i + 1] for i in range(len(vals) - 1)), default=1.0)
    scale_r: Optional[float] = None
    # floors relative to the grouping tolerance, so weights scaled by c
    # reduce alike
    for candidate in (gap, _approx_gcd(diffs, 0.1 * group_tol)):
        if candidate <= 1e-4 * group_tol:
            continue
        reduced = [d / candidate for d in diffs]
        if all(abs(x - round(x)) <= 1e-7 for x in reduced):
            scale_r = candidate
            break
    if scale_r is None:
        return PstCertificate(
            "unknown",
            None,
            None,
            support,
            signs,
            "supported eigenvalues do not reduce to a common scale times "
            "integers; exact analysis unavailable (use max_fidelity_scan for "
            "numeric evidence)",
        )
    deltas = [round(d / scale_r) for d in diffs]
    parities = [s ^ signs[0] for s in signs[1:]]
    tau = minimal_phase_alignment(deltas, parities)
    if tau is None:
        return PstCertificate(
            "no",
            None,
            None,
            support,
            signs,
            f"phase alignment infeasible: integer eigenvalue differences "
            f"{deltas} (scale {scale_r:.6g}) cannot realize the sign pattern "
            f"{list(parities)} at any time",
        )
    t_star = float(tau) * pi / scale_r
    confirm = abs(fidelity(_pair(g, a, b), a, b, t_star))
    if confirm < NUMERIC_PST:
        return PstCertificate(
            "unknown",
            None,
            None,
            support,
            signs,
            f"alignment suggested t = {t_star:.9g} but numeric fidelity there "
            f"is only {confirm:.9f}",
        )
    rec = rational_reconstruct(1.0 / scale_r)
    if rec is not None:
        frac = tau * Fraction(*rec)
        time_exact = (frac.numerator, frac.denominator, 1.0)
    else:
        time_exact = (tau.numerator, tau.denominator, 1.0 / scale_r)
    return PstCertificate(
        "yes",
        t_star,
        time_exact,
        support,
        signs,
        f"strongly cospectral with integer differences {deltas} at scale "
        f"{scale_r:.6g}; minimal alignment tau = {tau}; numeric |F(t*)| = "
        f"{confirm:.12f}",
    )


# ---------------------------------------------------------------------------
# bundled results table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    name: str
    expected: str
    observed: str
    matches: bool
    time_num: Optional[float]
    note: str


_Verdict = Tuple[str, Optional[float], str]  # (observed, time_num, note) of a table row


def _scan_verdict(g: Graph, a: int, b: int) -> _Verdict:
    t_s, fmax = max_fidelity_scan(g, a, b, 200.0, 200001, 60)
    band = fidelity_band(fmax)
    if fmax >= NUMERIC_PST:
        return "yes", t_s, f"scan max |F| = {fmax:.8f} at t = {t_s:.6f}"
    return "no", None, f"scan max |F| = {fmax:.6f} ({band}); PST not detected"


def _cert_verdict(g: Graph, a: int, b: int) -> _Verdict:
    cert = pst_certificate(g, a, b)
    if cert.verdict == "yes":
        return "yes", cert.time_num, f"certificate yes at t = {cert.time_num:.9g}"
    if cert.verdict == "no":
        return "no", None, "certificate no"
    verdict, t, note = _scan_verdict(g, a, b)
    return verdict, t, f"certificate unknown; {note}"


def _condition_verdict(cond: ConditionReport, g: Graph, a: int, b: int) -> _Verdict:
    """A family condition, confirmed by |F| at the time it names."""
    t = cond.witness["time"]
    f = abs(fidelity(_pair(g, a, b), a, b, t)) if t is not None else 0.0
    ok = cond.holds and f >= NUMERIC_PST
    note = f"condition {'holds' if cond.holds else 'fails'}, |F(t*)| = {f:.10f}"
    return ("yes" if ok else "no"), t, note


def _cylindrical_verdict(check: NoTransferTrace, g: Graph, a: int, b: int) -> _Verdict:
    """The parity argument against transfer, corroborated by a scan."""
    verdict, _, note = _scan_verdict(g, a, b)
    observed = "no" if (check.verdict == "no" and verdict == "no") else "yes"
    return observed, None, f"parity contradiction recorded; {note}"


# (name, expected verdict, graph builder, source, target, decide), one per family
_TABLE = (
    (
        "double cone over sqrt2*K3 (alpha = sqrt3)", "yes",
        lambda: double_cone(scale(complete(3), sqrt(2.0)), 0, sqrt(3.0)), 0, 1,
        lambda g, a, b: _condition_verdict(
            double_cone_pst_condition(2.0 * sqrt(2.0), 0, sqrt(3.0)), g, a, b
        ),
    ),
    ("path P5", "no", lambda: path_graph((1.0, 1.0, 1.0, 1.0)), 0, 4, _cert_verdict),
    (
        "glued circulant cones (n,k,gamma) = (15,6,8)", "yes",
        lambda: glued_double_cone(
            circulant(15, (1, 2, 4)), circulant(15, (1, 2, 4)), circulant(15, (1, 2, 4, 7))
        ),
        0, 31,
        lambda g, a, b: _condition_verdict(glued_cone_pst_condition(15, 6, 8), g, a, b),
    ),
    (
        "half-join K1+K3+K3+K1", "no",
        lambda: glued_double_cone(complete(3), complete(3), np.ones((3, 3))), 0, 7,
        _scan_verdict,
    ),
    (
        "cylindrical cone (n,k,m) = (3,2,2)", "no",
        lambda: cylindrical_cone(complete(3), empty_graph(2), complete(3)), 0, 9,
        lambda g, a, b: _cylindrical_verdict(cylindrical_no_pst_check(3, 2, 2), g, a, b),
    ),
    ("hypercube Q4", "yes", lambda: hypercube(4), 0, 15, _cert_verdict),
    # (0,0) to (antipode,0)
    ("weak product Q2 x K4", "yes", lambda: weak_product(hypercube(2), complete(4)), 0, 12,
     _cert_verdict),
    # within one fiber
    ("lexicographic K2[Q2]", "yes", lambda: lexicographic_product(complete(2), hypercube(2)), 0, 3,
     _cert_verdict),
)


def pst_table() -> List[TableRow]:
    """Eight bundled instances, one per family, with expected transfer
    verdicts. A row matches when the observed verdict (exact certificate or
    condition where available, numeric scan otherwise) equals the expected
    one."""
    rows: List[TableRow] = []
    for name, expected, build, a, b, decide in _TABLE:
        observed, t, note = decide(build(), a, b)
        rows.append(TableRow(name, expected, observed, observed == expected, t, note))
    return rows
