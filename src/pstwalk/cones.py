"""Cone-family constructions and their exact transfer conditions.

Four families live here, all built around two distinguished "apex" vertices:

* double cones: two apexes joined to a weighted base graph through edges
  proportional to the base's Perron vector;
* glued double cones: apex + G + G + apex, the two copies of G linked by a
  0/1 connection matrix commuting with both adjacencies;
* cylindrical cones: apex + G1 + middle + G2 + apex with full joins between
  consecutive layers (these never admit perfect transfer between the apexes,
  and the checker emits the parity contradiction showing why);
* weighted 4-paths with a tunable middle edge and optional loops on the two
  internal vertices.

The double cone, glued cone and 4-path transfer between their apexes exactly
when the primitive integer multipliers of their frequencies have an odd sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, pi, sqrt
from typing import Any, Dict, Tuple, Union

import numpy as np

from .errors import InvalidArgumentError, InvalidSizeError, NonCommutingError
from .graphs import Graph, _layered, path_graph, regular_degree
from .products import ConditionReport
from .rationals import (
    CLASS_EVEN_OVER_ODD,
    CLASS_ODD_OVER_EVEN,
    CLASS_ODD_OVER_ODD,
    classify_rational,
    rational_reconstruct,
    sqrt_rational,
)
from .spectral import _amplitudes, perron_vector

__all__ = [
    "NoTransferTrace",
    "double_cone",
    "double_cone_fidelity",
    "double_cone_pst_condition",
    "glued_double_cone",
    "glued_cone_pst_condition",
    "glued_cone_family",
    "glued_cone_apex_eigendata",
    "glued_cone_apex_fidelity",
    "glued_cone_apexes",
    "cylindrical_cone",
    "cylindrical_apexes",
    "cylindrical_no_pst_check",
    "weighted_p4",
    "p4_pst_condition",
]

# appended to a condition's detail when the parity-class shortcut and the
# exact test, which decides, give different answers
_SHORTCUT_DISAGREES = " (parity-class shortcut disagrees; exact test governs)"


def _multipliers(freqs: Tuple[Fraction, ...]):
    """The primitive integer vector f*den/g of nonnegative rational
    frequencies f (den the lcm of their denominators, g the gcd of f*den)
    and t/pi = den/g of the first transfer, or None when its sum is even."""
    den = lcm(*(f.denominator for f in freqs))
    scaled = [int(f * den) for f in freqs]
    g = gcd(*scaled)
    vector = tuple(c // g for c in scaled)
    return vector, Fraction(den, g) if sum(vector) % 2 else None


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
    if b not in (0, 1):
        raise InvalidArgumentError("apex-apex weight b must be 0 or 1")
    if not alpha > 0:
        raise InvalidArgumentError("cone scale alpha must be positive")
    _, x0 = perron_vector(base)
    spoke = alpha * x0[None, :]
    links = {(0, 1): float(b), (0, 2): spoke, (1, 2): spoke}
    adj = _layered([[[0.0]], [[0.0]], base.adj], links)
    labels = None
    if base.labels is not None:
        labels = ("A", "B") + base.labels
    return Graph(adj, labels=labels)


def _double_cone_parts(lam0: float, b: int, alpha: float):
    """lam_plus, Delta, and the eigenvalues and weights of the apex-to-apex
    amplitude: the symmetric apex state and the base's Perron state mix into
    lam_plus -+ Delta, and the antisymmetric apex state has eigenvalue -b."""
    if not alpha > 0:
        raise InvalidArgumentError("cone scale alpha must be positive")
    lam_plus = 0.5 * (lam0 + b)
    lam_minus = 0.5 * (lam0 - b)
    delta = sqrt(lam_minus * lam_minus + 2.0 * alpha * alpha)
    r = lam_minus / delta
    theta = np.array([lam_plus - delta, lam_plus + delta, -b])
    return lam_plus, delta, theta, np.array([1 + r, 1 - r, -2]) / 4


def double_cone_fidelity(lam0: float, b: int, alpha: float, t) -> Union[complex, np.ndarray]:
    """Apex-to-apex amplitude of the double cone, in closed form.

    lam0 is the base's top eigenvalue. Accepts scalar or array t.
    """
    _, _, theta, weight = _double_cone_parts(lam0, b, alpha)
    return _amplitudes(weight, theta, t)


def double_cone_pst_condition(lam0: float, b: int, alpha: float) -> ConditionReport:
    """Transfer between the apexes is perfect iff the frequency ratio
    (lam_plus + b) / Delta is a rational p/q whose multipliers (p, q) have
    an odd sum (even/odd or odd/even); the minimal time is then q*pi/Delta.

    |F| = 1 needs sin(t*Delta) = 0 together with an anti-phase condition
    between the two spectral branches, which is exactly that parity demand.
    """
    lam_plus, delta, _, _ = _double_cone_parts(lam0, b, alpha)
    ratio = (lam_plus + b) / delta
    rec = rational_reconstruct(ratio)
    witness: Dict[str, Any] = {
        "ratio_float": ratio,
        "ratio": None,
        "class": None,
        "delta": delta,
        "time": None,
    }
    if rec is None:
        return ConditionReport(False, witness, "condition fails (irrational ratio)")
    p, q = rec
    tag = classify_rational(p, q)
    witness["ratio"] = [p, q]
    witness["class"] = tag
    _, t = _multipliers((Fraction(p, q), Fraction(1)))
    if t is None:
        return ConditionReport(
            False, witness, f"condition fails (ratio {p}/{q} has odd/odd parity)"
        )
    witness["time"] = t * pi / delta
    return ConditionReport(
        True, witness, f"ratio {p}/{q} in class {tag}; transfer at t = {q}*pi/Delta"
    )


# ---------------------------------------------------------------------------
# glued double cones
# ---------------------------------------------------------------------------

def glued_double_cone(
    g1: Graph, g2: Graph, connection: Union[Graph, np.ndarray]
) -> Graph:
    """Apex + G1 + G2 + apex on 2n+2 vertices.

    Vertex 0 joins every vertex of G1; vertex 2n+1 joins every vertex of G2;
    the 0/1 connection matrix C (constant row sum, commuting with both
    adjacencies) links vertex i of G1 to vertex j of G2 whenever C[i,j]=1.
    C's diagonal entries are ordinary cross edges, so C=I is the perfect
    matching between the copies.
    """
    conn = connection.adj if isinstance(connection, Graph) else np.asarray(connection, dtype=float)
    n = g1.n
    if g2.n != n:
        raise InvalidSizeError("the two glued graphs must have the same order")
    if conn.shape != (n, n):
        raise InvalidSizeError("connection matrix shape must match the glued graphs")
    if not np.array_equal(conn, conn.T):
        raise InvalidArgumentError("connection matrix must be symmetric")
    if not np.all((conn == 0.0) | (conn == 1.0)):
        raise InvalidArgumentError("connection matrix entries must be 0 or 1")
    row_sums = conn.sum(axis=1)
    if not np.all(row_sums == row_sums[0]):
        raise InvalidArgumentError("connection matrix must have constant row sums")
    k1 = regular_degree(g1)
    k2 = regular_degree(g2)
    if k1 is None or k2 is None or abs(k1 - k2) > 1e-12:
        raise InvalidArgumentError("glued graphs must be regular with equal degree")
    for a in (g1.adj, g2.adj):
        if np.max(np.abs(conn @ a - a @ conn)) > 1e-10:
            raise NonCommutingError("connection matrix must commute with both adjacencies")
    apex = [[0.0]]
    return Graph(_layered([apex, g1.adj, g2.adj, apex], {(0, 1): 1.0, (1, 2): conn, (2, 3): 1.0}))


def glued_cone_apexes(g: Graph) -> Tuple[int, int]:
    """Apex indices (0, last) of a glued double cone built here."""
    return 0, g.n - 1


def _validate_nkg(n: int, k: int, gamma: int) -> None:
    if n < 1:
        raise InvalidArgumentError("n must be at least 1")
    if not 0 <= k < n:
        raise InvalidArgumentError("degree k must satisfy 0 <= k < n")
    if not 0 <= gamma <= n:
        raise InvalidArgumentError("connection degree gamma must satisfy 0 <= gamma <= n")


def _glued_branch_data(n: int, k: int, gamma: int):
    """(k_pm, Delta_pm^2) as exact fractions for the two symmetry sectors."""
    k_plus = Fraction(k + gamma, 2)
    k_minus = Fraction(k - gamma, 2)
    return (k_plus, k_plus * k_plus + n), (k_minus, k_minus * k_minus + n)


def glued_cone_pst_condition(n: int, k: int, gamma: int) -> ConditionReport:
    """Exact test for apex-to-apex transfer on a glued double cone whose
    halves are k-regular on n vertices with connection row sum gamma.

    With k_pm = (k +- gamma)/2 and Delta_pm = sqrt(k_pm^2 + n), all apex
    support sits on the four eigenvalues k_pm +- Delta_pm, with swap sign 0
    on the + branch and 1 on the - branch. Their phases align iff t*Delta_plus,
    t*Delta_minus and t*gamma are multiples of pi with an odd multiplier sum,
    so transfer is perfect iff both Delta_pm are rational and the primitive
    multipliers of (Delta_plus, Delta_minus, gamma) have an odd sum (never for
    an eigenvalue on both branches: then gamma = |Delta_plus +- Delta_minus|).

    The witness also records the parity-class shortcut: Delta_plus/Delta_minus
    in {even/odd, odd/even} and at least one gamma/Delta_pm in even/odd. The
    shortcut is sufficient but not necessary, so the exact test decides
    holds, and the detail flags each "yes" the shortcut misses.
    """
    _validate_nkg(n, k, gamma)
    (_, dsq_plus), (_, dsq_minus) = _glued_branch_data(n, k, gamma)
    d_plus = sqrt_rational(dsq_plus)
    d_minus = sqrt_rational(dsq_minus)
    witness: Dict[str, Any] = {
        "delta_plus_sq": dsq_plus,
        "delta_minus_sq": dsq_minus,
        "delta_ratio": None,
        "gamma_ratios": None,
        "time": None,
    }
    if d_plus is None or d_minus is None:
        which = "Delta_plus" if d_plus is None else "Delta_minus"
        return ConditionReport(
            False, witness, f"condition fails (irrational: {which}^2 is not a rational square)"
        )
    ratio = d_plus / d_minus
    g_plus = Fraction(gamma) / d_plus
    g_minus = Fraction(gamma) / d_minus
    tag_ratio = classify_rational(*ratio.as_integer_ratio())
    tags_gamma = tuple(classify_rational(*f.as_integer_ratio()) for f in (g_plus, g_minus))
    witness["delta_ratio"] = ratio
    witness["gamma_ratios"] = (g_plus, g_minus)
    witness["delta_ratio_class"] = tag_ratio
    witness["gamma_ratio_classes"] = tags_gamma
    class_form = tag_ratio in (CLASS_EVEN_OVER_ODD, CLASS_ODD_OVER_EVEN) and (
        CLASS_EVEN_OVER_ODD in tags_gamma
    )
    _, t_exact = _multipliers((d_plus, d_minus, Fraction(gamma)))
    holds = t_exact is not None
    if holds:
        witness["time"] = float(t_exact) * pi
        witness["time_exact"] = t_exact
        detail = (
            f"Delta_plus/Delta_minus = {ratio} ({tag_ratio}), gamma ratios "
            f"{g_plus} ({tags_gamma[0]}), {g_minus} ({tags_gamma[1]})"
        )
        if not class_form:
            detail += _SHORTCUT_DISAGREES
    elif tag_ratio == CLASS_ODD_OVER_ODD:
        detail = f"condition fails (Delta ratio {ratio} has odd/odd parity)"
    else:
        detail = "condition fails (no gamma/Delta ratio is even/odd)"
    return ConditionReport(holds, witness, detail)


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
    return Graph(_layered(blocks, {(i, i + 1): 1.0 for i in range(4)}))


def cylindrical_apexes(g: Graph) -> Tuple[int, int]:
    return 0, g.n - 1


@dataclass(frozen=True)
class NoTransferTrace:
    """Verdict 'no' plus the parity contradiction that proves it."""

    verdict: str
    params: Dict[str, Any]
    requirements: Tuple[str, ...]
    trace: Tuple[str, ...]


def cylindrical_no_pst_check(n: int, k: int, m: int) -> NoTransferTrace:
    """Prove no apex-to-apex perfect transfer on the cylindrical cone built
    from k-regular n-vertex layers around an m-vertex empty middle.

    Perfect transfer would force t*(k/2 +- Delta) to be odd multiples of pi
    and t*(k/2 +- Gamma) even multiples, with Delta^2 = (k/2)^2 + n and
    Gamma^2 = (k/2)^2 + (2m+1)n. Those congruences are always contradictory;
    the returned trace walks the parity case analysis (including the halving
    descent when everything stays even) for these particular (n, k, m).
    """
    _validate_nkg(n, k, 0)  # the n and k checks; gamma = 0 always passes
    if m < 1:
        raise InvalidArgumentError("middle size m must be at least 1")
    big_d = k * k + 4 * n
    big_e = k * k + 4 * (2 * m + 1) * n
    requirements = (
        f"t*(k/2 + Delta) and t*(k/2 - Delta) must be odd multiples of pi, "
        f"with Delta^2 = {big_d}/4",
        f"t*(k/2 + Gamma) and t*(k/2 - Gamma) must be even multiples of pi, "
        f"with Gamma^2 = {big_e}/4",
    )
    trace = []
    params = {"n": n, "k": k, "m": m, "delta_sq": big_d / 4.0, "gamma_sq": big_e / 4.0}

    if k % 2 == 1:
        s = sqrt_rational(big_d)
        if s is None:
            trace.append(
                "k is odd, so t*k lands in 2Z*pi while t*Delta must land in Z*pi, "
                "forcing Delta/k rational"
            )
            trace.append(
                f"but Delta^2 = {big_d}/4 and {big_d} is not a perfect square, so "
                "Delta/k is irrational: contradiction"
            )
        else:
            a_val = (k + s) // 2
            b_val = (k - s) // 2
            trace.append(
                f"Delta = {s}/2 gives integer frequencies {a_val} and {b_val} "
                f"summing to k = {k}, which is odd"
            )
            trace.append(
                f"{a_val} and {b_val} have opposite parity, so t*{a_val} and "
                f"t*{b_val} cannot both be odd multiples of pi: contradiction"
            )
        return NoTransferTrace("no", params, requirements, tuple(trace))

    kt = k // 2
    n1 = n
    depth = 0
    while True:
        note = "" if depth == 0 else f" (after {depth} halving step(s): t -> {2 ** depth}t)"
        d2 = kt * kt + n1
        e2 = kt * kt + (2 * m + 1) * n1
        if kt == 0:
            r = sqrt_rational(2 * m + 1)
            if r is not None:
                trace.append(
                    f"k/2 = 0{note}: t*Delta must be an odd multiple of pi and "
                    f"t*Gamma an even one, with Gamma = {r}*Delta"
                )
                trace.append(
                    f"{r} is odd, so t*Gamma = {r}*(t*Delta) is an odd multiple "
                    "of pi as well: contradiction"
                )
            else:
                trace.append(
                    f"k/2 = 0{note}: t*Delta in Z*pi and t*Gamma in Z*pi force "
                    f"Gamma/Delta = sqrt({2 * m + 1}) rational"
                )
                trace.append(
                    f"{2 * m + 1} is not a perfect square: contradiction"
                )
            break
        delta, gam = sqrt_rational(d2), sqrt_rational(e2)
        if delta is None or gam is None:
            name, sq = ("Delta", d2) if delta is None else ("Gamma", e2)
            trace.append(
                f"current frequencies{note} need t*{kt} in Z*pi and t*{name} in Z*pi, "
                f"forcing {name}/{kt} rational"
            )
            trace.append(f"but {name}^2 = {sq} is not a perfect square: contradiction")
            break
        lam = (kt + delta, kt - delta)
        mu = (kt + gam, kt - gam)
        if n1 % 2 == 1:
            trace.append(
                f"integer frequencies{note}: lambda = {lam[0]}, {lam[1]} and "
                f"mu = {mu[0]}, {mu[1]} are all odd"
            )
            trace.append(
                "t*lambda odd multiples and t*mu even multiples of pi with all "
                "four odd is impossible (odd*mu = even*lambda): contradiction"
            )
            break
        if kt % 2 == 1:
            trace.append(
                f"integer frequencies{note}: lambda = {lam[0]}, {lam[1]} are both "
                f"even and sum to 2*{kt} = 2 mod 4, so exactly one is divisible by 4"
            )
            trace.append(
                "t*lambda odd multiples of pi for both would force an odd/odd "
                "ratio between numbers of different 2-adic valuation: contradiction"
            )
            break
        # kt even and n1 even; squareness of d2 forces 4 | n1, so the whole
        # instance halves cleanly and the requirements keep their shape.
        trace.append(
            f"all frequencies even{note}: halve the instance "
            f"(k/2: {kt} -> {kt // 2}, n: {n1} -> {n1 // 4}) and double t"
        )
        kt //= 2
        n1 //= 4
        depth += 1
    return NoTransferTrace("no", params, requirements, tuple(trace))


# ---------------------------------------------------------------------------
# weighted 4-paths
# ---------------------------------------------------------------------------

def _check_p4_gamma(gamma: float) -> None:
    if not gamma > 0:
        raise InvalidArgumentError("middle weight gamma must be positive")


def weighted_p4(gamma: float, kappa: float = 0.0) -> Graph:
    """Path 0-1-2-3 with outer weights 1, middle weight gamma, and loops of
    weight kappa on the two internal vertices."""
    _check_p4_gamma(gamma)
    return path_graph((1.0, gamma, 1.0), (0.0, kappa, kappa, 0.0))


def p4_pst_condition(gamma: float, kappa: float = 0.0) -> ConditionReport:
    """End-to-end transfer test for the weighted 4-path.

    With Delta_pm = sqrt((kappa +- gamma)^2 + 4)/2, perfect transfer needs a
    time t with t*Delta_plus, t*Delta_minus and t*gamma all integer multiples
    of pi whose three multipliers sum to an odd number. When Delta_pm/gamma
    are rational that is the parity of the primitive multiplier triple of
    (Delta_plus/gamma, Delta_minus/gamma, 1); the minimal time is then
    d*pi/gamma for the triple's gamma component d.

    The witness also records the parity-class shortcut on Delta and gamma
    ratios ("class_form"); the exact triple-parity test is what decides
    holds, and the detail calls out the rare inputs where the shortcut
    disagrees.
    """
    _check_p4_gamma(gamma)
    d_plus = 0.5 * sqrt((kappa + gamma) ** 2 + 4.0)
    d_minus = 0.5 * sqrt((kappa - gamma) ** 2 + 4.0)
    witness: Dict[str, Any] = {
        "delta_plus": d_plus,
        "delta_minus": d_minus,
        "case": "loops" if kappa != 0.0 else "no-loops",
        "triple": None,
        "class_form": None,
        "time": None,
    }
    # a rational ratio reproduces to a few ulp, one sqrt away from Delta_pm;
    # the default 1e-9 lets sqrt(1 + 1e-10) pass as 1
    r_plus, r_minus = (rational_reconstruct(d / gamma, tol=1e-12) for d in (d_plus, d_minus))
    if r_plus is None or r_minus is None or 0 in (r_plus[0], r_minus[0]):
        return ConditionReport(
            False, witness, "condition fails (irrational Delta/gamma ratio)"
        )
    fp = Fraction(*r_plus)
    fm = Fraction(*r_minus)
    triple, t = _multipliers((fp, fm, Fraction(1)))
    witness["triple"] = list(triple)
    feasible = t is not None

    # Parity-class shortcut, kept for cross-checking.
    if kappa == 0.0:
        tag = classify_rational(*(1 / fp).as_integer_ratio())  # gamma / Delta
        class_form = tag in (CLASS_ODD_OVER_EVEN, CLASS_ODD_OVER_ODD)
        witness["class_form"] = class_form
        witness["gamma_delta_class"] = tag
    else:
        ratio = fp / fm
        tag_ratio = classify_rational(*ratio.as_integer_ratio())
        tags = [classify_rational(*(1 / f).as_integer_ratio()) for f in (fp, fm)]
        class_form = tag_ratio in (CLASS_EVEN_OVER_ODD, CLASS_ODD_OVER_EVEN) and any(
            tg in (CLASS_EVEN_OVER_ODD, CLASS_ODD_OVER_ODD) for tg in tags
        )
        witness["class_form"] = class_form
        witness["delta_ratio_class"] = tag_ratio
        witness["gamma_delta_classes"] = tags

    if feasible:
        witness["time"] = triple[2] * pi / gamma
        detail = (
            f"primitive multiplier triple {triple} has odd sum; transfer at "
            f"t = {triple[2]}*pi/gamma"
        )
    else:
        detail = f"condition fails (multiplier triple {triple} has even sum)"
    if feasible != class_form:
        detail += _SHORTCUT_DISAGREES
    return ConditionReport(feasible, witness, detail)
