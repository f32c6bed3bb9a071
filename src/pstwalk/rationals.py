"""Exact rational helpers: parity classes, recovery from floats, and the
parity-alignment searches that sit underneath the transfer certificates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import List, Optional, Sequence, Tuple

from .errors import InvalidArgumentError

__all__ = [
    "CLASS_EVEN_OVER_ODD",
    "CLASS_ODD_OVER_EVEN",
    "CLASS_ODD_OVER_ODD",
    "classify_rational",
    "rational_reconstruct",
    "sqrt_rational",
    "minimal_phase_alignment",
    "minimal_absolute_alignment",
]

# Parity classes of a reduced fraction p/q: the label is (p mod 2, q mod 2).
# q even with p even cannot occur after reduction, so three classes exist.
CLASS_EVEN_OVER_ODD = "Q01"
CLASS_ODD_OVER_EVEN = "Q10"
CLASS_ODD_OVER_ODD = "Q11"


def classify_rational(p: int, q: int) -> str:
    """Parity class of p/q after reduction to lowest terms with q > 0."""
    if q == 0:
        raise InvalidArgumentError("denominator must be nonzero")
    f = Fraction(p, q)
    num, den = f.numerator, f.denominator
    if num % 2 == 0:
        return CLASS_EVEN_OVER_ODD
    return CLASS_ODD_OVER_EVEN if den % 2 == 0 else CLASS_ODD_OVER_ODD


def rational_reconstruct(
    x: float, max_den: int = 10**6, tol: float = 1e-9
) -> Optional[Tuple[int, int]]:
    """Recover p/q from a float, or None when x does not look rational.

    Walks the continued-fraction convergents of x and accepts only an
    "anomalously good" one: the expansion either terminates or the next
    partial quotient explodes past max_den, and the convergent reproduces x
    to within tol relative accuracy with denominator at most max_den.
    Quadratic irrationals have tame partial quotients, so they fall through
    to None instead of being assigned an enormous spurious denominator.
    """
    if not (max_den >= 1):
        raise InvalidArgumentError("max_den must be at least 1")
    if x != x or x in (float("inf"), float("-inf")):
        return None
    sign = -1 if x < 0 else 1
    y = abs(x)
    scale = tol * (1.0 + abs(x))

    # Convergent recurrences: p_k = a_k p_{k-1} + p_{k-2}, same for q.
    p_prev, q_prev = 1, 0
    a0 = int(y)
    p_cur, q_cur = a0, 1
    frac = y - a0
    for _ in range(64):
        if q_cur > max_den:
            return None
        err = abs(y - p_cur / q_cur)
        if frac < 1e-15:
            # Expansion terminated: x is exactly this convergent.
            if err <= scale:
                return (sign * p_cur, q_cur)
            return None
        nxt = 1.0 / frac
        a = int(nxt)
        if a > max_den:
            # Next partial quotient is huge: current convergent is anomalously
            # good, which is the signature of an actual rational plus noise.
            if err <= scale:
                return (sign * p_cur, q_cur)
            return None
        frac = nxt - a
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return None


def sqrt_rational(f: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if f < 0:
        raise InvalidArgumentError("sqrt_rational needs a nonnegative argument")
    num, den = f.numerator, f.denominator
    rn = isqrt(num)
    rd = isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _divisors_descending(n: int) -> List[int]:
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return large + small[::-1]


def _parity_pattern(deltas: Sequence[int], v: int) -> Tuple[int, ...]:
    return tuple((d // v) % 2 for d in deltas)


def minimal_phase_alignment(
    deltas: Sequence[int], parities: Sequence[int]
) -> Optional[Fraction]:
    """Smallest positive rational tau with tau * delta_j = parity_j (mod 2).

    The deltas are integer eigenvalue differences against a reference value
    (reference excluded, so every entry is nonzero); parities are the sign
    flips relative to the same reference. Returns None when no rational tau
    can realize the required parity pattern.

    For tau = u/v in lowest terms, v must divide g = gcd(deltas). With u odd,
    u * (delta_j / v) is odd exactly when delta_j / v is, so the reachable
    pattern depends only on v; with u even every product is even. Minimal tau
    is therefore 1/v for the largest feasible divisor v, or 2/g when only the
    all-even pattern works.
    """
    if len(deltas) != len(parities):
        raise InvalidArgumentError("deltas and parities must have equal length")
    if any(d == 0 for d in deltas):
        raise InvalidArgumentError("deltas must be nonzero")
    target = tuple(int(p) % 2 for p in parities)
    if not deltas:
        # Only the reference cluster exists; any tau works, so pick 1.
        return Fraction(1)
    g = gcd(*[abs(d) for d in deltas]) if len(deltas) > 1 else abs(deltas[0])
    for v in _divisors_descending(g):
        if _parity_pattern(deltas, v) == target:
            return Fraction(1, v)
    if all(p == 0 for p in target):
        return Fraction(2, g)
    return None


def minimal_absolute_alignment(
    multipliers: Sequence[int], parities: Sequence[int]
) -> Optional[Fraction]:
    """Smallest positive rational tau with tau * m_j = p_j (mod 2) for all j.

    Unlike the relative solver, the congruences here are absolute: a zero
    multiplier forces its parity to be zero outright. Used when some exact
    integer eigenvalue (typically 0) pins the global phase.
    """
    if len(multipliers) != len(parities):
        raise InvalidArgumentError("multipliers and parities must have equal length")
    target = [int(p) % 2 for p in parities]
    nonzero = [(m, p) for m, p in zip(multipliers, target) if m != 0]
    for m, p in zip(multipliers, target):
        if m == 0 and p != 0:
            return None
    if not nonzero:
        return Fraction(1) if all(p == 0 for p in target) else None
    ms = [abs(m) for m, _ in nonzero]
    ps = [p for _, p in nonzero]
    g = gcd(*ms) if len(ms) > 1 else ms[0]
    for v in _divisors_descending(g):
        if _parity_pattern(ms, v) == tuple(ps):
            return Fraction(1, v)
    if all(p == 0 for p in ps):
        return Fraction(2, g)
    return None
