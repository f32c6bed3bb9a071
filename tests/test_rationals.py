import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import InvalidArgumentError


# ---------------------------------------------------------------------------
# parity classes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "p,q,tag",
    [
        (2, 1, "Q01"),
        (4, 6, "Q01"),  # reduces to 2/3
        (1, 2, "Q10"),
        (3, 4, "Q10"),
        (1, 1, "Q11"),
        (9, 15, "Q11"),  # 3/5
        (-2, 3, "Q01"),
        (0, 5, "Q01"),  # 0/1
    ],
)
def test_classify_rational(p, q, tag):
    assert pw.classify_rational(p, q) == tag


def test_classify_rational_rejects_zero_denominator():
    with pytest.raises(InvalidArgumentError):
        pw.classify_rational(1, 0)


# ---------------------------------------------------------------------------
# continued-fraction reconstruction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "x,expected",
    [
        (0.5, (1, 2)),
        (2.0 / 3.0, (2, 3)),
        (1.0, (1, 1)),
        (-0.25, (-1, 4)),
        (1.0 / 7.0, (1, 7)),
        (355.0 / 113.0, (355, 113)),
        (0.0, (0, 1)),
    ],
)
def test_reconstruct_exact_rationals(x, expected):
    assert pw.rational_reconstruct(x) == expected


@pytest.mark.parametrize("x", [math.pi, math.sqrt(2), math.e, (1 + math.sqrt(5)) / 2])
def test_reconstruct_rejects_irrationals(x):
    assert pw.rational_reconstruct(x) is None


def test_reconstruct_rejects_non_finite():
    assert pw.rational_reconstruct(float("nan")) is None
    assert pw.rational_reconstruct(float("inf")) is None


def test_reconstruct_respects_max_denominator():
    x = 1.0 / 1000003.0  # prime > default bound
    assert pw.rational_reconstruct(x, max_den=10**6) is None
    assert pw.rational_reconstruct(x, max_den=10**7) == (1, 1000003)


def test_reconstruct_random_fractions(rng):
    for _ in range(300):
        p = int(rng.integers(-500, 501))
        q = int(rng.integers(1, 500))
        got = pw.rational_reconstruct(p / q)
        f = Fraction(p, q)
        assert got == (f.numerator, f.denominator)


def test_reconstruct_survives_roundoff():
    # value arrives through a sqrt, as the cone ratios do
    x = math.sqrt(16.0) / math.sqrt(64.0)  # 1/2 up to roundoff
    assert pw.rational_reconstruct(x) == (1, 2)


# ---------------------------------------------------------------------------
# rational square roots
# ---------------------------------------------------------------------------

def test_sqrt_rational():
    assert pw.sqrt_rational(Fraction(64)) == 8
    assert pw.sqrt_rational(Fraction(9, 4)) == Fraction(3, 2)
    assert pw.sqrt_rational(Fraction(2)) is None
    assert pw.sqrt_rational(Fraction(0)) == 0
    with pytest.raises(InvalidArgumentError):
        pw.sqrt_rational(Fraction(-4))


# ---------------------------------------------------------------------------
# phase-alignment solver
# ---------------------------------------------------------------------------

def _alignment_ok(tau: Fraction, deltas, parities) -> bool:
    for d, p in zip(deltas, parities):
        v = tau * d
        if v.denominator != 1 or v.numerator % 2 != p:
            return False
    return True


def _brute_force_minimum(deltas, parities):
    """Smallest tau = u/v with v | gcd(deltas) and u in {1, 2}."""
    g = gcd(*(abs(d) for d in deltas)) if len(deltas) > 1 else abs(deltas[0])
    best = None
    for v in range(1, g + 1):
        if g % v:
            continue
        for u in (1, 2):
            tau = Fraction(u, v)
            if _alignment_ok(tau, deltas, parities):
                if best is None or tau < best:
                    best = tau
    return best


def test_alignment_known_cases():
    # hypercube-style: consecutive differences, alternating parity
    assert pw.minimal_phase_alignment((-1, -2, -3), (1, 0, 1)) == 1
    # all-even target needs tau = 2/g when no odd multiple fits
    assert pw.minimal_phase_alignment((2, 4), (0, 0)) == 1
    assert pw.minimal_phase_alignment((1, 2), (0, 0)) == 2
    # infeasible: same delta, opposite parities
    assert pw.minimal_phase_alignment((2, 2), (0, 1)) is None
    # scaled hypercube pattern
    assert pw.minimal_phase_alignment((-4, -8, -12), (1, 0, 1)) == Fraction(1, 4)


def test_alignment_empty_is_trivial():
    assert pw.minimal_phase_alignment((), ()) == 1


def test_alignment_rejects_zero_deltas():
    with pytest.raises(InvalidArgumentError):
        pw.minimal_phase_alignment((0, 2), (0, 0))


def test_alignment_matches_brute_force(rng):
    for _ in range(400):
        k = int(rng.integers(1, 6))
        deltas = []
        while len(deltas) < k:
            d = int(rng.integers(-24, 25))
            if d != 0:
                deltas.append(d)
        parities = [int(b) for b in rng.integers(0, 2, size=k)]
        got = pw.minimal_phase_alignment(tuple(deltas), tuple(parities))
        want = _brute_force_minimum(deltas, parities)
        assert got == want, (deltas, parities)
        if got is not None:
            assert _alignment_ok(got, deltas, parities)


def test_alignment_recovers_planted_solutions(rng):
    # plant tau = u/v, read off the parities it induces, ask the solver; the
    # last rounds plant v = 3 * 2**40, far past any divisor search
    for i in range(220):
        v = int(rng.integers(1, 13)) if i < 200 else 3 * 2**40
        u = 1 if rng.random() < 0.7 else 2
        tau = Fraction(u, v)
        k = int(rng.integers(1, 6))
        deltas = [int(rng.integers(1, 8)) * v * (1 if rng.random() < 0.5 else -1) for _ in range(k)]
        parities = [(tau * d).numerator % 2 for d in deltas]
        got = pw.minimal_phase_alignment(tuple(deltas), tuple(parities))
        assert got is not None
        assert got <= tau
        assert _alignment_ok(got, deltas, parities)


def test_absolute_alignment_handles_zero_multiplier():
    # a zero multiplier pins that phase to parity 0
    assert pw.minimal_absolute_alignment((0, 1, 2), (0, 1, 0)) == 1
    assert pw.minimal_absolute_alignment((0, 1), (1, 0)) is None
    assert pw.minimal_absolute_alignment((0, 0), (0, 0)) == 1


def _brute_force_absolute(multipliers, parities):
    """Smallest tau = u/v, 1 <= v <= max|m|, 0 < u <= 2v, with
    u * m_j / v an integer of parity p_j for every j, by trying them all."""
    best = None
    for v in range(1, max(1, *(abs(m) for m in multipliers)) + 1):
        for u in range(1, 2 * v + 1):
            if all((u * m) % v == 0 and (u * m // v) % 2 == p
                   for m, p in zip(multipliers, parities)):
                tau = Fraction(u, v)
                best = tau if best is None or tau < best else best
                break  # larger u only gives larger tau for this v
    return best


def test_absolute_alignment_matches_brute_force(rng):
    for _ in range(300):
        k = int(rng.integers(1, 6))
        mults = [int(m) for m in rng.integers(-12, 13, size=k)]
        parities = [int(b) for b in rng.integers(0, 2, size=k)]
        got = pw.minimal_absolute_alignment(tuple(mults), tuple(parities))
        assert got == _brute_force_absolute(mults, parities), (mults, parities)


def test_absolute_and_relative_agree_after_differencing(rng):
    for _ in range(150):
        k = int(rng.integers(2, 6))
        mults = sorted({int(m) for m in rng.integers(0, 30, size=k)}, reverse=True)
        if len(mults) < 2:
            continue
        parities = [int(b) for b in rng.integers(0, 2, size=len(mults))]
        absolute = pw.minimal_absolute_alignment(tuple(mults), tuple(parities))
        rel_deltas = tuple(m - mults[0] for m in mults[1:])
        if any(d == 0 for d in rel_deltas):
            continue
        rel_parities = tuple(p ^ parities[0] for p in parities[1:])
        relative = pw.minimal_phase_alignment(rel_deltas, rel_parities)
        # absolute feasibility implies relative feasibility (not conversely:
        # the relative problem forgets the reference phase itself)
        if absolute is not None:
            assert relative is not None
            assert relative <= absolute
