"""Numeric conventions: the global tolerance and exact-rational phases.

Twist exponents are kept as exact ``Fraction`` values everywhere; floats only
appear when a phase is actually evaluated.  Equality decisions (T-sparsity,
monodromy triviality) are therefore combinatorial, never float comparisons.
"""
from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from .errors import NumericError

DEFAULT_TOL = 1e-9
TOL_ENV = "FUSIONKIT_TOL"

# exact values of i**k for quadrant reduction
_QUARTER = (1 + 0j, 1j, -1 + 0j, -1j)


def default_tolerance() -> float:
    """Global tolerance: FUSIONKIT_TOL if set, else 1e-9."""
    raw = os.environ.get(TOL_ENV)
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{TOL_ENV} must parse as a float, got {raw!r}") from None
    if not value > 0:
        raise ValueError(f"{TOL_ENV} must be positive, got {value!r}")
    return value


def scaled_tol(tol: float | None, n: int) -> float:
    """Residual threshold for an identity between n x n matrices."""
    base = default_tolerance() if tol is None else tol
    return base * max(n, 1)


def mod1(x: Fraction) -> Fraction:
    """Canonical representative of x in [0, 1)."""
    x = Fraction(x)
    return Fraction(x.numerator % x.denominator, x.denominator)


def unit_phase(t: Fraction) -> complex:
    """e^{2 pi i t} for exact rational t.

    The argument is reduced to a quarter turn before calling trig functions,
    so multiples of 1/4 evaluate to exact unit-circle points (1, i, -1, -i).
    """
    t = mod1(t)
    quarter = (4 * t.numerator) // t.denominator  # in 0..3
    rest = t - Fraction(quarter, 4)
    base = _QUARTER[quarter]
    if rest == 0:
        return base
    angle = 2.0 * math.pi * float(rest)
    return base * complex(math.cos(angle), math.sin(angle))


def phase_vector(ts) -> np.ndarray:
    out = np.array([unit_phase(t) for t in ts], dtype=complex)
    out.flags.writeable = False
    return out


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def exact_float(bound: int, what: str) -> type:
    """The float type in which integer sums up to ``bound`` are exact.

    ``bound`` is an integer upper bound on every partial sum of a product of
    non-negative integer arrays: float32 is exact below 2^24 and float64
    below 2^53; a larger bound raises ``NumericError`` naming ``what``
    rather than compare rounded sums.
    """
    if bound < 2 ** 24:
        return np.float32
    if bound < 2 ** 53:
        return np.float64
    raise NumericError(f"{what} are not exact in float64")


def readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a
