"""Numeric conventions: the global tolerance and exact-rational phases.

Twist exponents are kept as exact ``Fraction`` values everywhere; floats only
appear when a phase is actually evaluated.  Equality decisions (T-sparsity,
the unit and conjugation laws of the twists) are therefore combinatorial,
never float comparisons.

Every phase comes from one integer core, ``root_of_unity(j, H)`` =
e^{2 pi i j/H}: the quarter turn is split off in integers and the rest,
an exact rational of at most 1/4 turn, is rounded once by Python's
correctly rounded integer division.  Callers that hold twists as integer
numerators over a common denominator (``TwistData.numerators``) evaluate
each phase without building a ``Fraction``.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NumericError

DEFAULT_TOL = 1e-9

# exact values of i**k for quadrant reduction
_QUARTER = (1 + 0j, 1j, -1 + 0j, -1j)


def tolerance(value: float | str | None = None) -> float:
    """``value``, or when None the global tolerance 1e-9, as a float: the one
    rule for every tolerance is finite and > 0, and any other value is a
    ValueError."""
    if value is None:
        return DEFAULT_TOL
    if not 0 < float(value) < math.inf:
        raise ValueError(f"a tolerance must be finite and > 0, got {value!r}")
    return float(value)


def scaled_tol(tol: float, n: int) -> float:
    """Residual threshold for an identity between n x n matrices."""
    return tol * max(n, 1)


def mod1(x: Fraction) -> Fraction:
    """Canonical representative of x in [0, 1)."""
    x = Fraction(x)
    return Fraction(x.numerator % x.denominator, x.denominator)


def root_of_unity(j: int, H: int) -> complex:
    """e^{2 pi i j/H} for Python ints 0 <= j < H; (j, H) need not be reduced.

    The quarter turn q = floor(4j/H) is split off in integers, so multiples
    of 1/4 evaluate to exact unit-circle points (1, i, -1, -i).  The rest,
    (4j - qH)/(4H) of a turn, is rounded once by integer true division.
    """
    quarter, rest = divmod(4 * j, H)
    base = _QUARTER[quarter]
    if rest == 0:
        return base
    angle = 2.0 * math.pi * (rest / (4 * H))
    return base * complex(math.cos(angle), math.sin(angle))


def unit_phase(t: Fraction) -> complex:
    """e^{2 pi i t} for exact rational t."""
    t = Fraction(t)
    return root_of_unity(t.numerator % t.denominator, t.denominator)


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
