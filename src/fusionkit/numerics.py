"""Numeric conventions: one rule for each float-versus-exact decision.

* integrality: a float that stands for an integer (a Verlinde sum, a Z
  entry, a block size s^2, a dimension residual) passes within ``INT_TOL``;
* exact integers: ``exact_int`` and ``exact_float`` pick the type in which
  integer sums up to a bound are exact;
* rank: ``zero_mask`` counts values at most a cutoff as zero and refuses
  any within a decade of it (the commutant, the center, the trace form).

The other constants mean other things: ``DEFAULT_TOL`` is the caller's
``tol`` for matrix identities, ``rings._PF_TOL`` stops the power iteration,
the 1e-8 floors of the Perron-Frobenius residual and the central-charge
phase allow for the error of the iterated dimensions, ``algebras._RANK_RTOL``
is a cutoff relative to the largest singular value, and the 1e-9 floors of
the pivot cells and the interval propagator drop float noise.

Twist exponents are exact ``Fraction`` values, so T-sparsity and the twist
laws are decided exactly; each phase is one ``root_of_unity`` call.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NumericError, RankAmbiguityError

DEFAULT_TOL = 1e-9
INT_TOL = 1e-6

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
    """The float type in which integer sums up to ``bound``, a bound on every
    partial sum of a product of non-negative integer arrays, are exact:
    float32 below 2^24, float64 below 2^53, else ``NumericError`` (``what``)."""
    if bound < 2 ** 24:
        return np.float32
    if bound < 2 ** 53:
        return np.float64
    raise NumericError(f"{what} are not exact in float64")


def exact_int(bound: int) -> type:
    """The integer type in which integer sums up to ``bound`` are exact:
    int64 below 2^63, else ``object`` (Python ints)."""
    return np.int64 if bound < 2 ** 63 else object


def zero_mask(values: np.ndarray, cutoff: float, what: str) -> np.ndarray:
    """Which non-negative ``values`` count as zero (at most ``cutoff``); any
    value within a decade of it raises ``RankAmbiguityError`` naming ``what``."""
    near = values[(cutoff / 10.0 < values) & (values < cutoff * 10.0)].tolist()
    if near:
        raise RankAmbiguityError(f"{what} {near} within a decade of cutoff {cutoff:.1e}; "
                                 "raise precision or adjust the tolerance")
    return values <= cutoff


def readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a
