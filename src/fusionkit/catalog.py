"""Built-in braided fusion-ring fixtures.

Families:

* ``su2_level(k)`` -- the level-k SU(2) WZW ring on labels a = 0..k with
  truncated Clebsch-Gordan fusion and twist exponents a(a+2)/(4(k+2)).
* ``cyclic_model(n, q)`` -- pointed Z_n fusion with the quadratic twist
  q j^2 / (2n).  No validity or non-degeneracy claim is made for every (n, q):
  for odd n the exponents are conjugation-symmetric only when q is even, and
  callers probe degeneracy themselves (q = 0 gives the fully degenerate case).
* ``named_model(name)`` -- trivial, fibonacci, ising.

All constructors are pure.  The CLI ``gen`` subcommands call them directly;
``CATALOG`` names a corpus of models, each a constructor with its arguments
bound, for the tests and the documentation.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial

import numpy as np

from .errors import StructureError
from .modular import TwistData
from .rings import FusionRing, _ranges


def su2_level(k: int) -> tuple[FusionRing, TwistData]:
    """SU(2)_k data: labels 0..k, self-dual, N[a,b]^c = 1 on the truncated
    Clebsch-Gordan range, h_a = a(a+2)/(4(k+2))."""
    if k < 1:
        raise StructureError(f"level must be >= 1, got {k}")
    labels = [str(a) for a in range(k + 1)]
    a, b = np.indices((k + 1, k + 1)).reshape(2, -1)
    lo, hi = abs(a - b), np.minimum(a + b, 2 * k - a - b)
    count = (hi - lo) // 2 + 1  # channels c = lo, lo + 2, ..., hi
    c = np.repeat(lo, count) + 2 * _ranges(0, count)
    rows = np.stack([np.repeat(a, count), np.repeat(b, count), c, np.ones_like(c)], axis=1)
    ring = FusionRing(labels, 0, list(range(k + 1)), rows)
    twists = TwistData(Fraction(a * (a + 2), 4 * (k + 2)) for a in range(k + 1))
    return ring, twists


def cyclic_model(n: int, q: int) -> tuple[FusionRing, TwistData]:
    """Z_n fusion (addition mod n), dual j -> -j, h_j = q j^2 / (2n) mod 1."""
    if n < 1:
        raise StructureError(f"order must be >= 1, got {n}")
    labels = [str(j) for j in range(n)]
    a, b = np.indices((n, n)).reshape(2, -1)
    rows = np.stack([a, b, (a + b) % n, np.ones_like(a)], axis=1)
    ring = FusionRing(labels, 0, [(-j) % n for j in range(n)], rows)
    twists = TwistData(Fraction(q * j * j, 2 * n) for j in range(n))
    return ring, twists


def named_model(name: str) -> tuple[FusionRing, TwistData]:
    """Small named fixtures: trivial, fibonacci, ising."""
    if name == "trivial":
        return cyclic_model(1, 0)
    if name == "fibonacci":
        labels = ["0", "tau"]
        fusion = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                  (1, 1, 0): 1, (1, 1, 1): 1}
        ring = FusionRing(labels, 0, [0, 1], fusion)
        return ring, TwistData([Fraction(0), Fraction(2, 5)])
    if name == "ising":
        labels = ["0", "sigma", "psi"]
        fusion = {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1,
                  (1, 0, 1): 1, (2, 0, 2): 1,
                  (1, 1, 0): 1, (1, 1, 2): 1,
                  (1, 2, 1): 1, (2, 1, 1): 1,
                  (2, 2, 0): 1}
        ring = FusionRing(labels, 0, [0, 1, 2], fusion)
        return ring, TwistData([Fraction(0), Fraction(1, 16), Fraction(1, 2)])
    raise StructureError(f"unknown named model {name!r}")


# model corpus used by tests and the documentation; every entry has valid
# twist data (cyclic models with odd order appear only with even q)
CATALOG = {
    **{f"su2_{k}": partial(su2_level, k) for k in range(1, 17)},
    "trivial": partial(named_model, "trivial"),
    "fibonacci": partial(named_model, "fibonacci"),
    "ising": partial(named_model, "ising"),
    "semion": partial(cyclic_model, 2, 1),
    "fermion": partial(cyclic_model, 2, 2),
    "rep_z2": partial(cyclic_model, 2, 0),
    "rep_z3": partial(cyclic_model, 3, 0),
    "rep_z4": partial(cyclic_model, 4, 0),
    "rep_z5": partial(cyclic_model, 5, 0),
    "rep_z6": partial(cyclic_model, 6, 0),
    "cyclic_3_2": partial(cyclic_model, 3, 2),
    "cyclic_4_1": partial(cyclic_model, 4, 1),
    "cyclic_4_2": partial(cyclic_model, 4, 2),
}


def catalog_models():
    """Yield (name, ring, twists) for every catalog entry."""
    for name, build in CATALOG.items():
        yield name, *build()
