"""Semisimple based algebras given by non-negative integer structure constants.

The main operation splits such an algebra into simple matrix blocks, once
its trace form Tr L(x y) has full rank: its kernel is the radical.  The
center is the nullspace of the commutator constraints with the generating
set G only, |G| n rows instead of n^2, by the rule of the ``rings`` module
docstring.  A random complex central element z is drawn and its left
multiplication matrix is summed from the sparse columns.  On the center,
L(z) has one eigenvector f per simple block, a multiple of the block's
central idempotent e, and the block's size s is read off the trace form by
a ratio in which the multiple cancels: s^2 = Tr L(e) = Tr L(f)^2 / Tr L(f f)
(Dixon, Numer. Math. 10, 1967, reads characters off class-sum eigenvectors).
The coefficients are complex and z is not made self-adjoint.  A real
self-adjoint z gives a block and its conjugate one eigenvalue, which mixes
their eigenvectors on every draw.  A real or a self-adjoint z puts the
eigenvalues of the self-conjugate blocks (all of them, for SU(2)_k) on a
line, about scale/n^2 apart, where the eigenvectors lose digits: on
SU(2)_240 the integrality distance grows from about 2e-13 to 2e-11.

The block profile is what pairs with a mass matrix: the multiset of nonzero
Z entries must equal the multiset of block sizes, and the algebra is
commutative exactly when all blocks are 1x1, i.e. when Z is 0/1-valued.

Storage and checks are those of ``rings.FusionRing``: the structure
constants live only in four read-only int64 arrays (a, b, c, mult) sorted by
(a, b, c), and validation and decomposition read only these ``columns()``.
The involution law gathers each entry's mirror from a scratch array of the
flat cells (``rings._flat_table``), the dimension vector and the trace form
are sums from one ``np.bincount``, and the commutator rows of the center
are scattered from each generator's column (a mask) and row (a slice).
Associativity is ``rings._associativity_violations``, as the ``rings``
module docstring describes it; it needs no unit label (the matrix units
e11, e12, e21 generate M2).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import NumericError, StructureError
from .numerics import INT_TOL, zero_mask
from .rings import (ValidationReport, Violation, _antiautomorphism_violations,
                    _associativity_violations, _int_array, _involution_violations,
                    _precheck_labels, _row, _sequence, _SparseStructure, _unit_violations)

_RANK_RTOL = 1e-7  # singular-value threshold, relative to the largest
_MAX_DRAWS = 8  # random central elements tried before giving up


class BasedAlgebra(_SparseStructure):
    """Finite-dimensional algebra with a distinguished basis.

    Structure constants N[b,b']^{b''} are non-negative integers; the
    involution is a basis permutation acting as an anti-automorphism.  The
    unit index is optional because natural examples (a full matrix algebra in
    its matrix-unit basis) have a unit that is not a basis element.  An
    optional positive dimension vector ``dims`` may be attached.
    """

    __slots__ = ("dims",)

    def __init__(self, labels, unit, dual, structure, dims=None):
        super().__init__(labels, unit, dual, structure)
        if dims is not None:
            dims = _sequence(dims, "dimension vector")
            if len(dims) != self.size or not all(
                    isinstance(x, Real) and not isinstance(x, bool) and 0 < x < math.inf
                    for x in dims):
                raise StructureError("dimension vector must be per-basis positive")
            dims = tuple(float(x) for x in dims)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_group_table(cls, table) -> "BasedAlgebra":
        """Group algebra on labels g0, g1, ... from table[i][j] = index of g_i g_j."""
        t = _int_array(table)
        n = 0 if t is None else len(t)
        if t is None or t.shape != (n, n):
            raise StructureError("multiplication table must be a square array of integers")
        e = np.arange(n)
        units = np.flatnonzero(np.all(t == e, axis=1) & np.all(t.T == e, axis=1))
        if not units.size:
            raise StructureError("multiplication table has no unit element")
        inverses = t == units[0]
        bad = np.flatnonzero(np.count_nonzero(inverses, axis=1) != 1)
        if bad.size:
            raise StructureError(f"element {bad[0]} does not have a unique inverse")
        a, b = np.indices((n, n)).reshape(2, -1)
        return cls([f"g{i}" for i in range(n)], int(units[0]), np.argmax(inverses, axis=1),
                   np.stack([a, b, t.reshape(-1), np.ones_like(a)], axis=1))

    def _key(self) -> tuple:
        return super()._key() + (self.dims,)


@dataclass(frozen=True)
class BlockProfile:
    """Simple block sizes, sorted descending; sum of squares is the dimension."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(sorted((int(s) for s in self.sizes), reverse=True)))

    @property
    def dimension(self) -> int:
        return sum(s * s for s in self.sizes)


def validate_based_algebra(alg: BasedAlgebra) -> ValidationReport:
    """Unit axiom (when a unit index is given), associativity, the involution
    anti-automorphism law, and multiplicativity of the dimension vector when
    one is attached."""
    unit_bad = [] if alg.unit is None else _unit_violations(alg)
    out: list[Violation] = list(unit_bad)
    out += _involution_violations(alg.dual)
    out += _antiautomorphism_violations(alg)
    out += _associativity_violations(alg, _precheck_labels(alg, not unit_bad))
    if alg.dims is not None:
        n, d = alg.size, np.array(alg.dims)
        a, b, c, mult = alg.columns()
        products = np.bincount(a * n + b, mult * d[c], n * n).reshape(n, n)
        off = np.abs(products - np.outer(d, d)) > INT_TOL * max(1.0, float(np.max(d)) ** 2)
        out += [Violation("dimension", (int(a), int(b)), f"sum_c N[{a},{b}]^c d_c != d_{a} d_{b}")
                for a, b in np.argwhere(off)]
    return ValidationReport(tuple(out))


def decompose_semisimple(alg: BasedAlgebra, *, seed: int = 0) -> BlockProfile:
    """Simple block sizes of a semisimple based algebra.

    The algebra must be associative (``validate_based_algebra``, which
    ``decompose`` runs first), since the center is found from a generating
    set (``_center``), and have no radical (``_trace_form``).

    Draws up to ``_MAX_DRAWS`` random complex central elements z (fresh
    randomness per draw, reproducible via ``seed``).  The eigenvectors of
    L(z) on the center are multiples f = c e of the central idempotents, one
    per block, and s^2 = Tr L(e) = Tr L(f)^2 / Tr L(f f) for any c.  A draw
    is accepted when every s^2 is within ``INT_TOL`` of a positive integer
    and they sum to the dimension; two blocks whose eigenvalues nearly
    collide mix their eigenvectors and fail that test, so the next draw is
    tried.  Accepted sizes that are not perfect squares mean the input is
    not semisimple as expected.
    """
    n = alg.size
    t, gram = _trace_form(alg)
    basis = _center(alg)
    r = len(basis)

    rng = np.random.default_rng(seed)
    a, b, c, mult = alg.columns()
    cells = c * n + b  # z[c, b] = sum_a coeff[a] N[a,b]^c
    closest = math.inf
    for _ in range(_MAX_DRAWS):
        coeff = (rng.standard_normal(r) + 1j * rng.standard_normal(r)) @ basis
        weight = coeff[a] * mult
        zmat = (np.bincount(cells, weight.real, n * n)
                + 1j * np.bincount(cells, weight.imag, n * n)).reshape(n, n)
        F = np.linalg.eig(basis @ zmat @ basis.T)[1].T @ basis  # rows f = c e
        squares = (F @ t) ** 2 / ((F @ gram) * F).sum(axis=1)
        sizes = np.maximum(np.rint(squares.real), 1)
        dist = float(np.max(np.abs(squares - sizes)))
        closest = min(closest, dist)
        if not (dist <= INT_TOL and sizes.sum() == n):
            continue  # near-collision of two blocks; retry with fresh randomness
        sizes = [int(s) for s in sizes]
        roots = [math.isqrt(s) for s in sizes]
        if any(q * q != s for q, s in zip(roots, sizes)):
            raise NumericError(
                f"block dimensions {sorted(sizes)} are not perfect squares; "
                "algebra is not semisimple as expected")
        return BlockProfile(tuple(roots))
    raise NumericError(
        f"block dimensions Tr L(e) were not {r} positive integers summing to {n} after "
        f"{_MAX_DRAWS} draws (closest integrality distance {closest:.1e}, tolerance "
        f"{INT_TOL:.0e}); algebra may not be semisimple")


def _trace_form(alg: BasedAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """(t, G): t_c = Tr L(c) = sum_b N[c,b]^b and the trace form
    G[x,y] = Tr L(x y) = sum_c N[x,y]^c t_c.  Raise NumericError unless G has
    full rank at ``_RANK_RTOL`` (``numerics.zero_mask``): the kernel of G is
    the radical, so a semisimple algebra has none."""
    n = alg.size
    a, b, c, mult = alg.columns()
    t = np.bincount(a[b == c], mult[b == c], n)
    gram = np.bincount(a * n + b, mult * t[c], n * n).reshape(n, n)
    svals = np.linalg.svd(gram, compute_uv=False)
    zero = zero_mask(svals, _RANK_RTOL * svals[0], "trace-form singular values")
    if zero.any():
        ratio = svals[-1] / svals[0] if svals[0] > 0 else 0.0
        raise NumericError(f"trace form has rank {n - zero.sum()} of {n} (smallest singular "
                           f"value ratio {ratio:.1e}); algebra has a radical, not semisimple")
    return t, gram


def _center(alg: BasedAlgebra) -> np.ndarray:
    """Orthonormal real rows spanning the center of an associative algebra.

    The center is the nullspace of sum_b c_b (N[b,g]^d - N[g,b]^d) = 0, one
    row per (g, d) for g in the generating set G of ``generating_labels()``
    only, which suffices in an associative algebra (``rings``).  G is never
    empty, so there are at least n rows and the reduced SVD keeps every
    null vector, at ``_RANK_RTOL`` times the largest singular value.  The
    rows of g are scattered from the entries with middle index g (a mask of
    the columns) and first index g (a slice).
    """
    n = alg.size
    a, b, c, mult = alg.columns()
    gens = alg.generating_labels()
    constraints = np.zeros((len(gens), n, n))  # [g, d, b]
    for i, g in enumerate(gens):
        col, row = b == g, _row(a, g)
        constraints[i, c[col], a[col]] = mult[col]
        constraints[i, c[row], b[row]] -= mult[row]
    _, svals, Vt = np.linalg.svd(constraints.reshape(len(gens) * n, n), full_matrices=False)
    return Vt[zero_mask(svals, _RANK_RTOL * svals[0], "center singular values")]


def verify_dimension_theorem(Z: np.ndarray, profile: BlockProfile) -> bool:
    """True iff the multiset of nonzero Z entries equals the block profile."""
    Z = np.asarray(Z, dtype=np.int64)
    entries = Counter(int(v) for v in Z.ravel() if v != 0)
    return entries == Counter(profile.sizes)

