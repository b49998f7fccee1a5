"""Semisimple based algebras given by non-negative integer structure constants.

The main operation splits such an algebra into simple matrix blocks, once
its trace form has full rank: its kernel is the radical, which the central
spectrum misses when everything annihilates it.  The center is the
nullspace of the commutator constraints with a generating set G of labels
only (``generating_labels()``, the same G the associativity check uses),
|G| n rows instead of n^2: in an associative algebra an element that
commutes with G commutes with everything G generates, which is every label.
A random self-adjoint central element is drawn, its left multiplication
matrix is summed from the sparse columns, and its spectrum is clustered;
each eigenvalue cluster of size s belongs to one simple block of size
sqrt(s).  Conjugate pairs of blocks carry complex-conjugate scalars, so the
random draw must use complex coefficients: real ones provably cannot
separate a block from its conjugate.

The block profile is what pairs with a mass matrix: the multiset of nonzero
Z entries must equal the multiset of block sizes, and the algebra is
commutative exactly when all blocks are 1x1, i.e. when Z is 0/1-valued.

Storage and checks are those of ``rings.FusionRing``: the structure
constants live only in four read-only int64 arrays (a, b, c, mult) sorted by
(a, b, c), and validation and decomposition read only these ``columns()``.
The involution law gathers each entry's mirror from a scratch array of the
flat cells (``rings._flat_table``), the dimension vector and the trace form
are sums from one ``np.bincount``, and the commutator rows of the center
are scattered from each generator's column (a mask) and row (a slice).  Associativity is ``rings._associativity_violations``.  It checks
the left labels of the generating set first, which needs no unit (the
matrix units e11, e12, e21 generate M2) and leaves out a unit label that
obeys the unit law, and every label only when one of them fails: the left
labels that associate with everything form a subalgebra.  It composes index
maps for a single-constituent table such as a group algebra, otherwise
takes float products in blocks, exact in float32 while n max(N)^2 < 2^24
and in float64 while it is below 2^53 (``numerics.exact_float``; larger
tables raise ``NumericError``).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import NumericError, StructureError
from .rings import (ValidationReport, Violation, _antiautomorphism_violations,
                    _associativity_violations, _involution_violations,
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
        table = [list(row) for row in table]
        n = len(table)
        unit = next((e for e in range(n)
                     if all(table[e][x] == x and table[x][e] == x for x in range(n))), None)
        if unit is None:
            raise StructureError("multiplication table has no unit element")
        dual = [0] * n
        for g in range(n):
            inv = [h for h in range(n) if table[g][h] == unit]
            if len(inv) != 1:
                raise StructureError(f"element {g} does not have a unique inverse")
            dual[g] = inv[0]
        structure = {(i, j, table[i][j]): 1 for i in range(n) for j in range(n)}
        return cls([f"g{i}" for i in range(n)], unit, dual, structure)

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
        off = np.abs(products - np.outer(d, d)) > 1e-6 * max(1.0, float(np.max(d)) ** 2)
        out += [Violation("dimension", (int(a), int(b)), f"sum_c N[{a},{b}]^c d_c != d_{a} d_{b}")
                for a, b in np.argwhere(off)]
    return ValidationReport(tuple(out))


def decompose_semisimple(alg: BasedAlgebra, *, seed: int = 0) -> BlockProfile:
    """Simple block sizes of a semisimple based algebra.

    The algebra must be associative (``validate_based_algebra``, which
    ``decompose`` runs first), since the center is found from a generating
    set (``_center``), and have no radical (``_check_trace_form``).

    Draws up to ``_MAX_DRAWS`` random self-adjoint central elements (fresh
    randomness per draw, reproducible via ``seed``); a draw is accepted when
    its regular-representation spectrum splits into exactly as many
    well-separated clusters as the center has dimensions and every cluster
    size is a perfect square.  Non-square cluster sizes mean the input is not
    semisimple as expected.
    """
    n = alg.size
    _check_trace_form(alg)
    basis = _center(alg)
    r = len(basis)

    rng = np.random.default_rng(seed)
    dual = list(alg.dual)
    a, b, c, mult = alg.columns()
    cells = c * n + b  # z[c, b] = sum_a coeff[a] N[a,b]^c
    last_sizes: list[int] | None = None
    for _ in range(_MAX_DRAWS):
        coeff = (rng.standard_normal(r) + 1j * rng.standard_normal(r)) @ basis
        coeff = 0.5 * (coeff + np.conj(coeff[dual]))  # self-adjoint part
        if np.max(np.abs(coeff)) < 1e-12:
            continue
        weight = coeff[a] * mult
        zmat = (np.bincount(cells, weight.real, n * n)
                + 1j * np.bincount(cells, weight.imag, n * n)).reshape(n, n)
        eigs = np.linalg.eigvals(zmat)
        scale = float(np.max(np.abs(eigs))) + 1.0
        clusters = _cluster(eigs, 1e-7 * scale)
        means = [np.mean(c) for c in clusters]
        sep = min((abs(a - b) for i, a in enumerate(means) for b in means[i + 1:]),
                  default=np.inf)
        if len(clusters) != r or sep < 1e-5 * scale:
            continue  # eigenvalue collision; retry with fresh randomness
        sizes = [len(c) for c in clusters]
        last_sizes = sizes
        roots = [math.isqrt(s) for s in sizes]
        if any(q * q != s for q, s in zip(roots, sizes)):
            raise NumericError(
                f"eigenvalue multiplicities {sorted(sizes)} are not perfect squares; "
                "algebra is not semisimple as expected")
        return BlockProfile(tuple(roots))
    raise NumericError(
        f"central spectrum did not split into {r} clusters after {_MAX_DRAWS} draws"
        + (f" (last multiplicities {sorted(last_sizes)})" if last_sizes else "")
        + "; algebra may not be semisimple")


def _check_trace_form(alg: BasedAlgebra) -> None:
    """Raise NumericError unless G[x,y] = sum_c N[x,y]^c t_c, with
    t_c = Tr L(c) = sum_b N[c,b]^b, has full rank at ``_RANK_RTOL``: the
    kernel of G is the radical, so a semisimple algebra has none."""
    n = alg.size
    a, b, c, mult = alg.columns()
    t = np.bincount(a[b == c], mult[b == c], n)
    svals = np.linalg.svd(np.bincount(a * n + b, mult * t[c], n * n).reshape(n, n),
                          compute_uv=False)
    ratio = svals[-1] / svals[0] if svals[0] > 0 else 0.0
    if ratio <= _RANK_RTOL:
        rank = np.count_nonzero(svals > _RANK_RTOL * svals[0])
        raise NumericError(f"trace form has rank {rank} of {n} (smallest singular value "
                           f"ratio {ratio:.1e}); algebra has a radical, not semisimple")


def _center(alg: BasedAlgebra) -> np.ndarray:
    """Orthonormal real rows spanning the center of an associative algebra.

    The center is the nullspace of sum_b c_b (N[b,g]^d - N[g,b]^d) = 0, one
    row per (g, d) for g in the generating set G of ``generating_labels()``
    only: in an associative algebra an element that commutes with G
    commutes with every product of G, hence with every label.  G is never
    empty, so there are at least n rows and the reduced SVD keeps every
    null vector.  The rows of g are scattered from the entries with middle
    index g (a mask of the columns) and first index g (a slice).
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
    cutoff = _RANK_RTOL * (svals[0] if svals.size and svals[0] > 0 else 1.0)
    return Vt[svals <= cutoff]


def _cluster(values: np.ndarray, tol: float) -> list[list[complex]]:
    """Greedy clustering of complex values by distance; order-insensitive for
    well-separated spectra."""
    todo = sorted(values, key=lambda z: (round(z.real / tol) if tol > 0 else z.real, z.imag))
    clusters: list[list[complex]] = []
    for z in todo:
        for cl in clusters:
            if abs(z - cl[0]) <= tol:
                cl.append(z)
                break
        else:
            clusters.append([z])
    return clusters


def verify_dimension_theorem(Z: np.ndarray, profile: BlockProfile) -> bool:
    """True iff the multiset of nonzero Z entries equals the block profile."""
    Z = np.asarray(Z, dtype=np.int64)
    entries = Counter(int(v) for v in Z.ravel() if v != 0)
    return entries == Counter(profile.sizes)

