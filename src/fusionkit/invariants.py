"""Enumeration and classification of modular invariant mass matrices.

A mass matrix is a non-negative integer matrix Z with Z[0,0] = 1 commuting
with S and T.  T-commutation is an exact sparsity statement: Z can only be
supported where twist exponents coincide.  S-commutation is a linear
condition, so the search runs in two stages:

1. an orthonormal real basis of { X supported on the twist mask : SX = XS }
   (the commutant restricted to the mask), and
2. a depth-first walk over the in-budget values (sum_{l,m} d_l d_m Z[l,m] = w)
   of pivot cells chosen at large d_l d_m, which drops a value as soon as
   some cell can no longer reach 0 <= Z[l,m] <= w / (d_l d_m) (Z = 1 at the
   unit cell); its leaves are filtered for integrality and the budget.  Both
   stages work in mask cells, so every matrix found is on the twist mask.

A raw depth-first search over the mask cells is kept as the small-instance
oracle (`brute_force_invariants`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NondegeneracyRequired, NumericError, RankAmbiguityError
from .modular import ModularData, TwistData
from .numerics import max_abs, readonly, scaled_tol

INT_TOL = 1e-6  # acceptance tolerance for reconstructed entries
NODE_BUDGET = 1_000_000  # Gram-search nodes per invariant before "unknown"


@dataclass(frozen=True)
class MassMatrix:
    """One modular invariant with its residuals and classification flags.

    ``type_one`` is tri-state ("yes" / "no" / "unknown"); when "yes",
    ``gram_rows`` holds a non-negative integer matrix B with Z = B^t B whose
    column at the unit label is a standard basis vector.
    """

    Z: np.ndarray
    residual_s: float
    residual_t: float
    is_identity: bool
    is_permutation: bool
    is_symmetric: bool
    type_one: str
    gram_rows: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "Z", readonly(np.asarray(self.Z, dtype=np.int64)))

    @property
    def counts(self) -> tuple[int, int]:
        return invariant_counts(self.Z)

    @property
    def size(self) -> int:
        return self.Z.shape[0]


def twist_sparsity(twists: TwistData) -> np.ndarray:
    """mask[l,m] = True iff h_l = h_m as exact rationals."""
    h = np.array(twists.h, dtype=object)  # exact Fractions, compared pairwise
    return readonly(h[:, None] == h[None, :])


def commutant_basis(S: np.ndarray, mask: np.ndarray,
                    tol: float | None = None) -> np.ndarray:
    """Orthonormal real basis of { X supported on mask : SX = XS }.

    S must be unitary: then a mask-supported X commutes with S iff it equals
    the mask part of S X S^H, so the basis is the nullspace of I - M over the
    masked cells, M[(a,b),(c,d)] = S[a,c] conj(S[b,d]), read off an SVD.
    Singular values within a decade of the rank cutoff raise
    RankAmbiguityError rather than guessing; a basis element that misses
    SX = XS by more than the cutoff (S not unitary) raises NumericError.
    """
    S = np.asarray(S, dtype=complex)
    n = S.shape[0]
    rows, cols = np.nonzero(mask)
    fixed = np.eye(rows.size) - S[np.ix_(rows, rows)] * S[np.ix_(cols, cols)].conj()
    _, svals, Vt = np.linalg.svd(np.concatenate([fixed.real, fixed.imag]),
                                 full_matrices=False)
    cutoff = scaled_tol(tol, n)
    ambiguous = [s for s in svals if cutoff / 10.0 < s < cutoff * 10.0]
    if ambiguous:
        raise RankAmbiguityError(
            f"singular values {ambiguous} within a decade of cutoff {cutoff:.1e}; "
            "raise precision or adjust the tolerance")
    null = Vt[svals <= cutoff]
    if not len(null):
        raise NumericError("commutant is empty; the identity should always be present")
    basis = np.zeros((len(null), n, n))
    basis[:, mask] = null
    residual = max_abs(S @ basis - basis @ S)
    if residual > cutoff:
        raise NumericError(f"commutant basis misses SX = XS by {residual:.1e} "
                           f"(cutoff {cutoff:.1e}); S must be unitary")
    return readonly(basis)


def invariant_counts(Z: np.ndarray) -> tuple[int, int]:
    """(tr Z, tr Z Z^t): predicted numbers of N-M and M-M sectors, summed
    as Python ints: in int64 the square of an entry of 2^32 or more, or a
    trace past 2^63, would wrap."""
    Z = np.asarray(Z, dtype=np.int64)
    return sum(np.diagonal(Z).tolist()), sum(v * v for v in Z[Z != 0].tolist())


def classify_invariant(Z: np.ndarray, md: ModularData | None = None) -> MassMatrix:
    """Attach flags to a mass matrix: identity / permutation / symmetry, and
    the type-I decision.  The identity is type I with B = I, and no other
    permutation is; any other Z is decided by a bounded search for a Gram
    factorization Z = B^t B over non-negative integer rows (NODE_BUDGET nodes)."""
    Z = np.asarray(Z, dtype=np.int64)
    n = Z.shape[0]
    if md is not None:
        residual_s = max_abs(md.S @ Z - Z @ md.S)
        residual_t = max_abs(md.T @ Z - Z @ md.T)
    else:
        residual_s = residual_t = float("nan")
    is_identity = bool(np.array_equal(Z, np.eye(n, dtype=np.int64)))
    is_permutation = bool(
        np.all((Z == 0) | (Z == 1))
        and np.all(Z.sum(axis=0) == 1) and np.all(Z.sum(axis=1) == 1))
    is_symmetric = bool(np.array_equal(Z, Z.T))
    if is_identity:
        type_one, rows = "yes", tuple(map(tuple, np.eye(n, dtype=np.int64).tolist()))
    elif is_permutation or not is_symmetric:
        # B^t B is symmetric; a label l that a permutation moves has
        # Z[l,l] = 0, which forces column l of B, and so row l of Z, to vanish
        type_one, rows = "no", None
    else:
        type_one, rows = _gram_factorization(Z, NODE_BUDGET)
    return MassMatrix(Z=Z, residual_s=residual_s, residual_t=residual_t,
                      is_identity=is_identity, is_permutation=is_permutation,
                      is_symmetric=is_symmetric, type_one=type_one, gram_rows=rows)


class _BudgetHit(Exception):
    pass


def _gram_factorization(Z: np.ndarray, node_budget: int):
    """Backtracking search for non-negative integer rows b with
    sum_i b_i^t b_i = Z.  Rows are anchored at the first label whose diagonal
    residual is still positive, which also forces the unit column of B to be
    a standard basis vector when Z[0,0] = 1.  Each row position visited
    counts one node against ``node_budget``; the rows chosen so far keep their
    candidate generators on an explicit stack, not on the call stack."""
    n = Z.shape[0]
    budget = node_budget

    def tick(nodes: int = 1):
        nonlocal budget
        budget -= nodes
        if budget < 0:
            raise _BudgetHit

    def candidates(R: np.ndarray, prev: tuple[int, ...] | None):
        """Rows b anchored at the lead label, largest first, with
        R - b^t b >= 0; yields (b, R - b^t b)."""
        lead_candidates = np.nonzero(np.diagonal(R))[0]
        if lead_candidates.size == 0:
            return  # off-diagonal residue can never be produced
        lead = int(lead_candidates[0])
        prev_b = prev if prev is not None and prev[lead] and not any(prev[:lead]) else None
        tick(lead + 1)  # the positions up to the lead
        row = [0] * n
        values = [iter(range(math.isqrt(int(R[lead, lead])), 0, -1))]
        while values:
            pos = lead + len(values) - 1
            v = next(values[-1], None)
            if v is None:
                values.pop()
                continue
            row[pos] = v
            tick()
            if pos + 1 < n:
                top = min(math.isqrt(int(R[pos + 1, pos + 1])), int(R[lead, pos + 1]) // row[lead])
                values.append(iter(range(top, -1, -1)))
                continue
            b = tuple(row)
            if prev_b is not None and b > prev_b:
                continue
            R2 = R - np.outer(b, b)
            if not np.any(R2 < 0):
                yield b, R2

    R = Z.astype(np.int64)
    prev = None
    rows: list[tuple[int, ...]] = []
    stack = []
    try:
        while R.any():
            stack.append(candidates(R, prev))
            while stack and (step := next(stack[-1], None)) is None:
                stack.pop()
            if step is None:
                return "no", None
            prev, R = step
            del rows[len(stack) - 1:]
            rows.append(prev)
    except _BudgetHit:
        return "unknown", None
    return "yes", tuple(rows)


def _pivot_cells(B: np.ndarray, dd: np.ndarray) -> list[int]:
    """Greedy choice of m independent columns of the m x cells basis B,
    preferring large d_l d_m so the per-pivot enumeration bounds stay small;
    ties go to the first cell in row-major order."""
    m = B.shape[0]
    order = sorted(range(B.shape[1]), key=lambda i: (-dd[i], i))
    chosen: list[int] = []
    Q = np.zeros((m, 0))  # orthonormal basis of the chosen columns
    for idx in order:
        col = B[:, idx]
        res = col - Q @ (Q.T @ col)
        nrm = np.linalg.norm(res)
        if nrm > 1e-9 * (np.linalg.norm(col) + 1.0):
            chosen.append(idx)
            Q = np.column_stack([Q, res / nrm])
            if len(chosen) == m:
                break
    if len(chosen) != m:
        raise NumericError("could not find an invertible pivot set for the commutant")
    return chosen


def search_invariants(md: ModularData) -> list[MassMatrix]:
    """Complete list of modular invariant mass matrices for non-degenerate
    modular data, identity first, the rest in lexicographic order of their
    flattened entries.

    The constraint set is transpose-stable, so Z and Z^t both appear whenever
    they differ; asymmetric invariants are visible via ``is_symmetric``.
    """
    if not md.degeneracy:
        raise NondegeneracyRequired(
            f"braiding is degenerate (witness label {md.degeneracy.witness}); "
            "modular invariants are only classified for non-degenerate data")
    n = md.size
    mask = twist_sparsity(md.twists)
    B = commutant_basis(md.S, mask, md.tol)[:, mask]  # m x mask cells
    dd = np.outer(md.d, md.d)[mask]

    piv = _pivot_cells(B, dd)
    W = np.linalg.solve(B[:, piv], B)  # pivot values -> mask cells
    costs = dd[piv]
    tops = (md.w / costs + 1e-9).astype(int)
    reach = tops[:, None] * W  # the most each pivot can add to each cell
    later_hi, later_lo = (np.cumsum(part[::-1], axis=0)[::-1] - part  # row k: pivots k+1..
                          for part in (np.maximum(reach, 0.0), np.minimum(reach, 0.0)))
    unit = int(np.flatnonzero(mask).searchsorted(md.ring.unit * (n + 1)))  # (unit, unit) cell
    # The leaf filters put every cell within INT_TOL of [0, w (1 + 1e-6) / dd], and
    # of 1 at the unit cell; the walk allows 2 INT_TOL for its own rounding.
    low, high = np.full(dd.size, -2 * INT_TOL), md.w * (1 + 1e-6) / dd + 2 * INT_TOL
    low[unit], high[unit] = 1 - 2 * INT_TOL, 1 + 2 * INT_TOL

    found: set[tuple[int, ...]] = set()
    stack = [(0, 0.0, np.zeros(dd.size))]  # open pivot prefixes: depth, cost, cells
    while stack:
        k, spent, x = stack.pop()
        values = np.arange(tops[k] + 1)
        spent_next = spent + costs[k] * values
        keep = spent_next <= md.w + 1.0  # in-budget values of pivot k
        X = x + values[keep, None] * W[k]
        if k + 1 < len(piv):
            ok = np.all((X + later_hi[k] >= low) & (X + later_lo[k] <= high), axis=1)
            stack.extend((k + 1, c, row) for c, row in zip(spent_next[keep][ok], X[ok]))
            continue
        R = np.rint(X)
        good = (np.max(np.abs(X - R), axis=1) <= INT_TOL)
        good &= np.all(R >= 0.0, axis=1)
        good &= R[:, unit] == 1.0
        good &= np.abs(R @ dd - md.w) <= 1e-6 * md.w
        found.update(map(tuple, R[good].astype(np.int64).tolist()))

    eps = scaled_tol(md.tol, n)
    accepted: list[np.ndarray] = []
    for cells in found:
        Z = np.zeros((n, n), dtype=np.int64)
        Z[mask] = cells
        if max_abs(md.S @ Z - Z @ md.S) <= eps:  # numeric S re-check
            accepted.append(Z)
    accepted.sort(key=lambda Z: (not bool(np.array_equal(Z, np.eye(n, dtype=np.int64))),
                                 tuple(Z.ravel())))
    if not accepted or not np.array_equal(accepted[0], np.eye(n, dtype=np.int64)):
        raise NumericError("identity invariant missing from search output")
    return [classify_invariant(Z, md) for Z in accepted]


def brute_force_invariants(md: ModularData) -> list[np.ndarray]:
    """Reference depth-first search over the twist mask with the
    sum_{l,m} d_l d_m Z[l,m] = w budget; the small-instance oracle for
    :func:`search_invariants`."""
    if not md.degeneracy:
        raise NondegeneracyRequired("brute-force search needs non-degenerate data")
    w = md.w
    n = md.size
    unit = md.ring.unit
    mask = twist_sparsity(md.twists)
    dd = np.outer(md.d, md.d)
    cells = [(i, j) for i in range(n) for j in range(n)
             if mask[i, j] and (i, j) != (unit, unit)]
    cells.sort(key=lambda c: (-dd[c], c))
    coeff = [float(dd[c]) for c in cells]
    delta = 1e-6 * w
    suffix_max = [0.0] * (len(cells) + 1)
    for i in range(len(cells) - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + math.floor(w / coeff[i] + 1e-9) * coeff[i]

    Z = np.zeros((n, n), dtype=np.int64)
    Z[unit, unit] = 1
    out: list[np.ndarray] = []
    eps = scaled_tol(md.tol, n)
    S = md.S

    def rec(i: int, remaining: float):
        if remaining < -delta or remaining > suffix_max[i] + delta:
            return
        if i == len(cells):
            if abs(remaining) <= delta and max_abs(S @ Z - Z @ S) <= eps:
                out.append(Z.copy())
            return
        c = coeff[i]
        cell = cells[i]
        if i == len(cells) - 1:
            v = int(round(remaining / c))
            if v >= 0 and abs(remaining - v * c) <= delta:
                Z[cell] = v
                rec(i + 1, remaining - v * c)
                Z[cell] = 0
            return
        top = int((remaining + delta) / c)
        for v in range(top + 1):
            Z[cell] = v
            rec(i + 1, remaining - v * c)
        Z[cell] = 0

    rec(0, w - float(dd[unit, unit]))
    out.sort(key=lambda M: (not bool(np.array_equal(M, np.eye(n, dtype=np.int64))),
                            tuple(M.ravel())))
    return out
