"""Enumeration and classification of modular invariant mass matrices.

A mass matrix is a non-negative integer matrix Z with Z[u,u] = 1 at the
unit label u that commutes with S and T; `check_invariance` decides this rule.
`classify_invariant(md, Z)`, the one classifier (the search and the CLI call
it), keeps the rules Z breaks as ``MassMatrix.failed`` beside its flags.
T-commutation is an exact sparsity statement: Z can only be supported where
twist exponents coincide.  S-commutation is a linear condition, so the search
runs in two stages:

1. an orthonormal real basis of { X supported on the twist mask : SX = XS }
   (the commutant restricted to the mask), read off one symmetric
   eigenproblem: the eigenvalue-1 eigenvectors of the real part of
   X -> S X S^H on the mask cells, and
2. a depth-first walk over integer intervals for the values of a few pivot
   cells, chosen at small caps, that determine every cell.  Cell (l,m) has
   the cap c_l c_m, c_l = max_a |S[l,a]| / S[u,a] (d_l under Verlinde: the
   bound of Bockenhauer-Evans-Kawahigashi), since Z = S Z S^H and
   S[u,a] = d_a / |z| > 0 give Z[l,m] <= c_l c_m Z[u,u].  At each node the
   caps (Z = 1 at the unit cell) tighten the intervals until none moves; the
   walk then branches on the free pivot with the fewest values.  Its leaves,
   where every pivot is fixed, are filtered for integrality.  Row u of
   Z = S Z S^H is sum d_l d_m Z[l,m] = w Z[u,u]: the unit fixes the budget.
   Both stages work in mask cells, so every matrix found is on the twist mask.

The small-instance oracle, a raw depth-first search over the mask cells
that is independent of `check_invariance`, lives with the other test
oracles in `tests/helpers.py` (`brute_force_invariants`).
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
    """One mass matrix with its residuals, the invariance rules it breaks
    (``failed``, empty for a modular invariant) and classification flags.

    ``type_one`` is tri-state ("yes" / "no" / "unknown"); when "yes",
    ``gram_rows`` holds a non-negative integer matrix B with Z = B^t B whose
    column at the unit label is a standard basis vector.
    """

    Z: np.ndarray
    residual_s: float
    residual_t: float
    failed: tuple[str, ...]
    is_identity: bool
    is_permutation: bool
    is_symmetric: bool
    type_one: str
    gram_rows: tuple[tuple[int, ...], ...] | None

    def __post_init__(self):
        object.__setattr__(self, "Z", readonly(np.asarray(self.Z, dtype=np.int64)))

    @property
    def counts(self) -> tuple[int, int]:
        return invariant_counts(self.Z)


def twist_sparsity(twists: TwistData) -> np.ndarray:
    """mask[l,m] = True iff h_l = h_m as exact rationals, decided on the
    integer numerators over their common denominator."""
    e = twists.numerators()[0]
    return readonly(e[:, None] == e[None, :])


def _unit_entry(Z: np.ndarray, unit: int) -> tuple[bool, str]:
    """The unit rule Z[u,u] = 1: (whether it holds, "Z[u,u] = value")."""
    return int(Z[unit, unit]) == 1, f"Z[{unit},{unit}] = {int(Z[unit, unit])}"


def check_invariance(md: ModularData, Z: np.ndarray) -> tuple[float, float, tuple[str, ...]]:
    """(|SZ-ZS|, |TZ-ZT|, failed rules) of Z against ``md``.  Z is a modular
    invariant iff no rule fails: Z[u,u] = 1 at the unit u, |SZ-ZS| within the
    tolerance scaled by the label count, and no nonzero cell off the exact
    twist mask (T-commutation; |TZ-ZT| decides nothing).  Cells are named by index."""
    unit_ok, unit_cell = _unit_entry(Z, md.ring.unit)
    failed = [] if unit_ok else [f"{unit_cell}, expected 1"]
    residual_s, limit = max_abs(md.S @ Z - Z @ md.S), scaled_tol(md.tol, md.size)
    if residual_s > limit:
        failed.append(f"|SZ-ZS| = {residual_s:.3e} > {limit:.1e}")
    off = np.argwhere((Z != 0) & ~twist_sparsity(md.twists))
    if len(off):
        l, m = off[0]
        more = f" and {len(off) - 1} more" if len(off) > 1 else ""
        failed.append(f"Z[{l},{m}] = {Z[l, m]}{more} off the twist mask")
    t = np.diagonal(md.T)  # T is diagonal: (TZ - ZT)[l,m] = t_l Z[l,m] - Z[l,m] t_m
    return residual_s, max_abs(t[:, None] * Z - Z * t[None, :]), tuple(failed)


def commutant_basis(S: np.ndarray, mask: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal real basis of { X supported on mask : SX = XS }.

    Let K[(a,b),(c,d)] = S[a,c] conj(S[b,d]) on the masked cells: a
    mask-supported X commutes with S iff K X = X.  For unitary S, K is a
    contraction, so a real X has K X = X iff M X = X for the symmetric
    M = (Re K + Re K^t) / 2, and the basis is the eigenvalue-1 eigenspace of
    one ``eigh`` of M.  The cutoff is ``tol`` (``md.tol``) scaled by the
    label count.  Eigenvalues with |1 - lambda| within a decade of the
    cutoff raise RankAmbiguityError rather than guessing; an eigenvalue above
    1 + cutoff, or a basis element that misses SX = XS by more than the
    cutoff, means S is not unitary and raises NumericError.
    """
    S = np.asarray(S, dtype=complex)
    n = S.shape[0]
    rows, cols = np.nonzero(mask)
    re, im = S.real, S.imag
    K = (re[np.ix_(rows, rows)] * re[np.ix_(cols, cols)]
         + im[np.ix_(rows, rows)] * im[np.ix_(cols, cols)])  # Re K
    evals, vecs = np.linalg.eigh((K + K.T) / 2.0)
    cutoff = scaled_tol(tol, n)
    gap = np.abs(1.0 - evals)
    ambiguous = evals[(cutoff / 10.0 < gap) & (gap < cutoff * 10.0)].tolist()
    if ambiguous:
        raise RankAmbiguityError(
            f"eigenvalues {ambiguous} within a decade of cutoff {cutoff:.1e} from 1; "
            "raise precision or adjust the tolerance")
    if evals[-1] > 1.0 + cutoff:
        raise NumericError(f"commutant map has eigenvalue {evals[-1]:.6g} > 1 "
                           f"(cutoff {cutoff:.1e}); S must be unitary")
    null = vecs[:, gap <= cutoff].T
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
    trace past 2^63, would wrap.  Z may hold Python ints (an object array)."""
    Z = np.asarray(Z)
    return sum(np.diagonal(Z).tolist()), sum(v * v for v in Z[Z != 0].tolist())


def classify_invariant(md: ModularData, Z: np.ndarray) -> MassMatrix:
    """Z against ``md``: the residuals and failed rules of one
    :func:`check_invariance` call, and the flags identity / permutation /
    symmetry and the type-I decision.  The identity is type I with B = I.
    Z = B^t B is symmetric, and Z[l,l] = 0 forces column l of B, and so row l
    of Z, to vanish; a Z that breaks either rule (every other permutation
    among them) is not type I.  Any other Z is decided by a bounded search for
    a Gram factorization Z = B^t B over non-negative integer rows
    (NODE_BUDGET nodes).  The flags do not depend on ``md``."""
    Z = np.asarray(Z, dtype=np.int64)
    residual_s, residual_t, failed = check_invariance(md, Z)
    n = Z.shape[0]
    is_identity = bool(np.array_equal(Z, np.eye(n, dtype=np.int64)))
    is_permutation = bool(
        np.all((Z == 0) | (Z == 1))
        and np.all(Z.sum(axis=0) == 1) and np.all(Z.sum(axis=1) == 1))
    is_symmetric = bool(np.array_equal(Z, Z.T))
    if is_identity:
        type_one, rows = "yes", tuple(map(tuple, np.eye(n, dtype=np.int64).tolist()))
    elif not is_symmetric or np.any((np.diagonal(Z) == 0) & Z.any(axis=1)):
        type_one, rows = "no", None
    else:
        type_one, rows = _gram_factorization(Z, NODE_BUDGET)
    return MassMatrix(Z=Z, residual_s=residual_s, residual_t=residual_t, failed=failed,
                      is_identity=is_identity, is_permutation=is_permutation,
                      is_symmetric=is_symmetric, type_one=type_one, gram_rows=rows)


class _BudgetHit(Exception):
    pass


def _gram_factorization(Z: np.ndarray, node_budget: int):
    """Backtracking search for non-negative integer rows b with
    sum_i b_i^t b_i = Z.  Rows are anchored at the first label whose diagonal
    residual is still positive, which also forces the unit column of B to be
    a standard basis vector when Z[0,0] = 1.  Past the lead, a row visits
    only the positions m with R[lead, m] > 0 and R[m, m] > 0, where b_m may
    be positive; every other entry is 0.  Each row position visited counts
    one node against ``node_budget``; the rows chosen so far keep their
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
        # past the lead, b_m > 0 needs R[lead, m] > 0 and R[m, m] > 0
        diagonal = np.diagonal(R)[lead + 1:]
        positions = [lead, *(lead + 1 + np.flatnonzero(
            (R[lead, lead + 1:] > 0) & (diagonal > 0))).tolist()]
        row = [0] * n
        values = [iter(range(math.isqrt(int(R[lead, lead])), 0, -1))]
        while values:
            pos = positions[len(values) - 1]
            v = next(values[-1], None)
            if v is None:
                values.pop()
                continue
            row[pos] = v
            tick()
            if len(values) < len(positions):
                nxt = positions[len(values)]
                top = min(math.isqrt(int(R[nxt, nxt])), int(R[lead, nxt]) // row[lead])
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


def _pivot_cells(B: np.ndarray, caps: np.ndarray) -> list[int]:
    """Greedy choice of m independent columns of the m x cells basis B,
    smallest cap first (a pivot takes the values 0..cap, so its branches
    stay few); ties go to the first cell in row-major order."""
    m = B.shape[0]
    order = sorted(range(B.shape[1]), key=lambda i: (caps[i], i))
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


def _bound_propagator(A: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Tightening of integer pivot intervals under lower <= p A <= upper.

    The returned function takes a batch of boxes, rows lo <= p <= hi, and
    narrows each pivot k through every row j where A[k,j] is not rounding
    noise: the other pivots' least (most) activity on row j leaves room
    upper_j - least (most - lower_j), and p_k can move at most room / |A[k,j]|
    from its other end.  Rounds repeat until no bound moves; bounds are
    rounded inward with INT_TOL of slack, so float error never drops an
    integer point that satisfies the rows.  It returns the boxes that stay
    non-empty.
    """
    pos, neg = np.maximum(A, 0.0), np.minimum(A, 0.0)
    k, j = np.nonzero(np.abs(A) > 1e-9)  # row-major: grouped by pivot
    inv = 1.0 / np.abs(A[k, j])
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    # room is [upper - least activity, most activity - lower] per row: a
    # coefficient > 0 caps hi by the first half and lifts lo by the second
    rises = A[k, j] > 0
    cap_room = np.where(rises, j, j + A.shape[1])
    lift_room = np.where(rises, j + A.shape[1], j)

    def tighten(lo: np.ndarray, hi: np.ndarray):
        while len(lo):
            room = np.concatenate([upper - (lo @ pos + hi @ neg),
                                   (hi @ pos + lo @ neg) - lower], axis=1)
            cap = np.minimum.reduceat(room[:, cap_room] * inv, starts, axis=1)
            lift = np.minimum.reduceat(room[:, lift_room] * inv, starts, axis=1)
            new_hi = np.minimum(hi, np.floor(lo + cap + INT_TOL))
            new_lo = np.maximum(lo, np.ceil(hi - lift - INT_TOL))
            alive = np.all(new_lo <= new_hi, axis=1)
            moved = np.any((new_lo != lo) | (new_hi != hi), axis=1) & alive
            lo, hi = new_lo[alive], new_hi[alive]
            if not moved.any():
                break
        return lo, hi

    return tighten


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
    n, u = md.size, md.ring.unit
    mask = twist_sparsity(md.twists)
    B = commutant_basis(md.S, mask, md.tol)[:, mask]  # m x mask cells
    c = np.max(np.abs(md.S) / md.S[u].real, axis=1)  # c_l = max_a |S[l,a]| / S[u,a]
    caps = np.outer(c, c)[mask]

    piv = _pivot_cells(B, caps)
    W = np.linalg.solve(B[:, piv], B)  # pivot values -> mask cells
    unit = int(np.flatnonzero(mask).searchsorted(u * (n + 1)))  # (u, u) cell
    # cells in [0, c_l c_m], the unit cell at 1, with 2 INT_TOL of slack for rounding
    low, high = np.full(caps.size, -2 * INT_TOL), caps + 2 * INT_TOL
    low[unit], high[unit] = 1 - 2 * INT_TOL, 1 + 2 * INT_TOL
    tighten = _bound_propagator(W, low, high)

    found: set[tuple[int, ...]] = set()
    lo, hi = tighten(np.zeros((1, len(piv))), np.floor(high[piv])[None, :])
    stack = list(zip(lo, hi))  # open boxes of integer pivot values
    while stack:
        lo, hi = stack.pop()
        free = hi - lo
        if free.any():  # branch on the free pivot with the fewest values
            k = int(np.argmin(np.where(free > 0, free, np.inf)))
            values = np.arange(lo[k], hi[k] + 1)
            lo, hi = np.tile(lo, (values.size, 1)), np.tile(hi, (values.size, 1))
            lo[:, k] = hi[:, k] = values
            stack.extend(zip(*tighten(lo, hi)))
            continue
        X = lo @ W  # a leaf: every pivot fixed
        R = np.rint(X)
        if np.max(np.abs(X - R)) <= INT_TOL and np.all(R >= 0.0) and R[unit] == 1.0:
            found.add(tuple(R.astype(np.int64).tolist()))

    identity = tuple(np.eye(n, dtype=np.int64)[mask].tolist())
    accepted: list[MassMatrix] = []
    # every Z is zero off the mask, so its cells order the Zs as their entries do
    for cells in sorted(found, key=lambda cells: (cells != identity, cells)):
        Z = np.zeros((n, n), dtype=np.int64)
        Z[mask] = cells
        mm = classify_invariant(md, Z)  # the numeric S re-check
        if not mm.failed:
            accepted.append(mm)
    if not accepted or not accepted[0].is_identity:
        raise NumericError("identity invariant missing from search output")
    return accepted
