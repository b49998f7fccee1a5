"""Dense reference oracles for the checks that read the sparse columns:
the associativity check, the generating set, the center and the
certificate contractions as fusionkit computed them from the dense table
(``reference_*``, reading ``helpers.dense``), and ``structure_of``, which turns a dense table into an
algebra the sparse code can read.

They live apart from ``helpers.py`` because the benchmark imports that
module in its timed set-up and has no use for these.
"""
from __future__ import annotations

import functools

import numpy as np

from fusionkit import BasedAlgebra, NondegeneracyRequired
from fusionkit.induction import GeneratingReport, HomomorphismReport
from fusionkit.numerics import INT_TOL, exact_float
from fusionkit.rings import Violation

from helpers import dense


def structure_of(T):
    """A ``BasedAlgebra`` with no unit and the identity dual whose structure
    constants are the dense table ``T``."""
    n = len(T)
    cells = np.argwhere(T)
    return BasedAlgebra([str(x) for x in range(n)], None, range(n),
                        np.column_stack([cells, T[tuple(cells.T)]]))


def reference_associativity_violations(T, generators):
    """((a b) c)_d = (a (b c))_d on a dense tensor: the left labels of
    ``generators`` first, every label only when one of them fails.  A
    single-constituent table composes T.argmax and T.max over the last
    axis, any other table takes the full float products per label."""
    n = len(T)
    top = int(T.max())
    dtype = exact_float(n * top * top, f"associativity sums up to {n} * {top}^2")
    M = T.max(axis=2)
    if np.array_equal(T.sum(axis=2), M):
        sides = functools.partial(reference_composed_sides, T.argmax(axis=2), M, dtype)
    else:
        sides = functools.partial(reference_product_sides, T.astype(dtype))
    if next(sides(generators), None) is None:
        return []
    out = []
    for a, lhs, rhs in sides(range(n)):
        for b, c, d in np.argwhere(lhs != rhs):
            out.append(Violation("associativity", (a, int(b), int(c), int(d)),
                                 f"(({a} {b}) {c})_{d} = {int(lhs[b, c, d])}, "
                                 f"({a} ({b} {c}))_{d} = {int(rhs[b, c, d])}"))
    return out


def reference_product_sides(F, labels):
    """(a, lhs, rhs) for each label a whose full float products
    T[a] @ T.reshape(n, n*n) and T.reshape(n*n, n) @ T[a] differ."""
    n = len(F)
    rows, cols = F.reshape(n * n, n), F.reshape(n, n * n)
    for a in labels:
        lhs, rhs = (F[a] @ cols).reshape(n, n, n), (rows @ F[a]).reshape(n, n, n)
        if not np.array_equal(lhs, rhs):
            yield a, lhs, rhs


def reference_composed_sides(P, M, dtype, labels):
    """The sides of ``reference_product_sides`` for a table whose product
    a b is M[a,b] copies of P[a,b], by composing the index maps."""
    n = len(P)
    b, c = np.indices((n, n))
    for a in labels:
        lhs_d, lhs = P[P[a]], M[a][:, None] * M[P[a]]
        rhs_d, rhs = P[a][P], M * M[a][P]
        if not np.any((lhs != rhs) | ((lhs > 0) & (lhs_d != rhs_d))):
            continue
        sides = np.zeros((2, n, n, n), dtype)
        sides[0, b, c, lhs_d] = lhs
        sides[1, b, c, rhs_d] = rhs
        yield a, sides[0], sides[1]


def reference_generating_labels(T):
    """The generating set, ascending, by the exact closure on the pattern
    T > 0, reading the rows T[g] and columns T[:, g] of the dense tensor."""
    n = len(T)
    known = [False] * n
    gens = []
    products = []  # [s, constituents left, their index sum]
    by_factor = [[] for _ in range(n)]
    by_constituent = [[] for _ in range(n)]
    stack = []

    def prove(p):
        s, left, c = products[p]
        if left == 1 and known[s] and not known[c]:
            known[c] = True
            stack.append(c)

    while True:
        while stack:
            x = stack.pop()
            for p in by_constituent[x]:
                products[p][1] -= 1
                products[p][2] -= x
                if products[p][1] == 1:
                    prove(p)
            for p in by_factor[x]:
                prove(p)
        if all(known):
            return gens
        g = known.index(False)
        gens.append(g)
        known[g] = True
        stack.append(g)
        unknown = (np.concatenate((T[g], T[:, g])) > 0) & ~np.array(known)
        counts = unknown.sum(axis=1)
        rows = np.flatnonzero(counts)
        first = len(products)
        products += np.stack([rows % n, counts[rows], (unknown @ np.arange(n))[rows]],
                             axis=1).tolist()
        entry_rows, entry_cs = np.nonzero(unknown)
        for c, p in zip(entry_cs.tolist(), (first + np.searchsorted(rows, entry_rows)).tolist()):
            by_constituent[c].append(p)
        for p in range(first, len(products)):
            by_factor[products[p][0]].append(p)
            prove(p)


def reference_center(T, gens, rtol=1e-7):
    """Orthonormal rows spanning the nullspace of the commutator rows
    N[b,g]^d - N[g,b]^d of the generators ``gens``, from dense gathers."""
    n = len(T)
    gens = list(gens)
    constraints = (T[:, gens].transpose(1, 2, 0)
                   - T[gens].transpose(0, 2, 1)).reshape(len(gens) * n, n).astype(float)
    _, svals, Vt = np.linalg.svd(constraints, full_matrices=False)
    return Vt[svals <= rtol * (svals[0] if svals.size and svals[0] > 0 else 1.0)]


def _reference_branched_product(A, B, N_mm, dtype):
    """[l, m, d] = sum_{b,c} A[l,b] B[m,c] N_mm[b,c,d] for all l at once."""
    left = np.tensordot(A.astype(dtype), N_mm.astype(dtype), axes=(1, 0))
    return B.astype(dtype) @ left


def _reference_row_bound(X):
    return max(1, int(X.sum(axis=-1, dtype=float).max()))


def reference_verify_homomorphism(cert, sign):
    """``verify_homomorphism`` from the dense int64 tables: both sides
    for every (l, m, beta) at once, the first difference in that order."""
    A = cert.branching(sign)
    N, N_mm = dense(cert.ring), dense(cert.mm)
    bound = max(_reference_row_bound(A) ** 2 * int(N_mm.max()),
                _reference_row_bound(N) * int(A.max()))
    dtype = exact_float(bound, f"homomorphism[{sign}] sums up to {bound}")
    got = _reference_branched_product(A, A, N_mm, dtype)
    want = np.tensordot(N.astype(dtype), A.astype(dtype), axes=(2, 0))
    if np.array_equal(got, want):
        return HomomorphismReport(sign=sign, passed=True, violation=None)
    l, m, b = (int(x) for x in np.argwhere(got != want)[0])
    return HomomorphismReport(sign=sign, passed=False,
                              violation=(l, m, b, int(got[l, m, b]), int(want[l, m, b])))


def reference_verify_generating(cert, md):
    """``verify_generating`` from the dense int64 table of the extended
    algebra: every mixed product at once, each sector scanned on its own."""
    if not md.degeneracy:
        raise NondegeneracyRequired("generating identity requires a non-degenerate base")
    d, dm, N_mm = md.d, np.array(cert.mm.dims), dense(cert.mm)
    bound = _reference_row_bound(cert.aplus) * _reference_row_bound(cert.aminus) * int(N_mm.max())
    dtype = exact_float(bound, f"generating sums up to {bound}")
    mixed = _reference_branched_product(cert.aplus, cert.aminus, N_mm, dtype)
    lhs = np.einsum("l,m,lmd->d", d, d, mixed, optimize=True)
    residual = float(np.max(np.abs(lhs - md.w * dm))) / md.w
    uncovered = tuple(int(b) for b in range(cert.mm.size) if not np.any(mixed[:, :, b] > 0))
    return GeneratingReport(passed=(residual <= INT_TOL and not uncovered),
                            max_residual=residual, uncovered=uncovered)
