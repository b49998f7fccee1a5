"""Shared test oracles: the dense table of a ring or algebra, brute-force
axiom checking, dense forms of the permutation-law checks and of the
center, the duplicate rule by a stable sort, phases through ``Fraction``
arithmetic, quantum dimensions from the dense table, the closed-form SU(2)
S matrix, exact monodromy spectra and statistics characters, classical
group tables with their character degrees and an entry-by-entry group
algebra, a well-formed table that is not a fusion ring, closed-form
expected invariants for the SU(2) series (identity, D-type
blocks/permutations, exceptional blocks), the relabelling of a model, the Deligne product of two models and
a raw depth-first search for modular invariants.  ``refuse_int64_scatter``
makes a test fail when fusionkit builds a dense int64 table.

The oracles are deliberately independent of the package internals: the
checkers iterate definitions directly and the expected matrices come from
the classical classification data, not from the search code under test.
``dense`` fills its array from ``columns()`` itself, not through the
package's scatter.  ``permute_model`` and ``product_model`` only build
package objects from the models' tables.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from fusionkit import (BasedAlgebra, FusionRing, ModularData, NondegeneracyRequired,
                       StructureError, TwistData, twist_sparsity, validate_twists)
from fusionkit import rings
from fusionkit.numerics import max_abs, mod1, scaled_tol, unit_phase
from fusionkit.rings import DimensionVector


# ------------------------------------------------------------ dense tables

def dense(structure):
    """The dense int64 table T[a, b, c] = N[a,b]^c of a ring or algebra,
    written entry by entry from its ``columns()``."""
    n = structure.size
    T = np.zeros((n, n, n), dtype=np.int64)
    a, b, c, mult = structure.columns()
    T[a, b, c] = mult
    return T


def refuse_int64_scatter(monkeypatch):
    """Make ``rings._scatter`` raise AssertionError for int64, in every
    fusionkit module that binds it, for the rest of the test: the dense
    int64 table is built only to list Frobenius violations and by
    ``verlinde_fusion``.  Float scatters, for the exact products of the
    associativity check, still run."""
    scatter = rings._scatter

    def refuse(structure, dtype):
        if np.dtype(dtype) == np.int64:
            raise AssertionError("a dense int64 table was built")
        return scatter(structure, dtype)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fusionkit" and getattr(module, "_scatter", None) is scatter:
            monkeypatch.setattr(module, "_scatter", refuse)


# ------------------------------------------------------- axiom brute force

def brute_force_axioms(n, unit, dual, mult):
    """Iterate every index tuple of every fusion-ring axiom.

    ``mult`` is a callable (a, b, c) -> int.  Returns the set of violated
    axiom names, using the same names as the library's validator.
    """
    bad = set()
    if dual[unit] != unit or any(dual[dual[a]] != a for a in range(n)):
        bad.add("involution")
    for m in range(n):
        for c in range(n):
            want = 1 if m == c else 0
            if mult(unit, m, c) != want or mult(m, unit, c) != want:
                bad.add("unit")
    for a in range(n):
        for b in range(n):
            if mult(a, b, unit) != (1 if b == dual[a] else 0):
                bad.add("conjugate")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                v = mult(a, b, c)
                if v != mult(dual[a], c, b) or v != mult(c, dual[b], a):
                    bad.add("frobenius")
    for lam in range(n):
        for rho in range(n):
            for sig in range(n):
                for nu in range(n):
                    lhs = sum(mult(lam, mu, nu) * mult(rho, sig, mu) for mu in range(n))
                    rhs = sum(mult(lam, rho, tau) * mult(tau, sig, nu) for tau in range(n))
                    if lhs != rhs:
                        bad.add("associativity")
    return bad


def brute_force_associativity(T):
    """Every (a, b, c, d) with ((a b) c)_d != (a (b c))_d, as (where, detail)
    pairs in the library's order and wording, summed over a dense n x n x n
    table of Python-int multiplicities."""
    n = len(T)
    out = []
    for a, b, c, d in itertools.product(range(n), repeat=4):
        lhs = sum(int(T[a][b][x]) * int(T[x][c][d]) for x in range(n))
        rhs = sum(int(T[b][c][y]) * int(T[a][y][d]) for y in range(n))
        if lhs != rhs:
            out.append(((a, b, c, d), f"(({a} {b}) {c})_{d} = {lhs}, ({a} ({b} {c}))_{d} = {rhs}"))
    return out


# --------------------------------------- dense permutation laws and center

def dense_frobenius_violations(T, dual):
    """(where, detail) of every (a, b, c) with N[a,b]^c != N[dual a, c]^b or
    N[a,b]^c != N[c, dual b]^a, in the library's order and wording, from
    gathers of the whole dense n x n x n tensor."""
    d = np.asarray(dual)
    left = T[d].transpose(0, 2, 1)  # [a,b,c] -> N[dual a, c]^b
    right = T[:, d].transpose(2, 1, 0)  # [a,b,c] -> N[c, dual b]^a
    return [((a, b, c), f"N[{a},{b}]^{c} = {T[a, b, c]}, N[{d[a]},{c}]^{b} = {left[a, b, c]}, "
                        f"N[{c},{d[b]}]^{a} = {right[a, b, c]}")
            for a, b, c in np.argwhere((T != left) | (T != right)).tolist()]


def dense_antiautomorphism_violations(T, dual):
    """(where, detail) of every nonzero N[a,b]^c != N[dual b, dual a]^{dual c},
    in the library's order and wording, from a dense gather of the tensor."""
    d = np.asarray(dual)
    mirrored = T[np.ix_(d, d, d)].transpose(1, 0, 2)
    return [((a, b, c), f"N[{a},{b}]^{c} = {T[a, b, c]} but "
                        f"N[{d[b]},{d[a]}]^{d[c]} = {mirrored[a, b, c]}")
            for a, b, c in np.argwhere((T != mirrored) & (T != 0)).tolist()]


def dense_center_projector(T, rtol=1e-7):
    """Orthogonal projector onto the center {c : sum_b c_b (N[b,g]^d -
    N[g,b]^d) = 0 for every g, d}, from all n^2 commutator rows; singular
    values up to ``rtol`` times the largest count as zero."""
    n = len(T)
    rows = (T.transpose(1, 2, 0) - T.transpose(0, 2, 1)).reshape(n * n, n).astype(float)
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    basis = vt[s <= rtol * (s[0] if s[0] > 0 else 1.0)]
    return basis.T @ basis


def stable_table_columns(rows, n):
    """The nonzero (a, b, c, mult) columns of an int64 (m, 4) table with
    indices in range(n), by a stable sort of its flat keys, or the text of
    the ``StructureError`` of the duplicate rule: an entry whose key an
    earlier entry gave a positive value is named, the first in input order."""
    seen = set()
    for a, b, c, mult in rows.tolist():
        if (a, b, c) in seen:
            return f"duplicate key {(a, b, c)}"
        if mult:
            seen.add((a, b, c))
    order = np.argsort((rows[:, 0] * n + rows[:, 1]) * n + rows[:, 2], kind="stable")
    kept = order[rows[order, 3] > 0]
    return tuple(rows[kept, i] for i in range(4))


def reference_expand_orbits(rows, dual):
    """The (a, b, c, mult) entries of orbit rows [x, y, z, mult], x <= y <= z,
    sorted by (a, b, c), as an (E, 4) int64 array: every permutation of
    (x, y, z) as a candidate from a 7 x m table [x, y, z, dual x, dual y,
    dual z, mult], kept when it keeps equal neighbours in order."""
    perms = np.array(list(itertools.permutations(range(3))))
    slots = np.argsort(perms, axis=1)
    fields_of = np.column_stack([perms[:, :2], 3 + perms[:, 2], np.full(6, 6)])
    rows, dual = np.asarray(rows, dtype=np.int64).reshape(-1, 4), np.asarray(dual)
    n = len(dual)
    wide = np.concatenate([rows[:, :3].T, dual[rows[:, :3].T], rows[:, 3:].T])
    x, y, z = wide[:3]
    kept = np.flatnonzero(((x != y) | (slots[:, 0] < slots[:, 1])[:, None])
                          & ((y != z) | (slots[:, 1] < slots[:, 2])[:, None]))
    fields = [wide[f].ravel()[kept] for f in fields_of.T]
    a, b, c, _ = fields
    order = np.argsort((a * n + b) * n + c)
    return np.stack([field[order] for field in fields], axis=1)


# ------------------------------------------------- phases and dimensions

_QUARTER = (1 + 0j, 1j, -1 + 0j, -1j)


def fraction_unit_phase(t):
    """e^{2 pi i t} for rational t, reduced to a quarter turn with
    ``Fraction`` arithmetic and rounded by ``Fraction.__float__``."""
    t = mod1(Fraction(t))
    quarter = (4 * t.numerator) // t.denominator
    rest = t - Fraction(quarter, 4)
    if rest == 0:
        return _QUARTER[quarter]
    angle = 2.0 * math.pi * float(rest)
    return _QUARTER[quarter] * complex(math.cos(angle), math.sin(angle))


def fraction_phases(ts):
    """``fraction_unit_phase`` of each rational, as a complex array."""
    return np.array([fraction_unit_phase(t) for t in ts], dtype=complex)


def dense_quantum_dimensions(ring):
    """Perron-Frobenius dimensions from the dense table T: the library's
    power iteration (same tolerance and step limit) on T summed over its
    middle axis, then the residual with each
    sum_nu N[l,m]^nu d_nu added over the (n, n) slices T[:, :, nu] in
    increasing nu."""
    T = dense(ring)
    n = ring.size
    A = T.sum(axis=1, dtype=float)
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(100_000):
        w = A @ v
        w /= np.linalg.norm(w)
        if np.max(np.abs(w - v)) < 1e-12:
            v = w
            break
        v = w
    v = A @ v / float(v @ (A @ v))
    d = v / v[ring.unit]
    products = np.zeros((n, n))
    for nu in range(n):
        products += T[:, :, nu] * d[nu]
    residual = float(np.max(np.abs(products - np.outer(d, d))))
    return DimensionVector(d=d, w=float(np.dot(d, d)), residual=residual)


# -------------------------------------------- S, monodromy and characters

def su2_s_closed_form(k):
    """Independent S-matrix oracle: S[a,b] = sqrt(2/(k+2)) sin(pi (a+1)(b+1)/(k+2))."""
    if k < 1:
        raise StructureError(f"level must be >= 1, got {k}")
    n = k + 2
    S = np.zeros((k + 1, k + 1), dtype=complex)
    for a in range(k + 1):
        for b in range(k + 1):
            S[a, b] = math.sqrt(2.0 / n) * math.sin(math.pi * (a + 1) * (b + 1) / n)
    return S


@dataclass(frozen=True)
class MonodromySpectra:
    """Exact monodromy eigenvalue exponents per label pair.

    ``pairs[(m, n)]`` lists h_l - h_m - h_n (mod 1) once per fusion channel,
    i.e. with multiplicity N[m,n]^l; the eigenvalue itself is
    e^{2 pi i (h_l - h_m - h_n)}.  A label is degenerate when all its
    exponents against every partner vanish.
    """

    pairs: Mapping[tuple[int, int], tuple[Fraction, ...]]
    degenerate_labels: tuple[int, ...]

    def eigenvalues(self, m, n):
        return tuple(unit_phase(t) for t in self.pairs[(m, n)])


def monodromy_spectra(ring, twists):
    """Monodromy eigenvalue exponents h_l - h_m - h_n per channel, exactly."""
    validate_twists(ring, twists)
    n = ring.size
    h = twists.h
    pairs = {(m, nn): [] for m in range(n) for nn in range(n)}
    for a, b, c, mult in zip(*(col.tolist() for col in ring.columns())):
        t = mod1(h[c] - h[a] - h[b])
        pairs[(a, b)].extend([t] * mult)
    frozen = {k: tuple(sorted(v)) for k, v in pairs.items()}
    degenerate = tuple(
        m for m in range(n)
        if all(t == 0 for nn in range(n) for t in frozen[(m, nn)]))
    # the unit label always has trivial monodromy; report only true witnesses
    degenerate = tuple(m for m in degenerate if m != ring.unit)
    return MonodromySpectra(pairs=frozen, degenerate_labels=degenerate)


def statistics_characters(md):
    """chi[l, m] = Y[l,m] / d_l; the N_m-eigenvalue of the weight vector y^l."""
    return md.Y / md.d[:, None]


# ------------------------------------------------------------ group tables

def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_table(m):
    """Order 2m: indices 0..m-1 are rotations r^i, m..2m-1 are reflections s r^i."""
    def mul(x, y):
        xi, xs = x % m, x >= m
        yi, ys = y % m, y >= m
        if not xs and not ys:
            return (xi + yi) % m
        if not xs and ys:
            return m + (yi - xi) % m
        if xs and not ys:
            return m + (xi + yi) % m
        return (yi - xi) % m
    return [[mul(x, y) for y in range(2 * m)] for x in range(2 * m)]


def symmetric_table(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    def compose(p, q):
        return tuple(p[q[x]] for x in range(n))
    return [[index[compose(p, q)] for q in perms] for p in perms]


def alternating_table():
    perms = [p for p in itertools.permutations(range(4)) if _parity(p) == 0]
    index = {p: i for i, p in enumerate(perms)}
    def compose(p, q):
        return tuple(p[q[x]] for x in range(4))
    return [[index[compose(p, q)] for q in perms] for p in perms]


def _parity(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


def quaternion_table():
    """Q8 on {1, -1, i, -i, j, -j, k, -k} encoded as (sign, axis)."""
    names = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"),
             (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]
    mul_axis = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }
    index = {x: i for i, x in enumerate(names)}
    def mul(x, y):
        sx, ax = names[x]
        sy, ay = names[y]
        s, a = mul_axis[(ax, ay)]
        return index[(sx * sy * s, a)]
    return [[mul(x, y) for y in range(8)] for x in range(8)]


def product_table(t1, t2):
    n1, n2 = len(t1), len(t2)
    def enc(a, b):
        return a * n2 + b
    return [[enc(t1[x1][y1], t2[x2][y2]) for y1 in range(n1) for y2 in range(n2)]
            for x1 in range(n1) for x2 in range(n2)]


# classical character degree multisets (sorted descending)
GROUP_FIXTURES = {
    "z1": (cyclic_table(1), (1,)),
    "z2": (cyclic_table(2), (1, 1)),
    "z3": (cyclic_table(3), (1, 1, 1)),
    "z4": (cyclic_table(4), (1, 1, 1, 1)),
    "z5": (cyclic_table(5), (1,) * 5),
    "z6": (cyclic_table(6), (1,) * 6),
    "z8": (cyclic_table(8), (1,) * 8),
    "s3": (symmetric_table(3), (2, 1, 1)),
    "d4": (dihedral_table(4), (2, 1, 1, 1, 1)),
    "d5": (dihedral_table(5), (2, 2, 1, 1)),
    "d6": (dihedral_table(6), (2, 2, 1, 1, 1, 1)),
    "q8": (quaternion_table(), (2, 1, 1, 1, 1)),
    "a4": (alternating_table(), (3, 1, 1, 1)),
    "s4": (symmetric_table(4), (3, 3, 2, 1, 1)),
    "z2xz2": (product_table(cyclic_table(2), cyclic_table(2)), (1,) * 4),
    "z2xs3": (product_table(cyclic_table(2), symmetric_table(3)), (2, 2, 1, 1, 1, 1)),
    "z3xz4": (product_table(cyclic_table(3), cyclic_table(4)), (1,) * 12),
}


def reference_group_algebra(table):
    """The group algebra of ``table`` built entry by entry: the first e whose
    row and column are the identity is the unit, the h with g h = e is the
    inverse of g, and {(i, j, table[i][j]): 1} is the structure."""
    n = len(table)
    unit = next(e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n)))
    dual = [next(h for h in range(n) if table[g][h] == unit) for g in range(n)]
    return BasedAlgebra([f"g{i}" for i in range(n)], unit, dual,
                        {(i, j, table[i][j]): 1 for i in range(n) for j in range(n)})


def unconjugated_z3():
    """The Z_3 table N[a,b]^{(a+b) mod 3} = 1 with the identity as dual map
    and twists 0, 1/3, 1/3: every entry is well formed, but it is not a
    fusion ring (N[1,1]^0 = 0 breaks the conjugate and Frobenius laws)."""
    a, b = np.indices((3, 3)).reshape(2, -1)
    ring = FusionRing(["0", "1", "2"], 0, [0, 1, 2],
                      np.stack([a, b, (a + b) % 3, np.ones_like(a)], axis=1))
    return ring, TwistData([Fraction(0), Fraction(1, 3), Fraction(1, 3)])


def permute_table(table, perm):
    """Relabel a multiplication table by the permutation old -> new."""
    n = len(table)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    return [[perm[table[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]


# ------------------------------------------------------ sparse table views

def table_rows(structure):
    """The sorted [a, b, c, mult] rows of a ring's or algebra's ``columns()``."""
    return np.stack(structure.columns(), axis=1).tolist()


def table_dict(structure):
    """The nonzero entries of ``columns()`` as a dict (a, b, c) -> mult."""
    return {(a, b, c): m for a, b, c, m in table_rows(structure)}


def full_form(structure, twists=None):
    """The file dict of a ring or algebra in the full form: every
    [a, b, c, mult] entry under "fusion" (rings) or "structure" (algebras),
    then a ring's twists as rational strings or an algebra's dims, in the
    field order of the writer."""
    if isinstance(structure, FusionRing):
        key, after = "fusion", {} if twists is None else {"twists": [str(h) for h in twists.h]}
    else:
        key, after = "structure", {} if structure.dims is None else {"dims": list(structure.dims)}
    return {"labels": list(structure.labels), "unit": structure.unit,
            "dual": list(structure.dual), key: table_rows(structure), **after}


# ------------------------------------------- expected SU(2) invariants

def expected_su2_invariants(k):
    """The classification list for level k as integer matrices: the
    diagonal invariant for every k, a D-type invariant for even k >= 4
    (block-diagonal when k = 0 mod 4, a permutation when k = 2 mod 4), and
    the exceptional block invariants at k = 10, 16 and 28."""
    n = k + 1
    out = [np.eye(n, dtype=np.int64)]
    if k % 4 == 0 and k >= 4:
        Z = np.zeros((n, n), dtype=np.int64)
        for a in range(0, k // 2, 2):
            for x in (a, k - a):
                for y in (a, k - a):
                    Z[x, y] = 1
        Z[k // 2, k // 2] = 2
        out.append(Z)
    elif k % 4 == 2 and k >= 6:
        Z = np.zeros((n, n), dtype=np.int64)
        for a in range(0, n, 2):
            Z[a, a] = 1
        for a in range(1, n, 2):
            Z[a, k - a] = 1
        out.append(Z)
    if k == 10:
        Z = np.zeros((n, n), dtype=np.int64)
        for block in ((0, 6), (3, 7), (4, 10)):
            for x in block:
                for y in block:
                    Z[x, y] = 1
        out.append(Z)
    if k == 16:
        Z = np.zeros((n, n), dtype=np.int64)
        for block in ((0, 16), (4, 12), (6, 10)):
            for x in block:
                for y in block:
                    Z[x, y] = 1
        Z[8, 8] = 1
        for x in (2, 14):
            Z[x, 8] = 1
            Z[8, x] = 1
        out.append(Z)
    if k == 28:
        Z = np.zeros((n, n), dtype=np.int64)
        for block in ((0, 10, 18, 28), (6, 12, 16, 22)):
            for x in block:
                for y in block:
                    Z[x, y] = 1
        out.append(Z)
    return out


# ------------------------------------------------------- Deligne products

def product_model(A, B):
    """The Deligne product of two (ring, twists) models: label (x, y) at
    index x * |B| + y, as in ``np.kron``, the outer-product fusion table and
    additive twists h_(x,y) = h_x + h_y."""
    (ring_a, twists_a), (ring_b, twists_b) = A, B
    nb = ring_b.size
    a1, b1, c1, m1 = ring_a.columns()
    a2, b2, c2, m2 = ring_b.columns()
    i, j = np.indices((a1.size, a2.size)).reshape(2, -1)
    rows = np.stack([a1[i] * nb + a2[j], b1[i] * nb + b2[j], c1[i] * nb + c2[j],
                     m1[i] * m2[j]], axis=1)
    labels = [f"{x}.{y}" for x in ring_a.labels for y in ring_b.labels]
    dual = [x * nb + y for x in ring_a.dual for y in ring_b.dual]
    ring = FusionRing(labels, ring_a.unit * nb + ring_b.unit, dual, rows)
    return ring, TwistData(x + y for x in twists_a.h for y in twists_b.h)


def permute_model(model, perm):
    """A (ring, twists) model relabelled by the permutation old -> new, so
    the unit may move off index 0."""
    ring, twists = model
    perm = np.asarray(perm, dtype=np.int64)
    old = np.argsort(perm)  # new -> old
    a, b, c, m = ring.columns()
    rows = np.stack([perm[a], perm[b], perm[c], m], axis=1)
    ring = FusionRing([ring.labels[o] for o in old], int(perm[ring.unit]),
                      [int(perm[ring.dual[o]]) for o in old], rows)
    return ring, TwistData(twists.h[o] for o in old)


# ------------------------------------------ brute-force invariant search

class _BudgetHit(Exception):
    pass


def reference_gram_factorization(Z, node_budget):
    """(type_one, gram_rows) of the Gram search that visits every row
    position from the lead on, each one node: non-negative integer rows b,
    anchored at the first label with a positive diagonal residual, with
    sum_i b_i^t b_i = Z; "unknown" past ``node_budget`` nodes."""
    n = Z.shape[0]
    budget = node_budget

    def tick(nodes=1):
        nonlocal budget
        budget -= nodes
        if budget < 0:
            raise _BudgetHit

    def candidates(R, prev):
        lead_candidates = np.nonzero(np.diagonal(R))[0]
        if lead_candidates.size == 0:
            return
        lead = int(lead_candidates[0])
        prev_b = prev if prev is not None and prev[lead] and not any(prev[:lead]) else None
        tick(lead + 1)
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
    rows = []
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


def brute_force_invariants(md: ModularData) -> list[np.ndarray]:
    """Reference depth-first search over the twist mask with the
    sum_{l,m} d_l d_m Z[l,m] = w budget; the small-instance oracle for
    ``search_invariants``."""
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
