"""Finite fusion rings: sector axioms, quantum dimensions, regular representation.

A fusion ring is a finite label set with a distinguished unit, a conjugation
(dual) involution and non-negative integer structure constants N[a,b]^c.  The
axioms checked here are the unit law, conjugation symmetry (the unit appears
exactly once, in a x abar), Frobenius reciprocity and associativity of the
product.  Quantum dimensions are the unique strictly positive simultaneous
eigenvector of the fusion matrices, computed as Perron-Frobenius data.

The structure constants are stored only as four read-only int64 arrays
(a, b, c, mult) sorted by (a, b, c), checked in bulk when the ring is built
and returned by ``columns()``.  A table already sorted with positive
multiplicities, as every file fusionkit writes, is kept without a duplicate
scan, and the column-major array of an orbit expansion without a copy
(``_table_columns``).
Every integer array that enters fusionkit (structure tables, invariant
files, branching matrices) is read by ``_int_array``, and every sparse
table by ``_table_columns``.  Bools, floats and strings are never integers
there; a list of rows is typed entry by entry and read with
``np.fromiter``, without an object array of every entry.

The axiom checks, like the quantum dimensions and the modular data, read
the columns, and build a dense int64 copy (``_scatter``) only to list the
violations of a failed Frobenius law.  A label's row is a slice of the
sorted columns and its column a mask, so the unit law, the conjugate law
and the generating set read n x n scatters of them.  The anti-automorphism
law of an involution is checked entry by entry: the mirror of each entry is
gathered from ``_flat_table``, a scratch array of the flat cells in the
narrowest unsigned dtype that holds max(N), built for that one check.
Frobenius reciprocity is decided the same way when the dual is a
permutation.

Every product-closed check reads one generating set G, whose products
prove every label to lie in the algebra G generates (``generating_labels()``,
a least fixed point on the pattern N > 0, found once per table; G = {0, 1}
for SU(2)_k): a property whose labels form a subalgebra holds on every label
once it holds on G.  Such labels are the left nucleus
{a : (a x) y = a (x y) for all x, y}, which decides associativity; the
centralizer of an element of an associative algebra, which gives the center
(``algebras._center``); and, when both tables of an induction certificate
are associative, the l with phi(l x) = phi(l) phi(x) for all x, the rows of
its homomorphism check (``induction.full_report``).  When the unit law
holds, the unit is in the left nucleus and leaves G, so SU(2)_k checks
label 1 alone.  Only when a label of G fails are all labels checked, so every
violation is still listed.  Each associativity partial sum is a non-negative
integer of at most n max(N)^2, and ``numerics.exact_float`` turns that bound
into float32 below 2^24, float64 below 2^53 and a ``NumericError`` above,
before any product is formed.  A label is decided by one of two exact
tests: a single-constituent table (no (a, b) repeats in the columns, as in
groups and Z_n rings) composes its n x n constituent and multiplicity maps,
scattered from the columns; any other table compares float products of a
dense copy in that dtype, in blocks of about ``_BLOCK_BYTES``.  Failing
labels are listed from full products of that one dense copy.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterable, Mapping, NoReturn

import numpy as np

from .errors import NumericError, StructureError
from .numerics import exact_float, readonly


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance, with the witnessing index tuple."""

    axiom: str
    where: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.axiom} at {self.where}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def axioms(self) -> tuple[str, ...]:
        return tuple(sorted({v.axiom for v in self.violations}))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


_INT64_MAX = int(np.iinfo(np.int64).max)
_PF_TOL = 1e-12  # quantum_dimensions: power-iteration distance between iterates
_PF_STEPS = 100_000  # quantum_dimensions: power-iteration steps before giving up
# the exact types that count as integers (``type(x) in _INTS``): bools,
# floats and strings never do
_INTS = frozenset([int] + [np.dtype(code).type for code in np.typecodes["AllInteger"]])
# the flat key (a n + b) n + c of a structure entry, like the n^3 cells of
# a dense table, must be addressable in int64
_MAX_LABELS = 2 ** 21 - 1
# the bytes of the float products the associativity test of one label forms
# at once (``_product_fails``); a failing label's full sides are not blocked
_BLOCK_BYTES = 2 ** 20


def _sequence(values, what: str) -> tuple:
    """``values`` as a tuple; a string or a scalar (0-d arrays too) is a StructureError."""
    if (isinstance(values, (str, bytes)) or not isinstance(values, Iterable)
            or getattr(values, "ndim", None) == 0):
        raise StructureError(f"{what} must be a sequence, got {values!r}")
    return tuple(values)


def _int_array(values) -> np.ndarray | None:
    """``values`` as an int64 array, or None when an element is not of an
    integer type, the shape is ragged or a value does not fit in int64.

    An integer ndarray is cast as it is, and an int64 one is returned
    itself, not copied: an unsigned value of 2^63 or more turns negative
    and fails the caller's range check.  A list or tuple of
    integers, or of equal-length rows of them, is typed on its flat entries
    and read by ``np.fromiter`` without an object array.  Anything else is
    read as an object array whose element types must all be in ``_INTS``.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    if isinstance(values, (list, tuple)):
        flat, shape = values, (len(values),)
        if values and set(map(type, values)) <= {list, tuple}:
            widths = set(map(len, values))
            if len(widths) > 1:
                return None  # ragged
            flat, shape = list(chain.from_iterable(values)), (len(values), *widths)
        if set(map(type, flat)) <= _INTS:
            try:
                return np.fromiter(flat, np.int64, len(flat)).reshape(shape)
            except OverflowError:
                return None
    try:
        a = np.array(values, dtype=object)
        if set(map(type, a.flat)) <= _INTS:
            return a.astype(np.int64)
    except (ValueError, OverflowError):
        pass
    return None


# per table width: the table's kind, an entry's fields and the name of its
# value, as error messages show them
_ENTRY = {4: ("structure", "(a, b, c, mult)", "multiplicity"),
          3: ("invariant", "(l, m, value)", "value")}


def _table_columns(table, n: int, width: int) -> tuple[np.ndarray, ...]:
    """The nonzero entries of a sparse table as int64 columns, sorted by
    their indices: (a, b, c, mult) of a structure table for ``width`` 4,
    (l, m, value) of an invariant file for ``width`` 3.

    A mapping is read as rows (*key, value).  The whole table is checked in
    bulk: one ``_int_array`` cast, indices in range(n) and values in
    [0, 2^63).  When the flat keys are strictly increasing and every value
    is positive, as in every file fusionkit writes and every expansion of
    orbit rows, there is no duplicate and no zero to drop, and the columns
    of the cast are returned as they are: views, contiguous when the rows
    are column-major.  Only an int64 ndarray that the caller can still
    write is copied first, so the columns never alias it.  Otherwise the
    rows take a stable sort on the flat key and zero entries are dropped.
    An entry is a duplicate when an earlier entry with the same key is
    positive, so the sorted table holds one exactly when a positive entry
    is followed by the same key.
    When a bulk check fails, ``_first_bad_entry`` names the first bad entry
    in input order.
    """
    if not isinstance(table, Mapping) and getattr(table, "ndim", 0) == 0:
        table = _sequence(table, "structure table")
    try:
        rows = _int_array([(*key, value) for key, value in table.items()]
                          if isinstance(table, Mapping) else table)
    except TypeError:  # a mapping key that is not a tuple
        rows = None
    if rows is not None and rows.shape[:1] == (0,):
        rows = rows.reshape(0, width)
    if (rows is not None and rows.ndim == 2 and rows.shape[1] == width
            and rows.min(initial=0) >= 0 and rows[:, :-1].max(initial=0) < n):
        key = _flat_key(n, *rows.T[:-1])  # below n^3 < 2^63 (_MAX_LABELS)
        if np.all(key[1:] > key[:-1]) and rows[:, -1].min(initial=1) > 0:
            if rows is table and (table.flags.writeable or not table.flags.owndata):
                rows = rows.copy(order="F")
            return tuple(rows.T)
        order = np.argsort(key, kind="stable")
        key, rows = key[order], rows[order]
        positive = rows[:, -1] > 0
        if not np.any(positive[:-1] & (key[1:] == key[:-1])):
            return tuple(col[positive] for col in rows.T)
    _first_bad_entry(table, n, width)


def _first_bad_entry(table, n: int, width: int) -> NoReturn:
    """Walk a table that failed the bulk checks in input order and raise
    ``StructureError`` naming its first bad entry."""
    kind, fields, value = _ENTRY[width]
    mapping = isinstance(table, Mapping)
    seen: set[tuple[int, ...]] = set()  # keys given a positive value so far
    for entry in (table.items() if mapping else table):
        try:
            *index, mult = (*entry[0], entry[1]) if mapping else entry
        except (TypeError, ValueError):
            index = None
        if index is None or len(index) != width - 1:
            raise StructureError(f"{kind} entry {entry!r} is not {fields}")
        if not all(type(x) in _INTS and 0 <= x < n for x in index) or not (
                type(mult) in _INTS and 0 <= mult <= _INT64_MAX):
            raise StructureError(f"{kind} entry {entry!r} needs integer indices in range({n}) "
                                 f"and an integer {value} in [0, 2**63)")
        key = tuple(int(x) for x in index)
        if key in seen:
            raise StructureError(f"duplicate key {key}")
        if mult:
            seen.add(key)
    raise StructureError(f"{kind} table is not a sequence of {fields} entries")


def _checked_header(labels, unit, dual) -> tuple[tuple, np.ndarray]:
    """The labels as a tuple and the dual map as an int64 array, after the
    constructor's checks of labels, unit and dual map (``StructureError``)."""
    labels = _sequence(labels, "labels")
    if len(labels) > _MAX_LABELS:
        raise StructureError(f"{len(labels)} labels exceed the limit of {_MAX_LABELS}")
    if not labels or not all(isinstance(x, str) for x in labels):
        raise StructureError(f"labels must be a non-empty sequence of strings, got {labels!r}")
    if len(set(labels)) != len(labels):
        raise StructureError("label ids must be unique")
    n = len(labels)
    if unit is not None and (type(unit) not in _INTS or not 0 <= unit < n):
        raise StructureError(f"unit index {unit!r} out of range for {n} labels")
    dual = _int_array(_sequence(dual, "dual map"))
    if dual is None or dual.shape != (n,) or not np.all((dual >= 0) & (dual < n)):
        raise StructureError("dual map must list one in-range integer index per label")
    return labels, dual


class _SparseStructure:
    """Common core of :class:`FusionRing` and ``algebras.BasedAlgebra``:
    labels, an optional unit, an involution and non-negative integer
    constants N[a,b]^c, given as a mapping (a, b, c) -> mult, an iterable of
    (a, b, c, mult) or an integer (m, 4) ndarray; zero entries are dropped.
    The constructor checks structure only (string labels, integer indices in
    range, multiplicities that fit in int64) and raises ``StructureError``;
    the ``validate_*`` functions check the axioms and collect every violation.

    The table is stored only as four read-only int64 columns (a, b, c, mult),
    sorted by (a, b, c), which ``columns()`` returns.  ``generating_labels()``
    and a ring's ``dimensions()`` are computed once.
    """

    __slots__ = ("labels", "unit", "dual", "_columns", "_dimensions", "_generators")

    def __init__(self, labels, unit, dual, table):
        labels, dual = _checked_header(labels, unit, dual)
        columns = _table_columns(table, len(labels), 4)
        values = (labels, None if unit is None else int(unit), tuple(dual.tolist()),
                  tuple(readonly(col) for col in columns), None, None)
        for name, value in zip(_SparseStructure.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def size(self) -> int:
        return len(self.labels)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only int64 columns (a, b, c, mult) of the nonzero entries,
        sorted by (a, b, c)."""
        return self._columns

    def generating_labels(self) -> tuple[int, ...]:
        """Labels, ascending, whose products generate every label
        (``_generating_labels`` on the columns), found once."""
        if self._generators is None:
            object.__setattr__(self, "_generators", tuple(_generating_labels(self)))
        return self._generators

    def _key(self) -> tuple:
        return (self.labels, self.unit, self.dual, *(col.tobytes() for col in self._columns))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        unit = None if self.unit is None else self.labels[self.unit]
        return f"{type(self).__name__}({self.size} labels, unit={unit!r})"


class FusionRing(_SparseStructure):
    """Immutable fusion-ring data: string ``labels`` (a label's index is its
    position), a required ``unit`` index, the conjugation map ``dual`` and
    the sparse ``fusion`` table N[a,b]^c, read back through ``columns()``.
    Axioms are checked by :func:`validate_fusion_ring`.
    """

    __slots__ = ()

    def __init__(self, labels, unit, dual, fusion):
        if unit is None:
            raise StructureError("a fusion ring needs a unit index")
        super().__init__(labels, unit, dual, fusion)

    def dimensions(self) -> DimensionVector:
        """The ring's :func:`quantum_dimensions`, found once; a ring without
        them keeps the ``NumericError`` and raises it again."""
        if self._dimensions is None:
            try:
                dims = quantum_dimensions(self)
            except NumericError as exc:
                dims = exc
            object.__setattr__(self, "_dimensions", dims)
        if isinstance(self._dimensions, NumericError):
            raise self._dimensions
        return self._dimensions

    def conjugation_matrix(self) -> np.ndarray:
        return readonly(_matrix(np.arange(self.size), self.dual, 1, self.size))


@dataclass(frozen=True)
class DimensionVector:
    """Quantum dimensions d (d[unit] = 1) and the global index w = sum d^2."""

    d: np.ndarray
    w: float
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "d", readonly(np.asarray(self.d, dtype=float)))


def validate_fusion_ring(ring: FusionRing) -> ValidationReport:
    """Check every fusion-ring axiom, collecting all violations.

    Axiom names used in the report: ``involution``, ``unit``, ``conjugate``,
    ``frobenius``, ``associativity``.  Every check runs on every table,
    also on one read from orbit rows (``serialize``): those are commutative
    by construction, but can still fail Frobenius reciprocity.
    """
    unit = ring.unit
    out: list[Violation] = []
    if ring.dual[unit] != unit:
        out.append(Violation("involution", (unit,), "dual(unit) != unit"))
    out += _involution_violations(ring.dual)
    unit_bad = _unit_violations(ring)
    out += unit_bad
    a, b, c, mult = ring.columns()
    at_unit = c == unit
    got = _matrix(a[at_unit], b[at_unit], mult[at_unit], ring.size)  # N[lam,mu]^unit
    out += [Violation("conjugate", (int(lam), int(mu)), f"N[{lam},{mu}]^unit = "
                      f"{got[lam, mu]}, expected {int(mu == ring.dual[lam])}")
            for lam, mu in np.argwhere(got != ring.conjugation_matrix())]
    out += _frobenius_violations(ring)
    out += _associativity_violations(ring, _precheck_labels(ring, not unit_bad))
    return ValidationReport(tuple(out))


def _involution_violations(dual) -> list[Violation]:
    """dual(dual(a)) = a for every label."""
    d = np.asarray(dual)
    return [Violation("involution", (int(a),), f"dual(dual({a})) = {d[d[a]]}")
            for a in np.flatnonzero(d[d] != np.arange(len(d)))]


def _precheck_labels(structure: _SparseStructure, unit_law: bool) -> tuple[int, ...]:
    """The labels the associativity check tries first: the generating set,
    without the unit when there is one and the unit law holds, because
    (u x) y = x y = u (x y) puts the unit u in the left nucleus."""
    gens = structure.generating_labels()
    return tuple(g for g in gens if g != structure.unit) if unit_law else gens


def _row(a: np.ndarray, label: int) -> slice:
    """The entries with first index ``label``: a slice of the sorted columns."""
    return slice(*np.searchsorted(a, (label, label + 1)).tolist())


def _ranges(start, count: np.ndarray) -> np.ndarray:
    """range(start[i], start[i] + count[i]) for every i, concatenated (start may be a scalar)."""
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


def _matrix(x: np.ndarray, y: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The n x n int64 matrix with ``values`` at the cells (x, y), zero elsewhere."""
    m = np.zeros((n, n), dtype=np.int64)
    m[x, y] = values
    return m


def _flat_key(n: int, first: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """The flat cell (i n + j) n + k of index columns i, j, k (any number of
    them), in one new array."""
    key = np.array(first, dtype=np.int64)
    for col in rest:
        key *= n
        key += col
    return key


def _top(structure: _SparseStructure) -> int:
    """max(N), from the columns (0 for an empty table)."""
    return int(structure.columns()[3].max(initial=0))


def _flat_table(structure: _SparseStructure) -> np.ndarray:
    """N[a,b]^c at the flat cell (a n + b) n + c, zero elsewhere, in the
    narrowest unsigned dtype that holds max(N): scratch for the exact
    lookups of one check, never kept."""
    return _scatter(structure, np.min_scalar_type(_top(structure))).reshape(-1)


def _scatter(structure: _SparseStructure, dtype) -> np.ndarray:
    """A new dense array T[a, b, c] = N[a,b]^c in ``dtype``."""
    n = structure.size
    t = np.zeros((n, n, n), dtype)
    a, b, c, mult = structure.columns()
    t.reshape(-1)[_flat_key(n, a, b, c)] = mult
    return t


def _unit_violations(structure: _SparseStructure) -> list[Violation]:
    """N[unit,b]^c = N[b,unit]^c = delta_bc, from the unit's row (a slice of
    the columns) and column (a mask)."""
    n, unit = structure.size, structure.unit
    x, y, z, mult = structure.columns()
    row, col = _row(x, unit), y == unit
    eye = np.eye(n, dtype=np.int64)
    out = []
    for left, got in ((True, _matrix(y[row], z[row], mult[row], n)),
                      (False, _matrix(x[col], z[col], mult[col], n))):
        for b, c in np.argwhere(got != eye):
            where = (unit, int(b), int(c)) if left else (int(b), unit, int(c))
            out.append(Violation("unit", where, f"N[{where[0]},{where[1]}]^{c} = "
                                                f"{got[b, c]}, expected {int(b == c)}"))
    return out


def _frobenius_violations(ring: _SparseStructure) -> list[Violation]:
    """N[a,b]^c = N[dual a, c]^b = N[c, dual b]^a for every triple.

    For a permutation dual, each side moves the entries to as many cells as
    N has, so both sides agreeing with N on its entries is the whole law;
    they are read from ``_flat_table``.  Otherwise, or when they disagree,
    the violations are listed from dense gathers of an int64 copy.
    """
    n, d = ring.size, np.asarray(ring.dual)
    x, y, z, mult = ring.columns()
    if np.array_equal(np.sort(d), np.arange(n)):
        flat = _flat_table(ring)
        if (np.array_equal(flat[_flat_key(n, d[x], z, y)], mult)
                and np.array_equal(flat[_flat_key(n, z, d[y], x)], mult)):
            return []
    T = _scatter(ring, np.int64)
    left = T[d].transpose(0, 2, 1)  # [a,b,c] -> N[dual a, c]^b
    right = T[:, d].transpose(2, 1, 0)  # [a,b,c] -> N[c, dual b]^a
    return [Violation("frobenius", (int(a), int(b), int(c)),
                      f"N[{a},{b}]^{c} = {T[a, b, c]}, N[{d[a]},{c}]^{b} = {left[a, b, c]}, "
                      f"N[{c},{d[b]}]^{a} = {right[a, b, c]}")
            for a, b, c in np.argwhere((T != left) | (T != right))]


def _antiautomorphism_violations(alg: _SparseStructure) -> list[Violation]:
    """N[a,b]^c = N[dual b, dual a]^{dual c}, witnessed at the nonzero side
    and listed by (a, b, c); each mirror is read from ``_flat_table``."""
    n, d = alg.size, np.asarray(alg.dual)
    a, b, c, mult = alg.columns()
    mirrored = _flat_table(alg)[_flat_key(n, d[b], d[a], d[c])]
    bad = np.flatnonzero(mirrored != mult)
    return [Violation("involution", (a, b, c), f"N[{a},{b}]^{c} = {v} but "
                                               f"N[{d[b]},{d[a]}]^{d[c]} = {mv}")
            for a, b, c, v, mv in zip(*(col[bad].tolist() for col in (a, b, c, mult, mirrored)))]


def _associativity_violations(structure: _SparseStructure,
                              generators: Iterable[int]) -> list[Violation]:
    """((a b) c)_d = (a (b c))_d for every (a, b, c, d), listed by a, then
    (b, c, d) ascending.

    Only the left labels of ``generators`` are checked first: a generating
    set G (``generating_labels()``), less any label already known to lie
    in the left nucleus, such as a unit that obeys the unit law
    (``_precheck_labels``).  Every label is checked, and listed, only when
    one of them fails.  This suffices because the left nucleus
    N_l = {a : (a, x, y) = 0 for all x, y}, with (a, x, y) = (a x) y - a (x y),
    is a subalgebra: the Teichmueller identity
    (a b, c, d) - (a, b c, d) + (a, b, c d) = a (b, c, d) + (a, b, c) d
    gives (a b, c, d) = 0 for a, b in N_l.  So when G lies in N_l, so does
    the algebra G generates, which holds every label; an empty
    ``generators`` decides at once.

    Every partial sum is a non-negative integer of at most n max(N)^2, a
    bound that ``exact_float`` must accept before any product is formed.
    A label is decided by ``_composed_fails`` on a single-constituent table
    (no (a, b) repeats in the columns: groups, Z_n rings, matrix units),
    else by ``_product_fails`` on a dense copy F in that dtype.  Failing
    labels are listed from F[a] @ F.reshape(n, n*n) and F.reshape(n*n, n) @
    F[a] (F scattered only then for a single-constituent table).
    """
    n = structure.size
    a, b, c, mult = structure.columns()
    top = _top(structure)
    dtype = exact_float(n * top * top, f"associativity sums up to {n} * {top}^2")
    F = _scatter(structure, dtype) if np.any((a[1:] == a[:-1]) & (b[1:] == b[:-1])) else None
    fails = (partial(_composed_fails, _matrix(a, b, c, n), _matrix(a, b, mult, n)) if F is None
             else partial(_product_fails, F))
    if not any(map(fails, generators)):
        return []
    F = _scatter(structure, dtype) if F is None else F
    sides = ((x, np.tensordot(F[x], F, 1), np.tensordot(F, F[x], 1))
             for x in filter(fails, range(n)))
    return [Violation("associativity", (x, int(b), int(c), int(d)),
                      f"(({x} {b}) {c})_{d} = {int(lhs[b, c, d])}, "
                      f"({x} ({b} {c}))_{d} = {int(rhs[b, c, d])}")
            for x, lhs, rhs in sides for b, c, d in np.argwhere(lhs != rhs)]


def _generating_labels(structure: _SparseStructure) -> list[int]:
    """Labels G, ascending, whose products generate every label: the least
    fixed point of an exact rule on the pattern of the columns.

    A label is known once it is proved to lie in the algebra G generates.
    A product g s or s g, with g in G and s known, whose one unknown
    constituent is c proves c: the product minus its known constituents is
    N^c c, with N^c > 0.  A sweep counts the unknown constituents of every
    product (one ``np.bincount`` of the flat columns: factor s, product id,
    constituent c) and proves every c it can.  Sweeps repeat until one
    proves nothing; then the smallest unknown label joins G.  The rule is
    monotone, so no order of proofs could prove other labels.
    """
    n = structure.size
    a, b, c, _ = structure.columns()
    known = np.zeros(n, dtype=bool)
    gens: list[int] = []
    factor = product = constituent = np.zeros(0, dtype=np.int64)
    while not known.all():
        g = int(np.argmin(known))
        row, col = _row(a, g), b == g
        first = 2 * n * len(gens)  # ids first + s of g s, first + n + s of s g
        gens.append(g)
        factor = np.concatenate((factor, b[row], a[col]))
        product = np.concatenate((product, first + b[row], first + n + a[col]))
        constituent = np.concatenate((constituent, c[row], c[col]))
        proved = [g]
        while len(proved):  # one sweep
            known[proved] = True
            unknown = ~known[constituent]
            factor, product, constituent = factor[unknown], product[unknown], constituent[unknown]
            alone = np.bincount(product)[product] == 1
            proved = constituent[alone & known[factor]]
    return gens


def _product_fails(F: np.ndarray, a: int) -> bool:
    """Whether ((a b) c)_d != (a (b c))_d for some (b, c, d), from the float
    products F[a] @ F.reshape(n, n*n) and F.reshape(n*n, n) @ F[a],
    compared in blocks of the middle index c of about ``_BLOCK_BYTES`` for
    both sides and the copy, and at least one c: ((a b) c)_d is F[a] times
    a strided view of F, (a (b c))_d a contiguous copy of the same cells
    times F[a], so F is read once and each product is one matrix product.
    """
    n = len(F)
    step = max(1, _BLOCK_BYTES // (3 * n * n * F.itemsize))
    return not all(np.array_equal(F[a] @ B.reshape(n, -1),
                                  (np.ascontiguousarray(B).reshape(-1, n) @ F[a]).reshape(n, -1))
                   for B in (F[:, s:s + step] for s in range(0, n, step)))


def _composed_fails(P: np.ndarray, M: np.ndarray, a: int) -> bool:
    """:func:`_product_fails` for a table whose product a b is M[a,b]
    copies of P[a,b] (nothing when M[a,b] = 0): ((a b) c) is M[a,b]
    M[P[a,b],c] copies of P[P[a,b],c] and (a (b c)) is M[b,c] M[a,P[b,c]]
    copies of P[a,P[b,c]], n^2 products of at most max(N)^2, exact in int64.
    """
    lhs_d, lhs = P[P[a]], M[a][:, None] * M[P[a]]
    rhs_d, rhs = P[a][P], M * M[a][P]
    return bool(np.any((lhs != rhs) | ((lhs > 0) & (lhs_d != rhs_d))))


def quantum_dimensions(ring: FusionRing) -> DimensionVector:
    """Perron-Frobenius dimensions of a valid fusion ring, read from the
    sparse columns (``FusionRing.dimensions()`` keeps them).

    Power iteration on A = sum_mu N_mu, A[l,nu] = sum_mu N[l,mu]^nu
    (primitive for the connected rings handled here; one ``np.bincount``
    over the cells (l, nu), exact in float64), normalized so d[unit] = 1,
    with the eigenvector refined until successive iterates agree to
    ``_PF_TOL``.  The multiplicativity residual
    max |sum_nu N[l,m]^nu d_nu - d_l d_m| is returned alongside; its sums
    are one ``np.bincount`` over the cells (l, m), in increasing nu.
    """
    n = ring.size
    a, b, c, mult = ring.columns()
    A = np.bincount(a * n + c, mult, n * n).reshape(n, n)
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(_PF_STEPS):
        w = A @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            raise NumericError("fusion matrices have a zero total column; ring disconnected?")
        v, previous = w / nrm, v
        if np.max(np.abs(v - previous)) < _PF_TOL:
            break
    else:
        raise NumericError(f"power iteration did not converge in {_PF_STEPS} steps")
    # one Rayleigh-refined sweep to polish the eigenvector
    lam = float(v @ (A @ v))
    v = A @ v / lam
    if v[ring.unit] <= 0:
        raise NumericError("Perron vector has non-positive unit component")
    d = v / v[ring.unit]
    if np.any(d <= 0):
        raise NumericError("Perron vector is not strictly positive")

    products = np.bincount(a * n + b, mult * d[c], n * n).reshape(n, n)
    residual = float(np.max(np.abs(products - np.outer(d, d))))
    limit = 1e-8 * max(1.0, float(np.max(d)) ** 2)
    if residual > limit:
        raise NumericError(f"dimension residual {residual:.3e} exceeds {limit:.3e}")
    return DimensionVector(d=d, w=float(np.dot(d, d)), residual=residual)

