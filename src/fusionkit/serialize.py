"""JSON file formats and CSV export.

Twist exponents are serialized as exact rational strings ("0", "3/16"), never
floats, so T-sparsity decisions survive a round trip.  All writers go through
``dumps``, which emits a canonical form (sorted keys where the data is a set,
fixed field order, trailing newline) so serialize . parse is the identity on
bytes as well as on values.  Its layout: an object has one member per line
and a list that holds a container one item per line, both indented by two
spaces; a list of scalars stays on one line, so a structure table has one
[a, b, c, mult] entry per line and is encoded by the C JSON encoder.

A ring or algebra file holds its table in one of two forms, and the writer
chooses, with no option.  When the dual is an involution and
N_abc := N[a,b]^{dual c} is the same for every ordering of (a, b, c), as in
every braided fusion ring (commutativity and the ring axioms), the
file lists one [x, y, z, mult] row per orbit, x <= y <= z, under
"fusion_orbits" ("structure_orbits" for algebras), sorted by (x, y, z).
Otherwise it lists every entry under "fusion" ("structure").  The reader
takes either and passes the entries to the same table reader and
constructor.  Orbit rows are expanded in numpy straight into one
column-major (E, 4) array, sorted by (a, b, c) with positive
multiplicities, which the constructor keeps as its columns without another
scan for duplicates or a copy.  The validators check every axiom on what
was read.  A table read from orbit rows is commutative and
has N[a,b]^c = N[a, dual c]^{dual b} by construction, but its Frobenius
and antiautomorphism laws still need N_abc = N_{dual a, dual b, dual c},
which the rows do not imply, so those checks can fail on such a table.
"""
from __future__ import annotations

import gc
import itertools
import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from .algebras import BasedAlgebra, BlockProfile
from .errors import SchemaError, StructureError
from .induction import InductionCertificate
from .invariants import MassMatrix, invariant_counts
from .modular import TwistData
from .rings import (_INTS, FusionRing, _checked_header, _involution_violations, _matrix,
                    _table_columns)


# ---------------------------------------------------------------- rationals

def parse_rational(text: str, where: str) -> Fraction:
    if not isinstance(text, str):
        raise SchemaError(f"{where}: twist must be a rational string, got {text!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{where}: {text!r} is not a rational p/q") from None
    if not 0 <= value.numerator < value.denominator:  # 0 <= value < 1, on ints
        raise SchemaError(f"{where}: twist {text!r} must lie in [0, 1)")
    canonical = str(value)  # "0", "1/2", "3/16"
    if canonical != text.strip():
        raise SchemaError(f"{where}: twist {text!r} is not written as p/q in lowest terms; "
                          f"write {canonical!r}")
    return value


# -------------------------------------------------------------------- rings

def ring_to_dict(ring: FusionRing, twists: TwistData | None = None) -> dict:
    obj = _table_to_dict(ring, "fusion")
    if twists is not None:
        obj["twists"] = [str(h) for h in twists.h]
    return obj


def ring_from_dict(obj: Any, where: str = "ring") -> tuple[FusionRing, TwistData | None]:
    ring = _table_from_dict(obj, where, FusionRing, ("labels", "unit", "dual", "fusion"))
    twists = None
    if obj.get("twists") is not None:
        raw = obj["twists"]
        if not isinstance(raw, list) or len(raw) != ring.size:
            raise SchemaError(f"{where}.twists: expected one rational string per label")
        twists = TwistData(tuple(parse_rational(t, f"{where}.twists[{i}]")
                                 for i, t in enumerate(raw)))
    return ring, twists


# --------------------------------------------------------------- invariants

def invariant_to_dict(mm: MassMatrix, labels: list[str]) -> dict:
    Z = mm.Z
    tr_z, tr_zzt = invariant_counts(Z)
    cells = np.argwhere(Z)  # row-major
    obj: dict[str, Any] = {
        "size": int(Z.shape[0]),
        "entries": np.column_stack([cells, Z[tuple(cells.T)]]).tolist(),
        "flags": {
            "is_identity": mm.is_identity,
            "is_permutation": mm.is_permutation,
            "is_symmetric": mm.is_symmetric,
            "type_one": mm.type_one,
        },
        "residuals": {"s_commutator": mm.residual_s, "t_commutator": mm.residual_t},
        "counts": {"trZ": tr_z, "trZZt": tr_zzt},
        "labels": list(labels),
    }
    if mm.gram_rows is not None:
        obj["gram_rows"] = [list(r) for r in mm.gram_rows]
    return obj


def z_matrix_from_dict(obj: Any, n: int, where: str = "invariant") -> np.ndarray:
    """The mass matrix of an invariant file, whose ``size`` must be n.  The
    entries follow the rule of structure tables: integer indices in range(n),
    integer values in [0, 2^63), and one positive entry per cell."""
    if isinstance(obj, dict) and obj.get("size", n) != n:
        raise SchemaError(f"invariant size {obj['size']!r} does not match ring size {n}")
    if not isinstance(obj, dict) or "size" not in obj or "entries" not in obj:
        raise SchemaError(f"{where}: expected an object with 'size' and 'entries'")
    if type(obj["size"]) not in _INTS or n <= 0:
        raise SchemaError(f"{where}.size: expected a positive integer")
    if not isinstance(obj["entries"], list):
        raise SchemaError(f"{where}.entries: expected an array of [l, m, value]")
    try:
        l, m, v = _table_columns(obj["entries"], n, 3)
    except StructureError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    return _matrix(l, m, v, n)


def z_matrix_to_csv(Z: np.ndarray, labels: list[str]) -> str:
    """CSV with a header row of labels; one row of the mass matrix per line."""
    lines = ["," + ",".join(labels)]
    for i, row in enumerate(np.asarray(Z)):
        lines.append(labels[i] + "," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- algebras

def algebra_to_dict(alg: BasedAlgebra) -> dict:
    obj = _table_to_dict(alg, "structure")
    if alg.dims is not None:
        obj["dims"] = list(alg.dims)
    return obj


def algebra_from_dict(obj: Any, where: str = "algebra") -> BasedAlgebra:
    return _table_from_dict(obj, where, BasedAlgebra, ("labels", "dual", "structure"),
                            dims=obj.get("dims") if isinstance(obj, dict) else None)


def _table_to_dict(table: FusionRing | BasedAlgebra, key: str) -> dict[str, Any]:
    """The file of a ring (``key`` "fusion") or algebra ("structure"): its
    orbit rows under ``key + "_orbits"`` when they expand back to exactly its
    entries, else every [a, b, c, mult] entry under ``key``."""
    rows = _orbit_rows(table)
    if rows is None:
        rows = np.stack(table.columns(), axis=1)
    else:
        key += "_orbits"
    with _gc_paused():
        entries = rows.tolist()
    return {"labels": list(table.labels), "unit": table.unit, "dual": list(table.dual),
            key: entries}


def _table_from_dict(obj: Any, where: str, cls, required: tuple[str, ...], **extra):
    """Shared parser of ring and algebra files: ``required`` names the fields
    that must be present, its last one the table, given either as [a, b, c,
    mult] entries under its own name or as orbit rows under that name plus
    "_orbits" (``_orbit_entries``), never both.  The ``cls`` constructor
    checks the labels, unit, dual, entries and ``extra``; a file must not
    list zero multiplicities, which it drops."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    full, orbits = required[-1], required[-1] + "_orbits"
    if full in obj and orbits in obj:
        raise SchemaError(f"{where}: give {full!r} or {orbits!r}, not both")
    key = orbits if orbits in obj else full
    for field in (*required[:-1], key):
        if field not in obj:
            raise SchemaError(f"{where}: missing field {field!r}")
    for field in ("labels", "dual", key):
        if not isinstance(obj[field], list):
            raise SchemaError(f"{where}.{field}: expected an array")
    try:
        entries = _orbit_entries(obj, where, key) if key == orbits else obj[key]
        table = cls(obj["labels"], obj.get("unit"), obj["dual"], entries, **extra)
    except StructureError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    if table.columns()[3].size < len(entries):
        raise SchemaError(f"{where}.{key}: multiplicities must be positive")
    return table


# each permutation (p, q, r) of (x, y, z), as the indices in (x, y, z) of
# p, q and r, with whether it keeps x before y and y before z
_PERMS = [(perm, (perm.index(0) < perm.index(1), perm.index(1) < perm.index(2)))
          for perm in itertools.permutations(range(3))]


def _orbit_rows(table: FusionRing | BasedAlgebra) -> np.ndarray | None:
    """The orbit rows [x, y, z, mult], x <= y <= z, of a table, sorted, or
    None unless the dual is an involution and ``_expand_orbits`` of the rows
    gives back exactly the table's entries.

    A row stands for N[x,y]^{dual z} = mult.  The expansion is exact when
    N_abc := N[a,b]^{dual c} is the same for every ordering of (a, b, c):
    the axioms of a fusion ring make it invariant under cyclic shifts, and
    commutativity (every braided ring) under the rest."""
    dual = np.array(table.dual)
    if _involution_violations(dual):
        return None
    a, b, c, mult = columns = table.columns()
    z = dual[c]
    first = np.flatnonzero((a <= b) & (b <= z))
    first = first[np.lexsort((z[first], b[first], a[first]))]
    rows = np.stack([a[first], b[first], z[first], mult[first]], axis=1)
    if not all(map(np.array_equal, _expand_orbits(rows.T, dual).T, columns)):
        return None
    return rows


def _expand_orbits(rows, dual: np.ndarray) -> np.ndarray:
    """The (a, b, c, mult) entries N[p,q]^{dual r} = mult of orbit rows
    given as columns (x, y, z, mult), x <= y <= z, sorted by (a, b, c): one
    for each distinct permutation (p, q, r) of (x, y, z), 6, 3 or 1 of
    them, those that keep equal neighbours x = y and y = z in order.

    The result is one read-only (E, 4) int64 array in column-major order,
    so each column is contiguous, allocated once.  Each kept permutation
    writes its flat keys (p n + q) n + dual r into column 1 and its
    multiplicities into column 2; one argsort orders the keys, ``np.take``
    gathers the sorted keys into column 0 and the multiplicities into
    column 3, and floor divisions split the keys into a, b, c in place.
    Distinct rows give distinct keys, so the keys come out strictly
    increasing, and with positive multiplicities the constructor
    (``_table_columns``) keeps these columns as they are, without another
    sort or copy."""
    n = len(dual)
    x, y, z, _ = fields = rows
    xy, yz = x != y, y != z
    keep = {(True, True): None, (True, False): yz, (False, True): xy, (False, False): xy & yz}
    picks = [(perm, keep[ordered]) for perm, ordered in _PERMS]
    sizes = [x.size if kept is None else np.count_nonzero(kept) for _, kept in picks]
    entries = np.empty((sum(sizes), 4), dtype=np.int64, order="F")
    a, b, c, mult = entries.T
    start = 0
    for (perm, kept), size in zip(picks, sizes):
        p, q, r, m = (fields[i] if kept is None else fields[i][kept] for i in (*perm, 3))
        key = b[start:start + size]
        np.multiply(p, n, out=key)
        key += q
        key *= n
        key += dual[r]
        c[start:start + size] = m
        start += size
    # mode="clip" gathers without a buffer (every index is in range); the
    # order is freed before the split's one temporary
    order = np.argsort(b)
    np.take(b, order, out=a, mode="clip")
    np.take(c, order, out=mult, mode="clip")
    del order
    # the keys split by floor division, which numpy does several times
    # faster than remainder: c = key - (key // n) n, and b likewise
    np.floor_divide(a, n, out=b)  # a n + b
    np.multiply(b, n, out=c)
    np.subtract(a, c, out=c)
    np.floor_divide(b, n, out=a)
    b -= a * n
    entries.flags.writeable = False
    return entries


def _orbit_entries(obj: dict, where: str, key: str) -> np.ndarray:
    """The [a, b, c, mult] entries of the orbit rows ``obj[key]``, as the
    column-major array of ``_expand_orbits``.  The rows are read by
    ``_table_columns``, under the rule and error text of full
    tables; their multiplicities must be positive, each row must have
    x <= y <= z and the dual map must be an involution, or a
    ``SchemaError`` names the first row or label that fails."""
    rows = obj[key]
    labels, dual = _checked_header(obj["labels"], obj.get("unit"), obj["dual"])
    n = len(labels)
    x, y, z, mult = _table_columns(rows, n, 4)
    if mult.size < len(rows):
        raise SchemaError(f"{where}.{key}: multiplicities must be positive")
    if np.any(x > y) or np.any(y > z):
        row = next(row for row in rows if not row[0] <= row[1] <= row[2])
        raise SchemaError(f"{where}.{key}: row {row} is not sorted as x <= y <= z")
    bad = _involution_violations(dual)
    if bad:
        raise SchemaError(f"{where}.dual: {bad[0].detail}, but {key} needs an involution")
    return _expand_orbits((x, y, z, mult), dual)


def profile_to_dict(profile: BlockProfile) -> dict:
    return {"blocks": list(profile.sizes), "dimension": profile.dimension}


# ------------------------------------------------------------- certificates

def certificate_from_dict(obj: Any) -> InductionCertificate:
    if not isinstance(obj, dict):
        raise SchemaError("certificate: expected a JSON object")
    for key in ("nn", "mm", "aplus", "aminus"):
        if key not in obj:
            raise SchemaError(f"certificate: missing field {key!r}")
    ring, twists = ring_from_dict(obj["nn"], "certificate.nn")
    if twists is None:
        raise SchemaError("certificate.nn: twist data is required")
    mm = algebra_from_dict(obj["mm"], "certificate.mm")
    try:
        return InductionCertificate(ring, twists, mm, obj["aplus"], obj["aminus"],
                                    theta=obj.get("theta"), nm_count=obj.get("nm_count"))
    except StructureError as exc:
        raise SchemaError(f"certificate: {exc}") from None


def certificate_to_dict(cert: InductionCertificate) -> dict:
    obj: dict[str, Any] = {
        "nn": ring_to_dict(cert.ring, cert.twists),
        "mm": algebra_to_dict(cert.mm),
        "aplus": cert.aplus.tolist(),
        "aminus": cert.aminus.tolist(),
    }
    if cert.theta is not None:
        obj["theta"] = list(cert.theta)
    if cert.nm_count is not None:
        obj["nm_count"] = cert.nm_count
    return obj


# --------------------------------------------------------------------- I/O

@contextmanager
def _gc_paused():
    """Keep the cyclic garbage collector off inside the block, and turn it
    back on after it only if it was on.  Building the lists of a large table
    makes no cycles, but each new list is tracked and triggers collections
    that rescan the whole growing heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def dumps(obj: Any) -> str:
    """The canonical text of a JSON value, with a trailing newline: an object
    puts one member per line and a list that holds a container one item per
    line, both indented by two spaces; a list of scalars stays on one line."""
    return _encode(obj, "\n") + "\n"


def _encode(x: Any, newline: str) -> str:
    """``x`` laid out as ``dumps`` says, where ``newline`` is a line break
    plus the indent of the line that ``x`` starts on.  A list of lists of
    scalars (a table) is one C-encoder call whose rows are then split onto
    lines at "], [": with no '{' and one '[' per row, no row holds an object,
    a list or a string with a '[' in it, so each "], [" is a row boundary."""
    inner = newline + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        for key in x:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        members = (f"{json.dumps(key)}: {_encode(value, inner)}" for key, value in x.items())
        return "{" + inner + ("," + inner).join(members) + newline + "}"
    if not isinstance(x, (list, tuple)) or not any(isinstance(v, (dict, list, tuple)) for v in x):
        return json.dumps(x)
    if set(map(type, x)) <= {list, tuple}:
        text = json.dumps(x)
        if "{" not in text and text.count("[") == len(x) + 1:
            return "[" + inner + text[1:-1].replace("], [", "]," + inner + "[") + newline + "]"
    return "[" + inner + ("," + inner).join(_encode(v, inner) for v in x) + newline + "]"


def load_json(path: str | Path) -> Any:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        with _gc_paused():
            return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def parse_ring(path: str | Path) -> tuple[FusionRing, TwistData | None]:
    return ring_from_dict(load_json(path), where=str(path))


def write_ring(path: str | Path, ring: FusionRing, twists: TwistData | None = None) -> None:
    Path(path).write_text(dumps(ring_to_dict(ring, twists)), encoding="utf-8")
