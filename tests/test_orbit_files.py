"""Ring and algebra files in orbit form, and the integer reader under them.

The writer puts one [x, y, z, mult] row per orbit (x <= y <= z, meaning
N[x,y]^{dual z} = mult) under "fusion_orbits" or "structure_orbits" exactly
when the rows expand back to the table; otherwise it writes every entry.
These tests decide that choice by an independent oracle, check that reading
what was written is the identity on values and on bytes, that the full form
of every object still reads to an equal object, and that malformed orbit
files and non-integer entries end in one error line.
"""
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import BasedAlgebra, catalog_models, validate_fusion_ring
from fusionkit.catalog import cyclic_model, named_model, su2_level
from fusionkit.cli import main
from fusionkit.induction import conjugation_certificate, trivial_certificate
from fusionkit.errors import StructureError
from fusionkit.rings import FusionRing, _int_array, _table_columns
from fusionkit import serialize

from helpers import (GROUP_FIXTURES, dense, full_form, permute_model, permute_table,
                     product_model, reference_expand_orbits, stable_table_columns, table_rows)


def orbit_form_expected(structure):
    """The oracle of the writer's choice: dual is an involution,
    T = T.transpose(1, 0, 2) and T[a,b,c] = T[a, dual c, dual b]."""
    T, d = dense(structure), np.array(structure.dual)
    return bool(np.array_equal(d[d], np.arange(len(d)))
                and np.array_equal(T, T.transpose(1, 0, 2))
                and np.array_equal(T, T[:, d][:, :, d].transpose(0, 2, 1)))


def bumped(model):
    """A model whose table has N[1,1]^0 raised by one, a ring that is not
    symmetric under every permutation of (a, b, dual c) when it has a
    second label; the constructor checks no axiom, so it is still written."""
    ring, twists = model
    rows = table_rows(ring)
    rows[next(i for i, r in enumerate(rows) if r[:2] == [1, 1])][3] += 1
    return FusionRing(ring.labels, ring.unit, ring.dual, rows), twists


_RNG = np.random.default_rng(16)
CATALOG = {name: (ring, twists) for name, ring, twists in catalog_models()}
RINGS = {
    **CATALOG,
    **{f"{name} relabelled": permute_model(model, _RNG.permutation(model[0].size))
       for name, model in CATALOG.items()},
    "ising x ising": product_model(named_model("ising"), named_model("ising")),
    "su2_2 x su2_3": product_model(su2_level(2), su2_level(3)),
    "fibonacci x cyclic_3_2": product_model(named_model("fibonacci"), cyclic_model(3, 2)),
    "su2_4 bumped": bumped(su2_level(4)),
    "ising bumped": bumped(named_model("ising")),
}
ALGEBRAS = {
    **{name: BasedAlgebra.from_group_table(table) for name, (table, _) in GROUP_FIXTURES.items()},
    **{f"{name} relabelled": BasedAlgebra.from_group_table(
        permute_table(table, _RNG.permutation(len(table)).tolist()))
       for name, (table, _) in GROUP_FIXTURES.items()},
}
CERTIFICATES = {f"{factory.__name__} {name}": factory(*model)
                for factory in (trivial_certificate, conjugation_certificate)
                for name, model in (("su2_6", su2_level(6)), ("su2_9", su2_level(9)),
                                    ("cyclic_5_2", cyclic_model(5, 2)))}


def written_key(obj, key):
    """The table key a file uses, checked to be exactly one of the two forms."""
    assert (key in obj) != (key + "_orbits" in obj)
    return key + "_orbits" if key + "_orbits" in obj else key


def assert_round_trips(to_dict, from_dict, value, full):
    """parse . write is the identity on values and bytes, and the full form
    ``full`` of the same value reads to an equal value."""
    text = serialize.dumps(to_dict(value))
    back = from_dict(json.loads(text))
    assert back == value
    assert serialize.dumps(to_dict(back)) == text
    assert from_dict(json.loads(serialize.dumps(full))) == value


@pytest.mark.parametrize("name", list(RINGS))
def test_ring_form_and_round_trip(name):
    ring, twists = RINGS[name]
    obj = serialize.ring_to_dict(ring, twists)
    assert written_key(obj, "fusion").endswith("_orbits") == orbit_form_expected(ring)
    assert_round_trips(lambda m: serialize.ring_to_dict(*m), serialize.ring_from_dict,
                       (ring, twists), full_form(ring, twists))


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_algebra_form_and_round_trip(name):
    alg = ALGEBRAS[name]
    obj = serialize.algebra_to_dict(alg)
    assert written_key(obj, "structure").endswith("_orbits") == orbit_form_expected(alg)
    assert_round_trips(serialize.algebra_to_dict, serialize.algebra_from_dict, alg,
                       full_form(alg))


@pytest.mark.parametrize("name", list(CERTIFICATES))
def test_certificate_form_and_round_trip(name):
    cert = CERTIFICATES[name]
    obj = serialize.certificate_to_dict(cert)
    assert written_key(obj["nn"], "fusion").endswith("_orbits") == orbit_form_expected(cert.ring)
    assert written_key(obj["mm"], "structure").endswith("_orbits") == orbit_form_expected(cert.mm)
    full = dict(obj, nn=full_form(cert.ring, cert.twists), mm=full_form(cert.mm))
    text = serialize.dumps(obj)
    for source in (json.loads(text), json.loads(serialize.dumps(full))):
        back = serialize.certificate_from_dict(source)
        assert (back.ring, back.twists, back.mm) == (cert.ring, cert.twists, cert.mm)
        assert np.array_equal(back.aplus, cert.aplus)
        assert np.array_equal(back.aminus, cert.aminus)
        assert serialize.dumps(serialize.certificate_to_dict(back)) == text


def test_both_forms_are_chosen():
    # the corpus above reaches both branches of the writer for rings and algebras
    forms = {(kind, orbit_form_expected(x))
             for kind, xs in (("ring", [r for r, _ in RINGS.values()]),
                              ("algebra", list(ALGEBRAS.values())))
             for x in xs}
    assert forms == {("ring", True), ("ring", False), ("algebra", True), ("algebra", False)}


def test_orbit_sizes():
    # SU(2)_k has one orbit per triple x <= y <= z with N_xyz = 1
    for k, orbits, entries in ((4, 11, 35), (64, 8536, 47905)):
        ring, twists = su2_level(k)
        assert len(serialize.ring_to_dict(ring, twists)["fusion_orbits"]) == orbits
        assert ring.columns()[0].size == entries


@st.composite
def small_tables(draw):
    """A table on n <= 4 labels with a random dual permutation: either the
    expansion, by plain loops, of random values on sorted triples, so it is
    in orbit form when the dual is an involution, or random entries."""
    n = draw(st.integers(1, 4), label="n")
    dual = draw(st.permutations(range(n)), label="dual")
    entries = {}
    if draw(st.booleans(), label="symmetric"):
        for triple in itertools.combinations_with_replacement(range(n), 3):
            value = draw(st.integers(0, 2))
            for p, q, r in set(itertools.permutations(triple)):
                entries[p, q, dual[r]] = value
    else:
        for key in itertools.product(range(n), repeat=3):
            entries[key] = draw(st.integers(0, 2))
    return BasedAlgebra([f"b{i}" for i in range(n)], None, dual, entries)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(small_tables())
def test_random_tables_choose_by_the_oracle(alg):
    obj = serialize.algebra_to_dict(alg)
    assert written_key(obj, "structure").endswith("_orbits") == orbit_form_expected(alg)
    assert_round_trips(serialize.algebra_to_dict, serialize.algebra_from_dict, alg,
                       full_form(alg))


# ------------------------------------------------------ the orbit expansion

@st.composite
def orbit_rows(draw):
    """Distinct sorted triples x <= y <= z on n <= 6 labels with positive
    multiplicities, and a random involution as the dual."""
    n = draw(st.integers(1, 6), label="n")
    order = draw(st.permutations(range(n)), label="order")
    dual = list(range(n))
    for i in range(0, n - 1, 2):
        if draw(st.booleans()):
            dual[order[i]], dual[order[i + 1]] = order[i + 1], order[i]
    triples = draw(st.lists(st.sampled_from(
        list(itertools.combinations_with_replacement(range(n), 3))), unique=True), label="rows")
    rows = [[*t, draw(st.integers(1, 3))] for t in sorted(triples)]
    return np.array(rows, dtype=np.int64).reshape(-1, 4), np.array(dual)


def assert_expansion(rows, dual):
    """``_expand_orbits`` of the columns of ``rows`` equals the reference,
    as one read-only column-major array with strictly increasing keys."""
    n = len(dual)
    got = serialize._expand_orbits(tuple(rows.T), dual)
    assert np.array_equal(got, reference_expand_orbits(rows, dual))
    assert got.dtype == np.int64 and got.flags.f_contiguous and not got.flags.writeable
    key = (got[:, 0] * n + got[:, 1]) * n + got[:, 2]
    assert np.all(key[1:] > key[:-1])


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(orbit_rows())
def test_expansion_matches_the_reference(case):
    assert_expansion(*case)


@pytest.mark.parametrize("dual", [[0, 1, 2, 3], [0, 2, 1, 3], [1, 0, 3, 2]], ids=str)
def test_expansion_of_every_row_kind(dual):
    # x = y = z, x = y < z, x < y = z and x < y < z on four labels, each row
    # with its own multiplicity, under the identity and two other involutions
    triples = list(itertools.combinations_with_replacement(range(4), 3))
    rows = np.array([[*t, i + 1] for i, t in enumerate(triples)], dtype=np.int64)
    kinds = {(x == y, y == z) for x, y, z in triples}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    assert_expansion(rows, np.array(dual))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_fast_exit_matches_a_stable_sort(data):
    # strictly increasing keys with positive values leave the table as it is
    n = data.draw(st.integers(1, 4), label="n")
    keys = sorted(data.draw(st.sets(st.integers(0, n ** 3 - 1)), label="keys"))
    values = data.draw(st.lists(st.integers(1, 2 ** 63 - 1), min_size=len(keys),
                                max_size=len(keys)), label="values")
    rows = [[key // n ** 2, key // n % n, key % n, value] for key, value in zip(keys, values)]
    array = np.array(rows, dtype=np.int64).reshape(-1, 4)
    want = stable_table_columns(array, n)
    owned = np.array(array, order="F")
    owned.flags.writeable = False
    frozen_view = np.array(array, order="F")[:]
    frozen_view.flags.writeable = False  # its base can still be written
    for form in (rows, array, np.asfortranarray(array), owned, frozen_view,
                 array.astype(np.uint64)):
        got = _table_columns(form, n, 4)
        assert all(np.array_equal(x, y) for x, y in zip(got, want, strict=True))
        assert all(col.dtype == np.int64 for col in got)
        # only a read-only array that owns its data is kept, not copied
        shared = isinstance(form, np.ndarray) and any(np.shares_memory(col, form) for col in got)
        assert shared == (form is owned and len(keys) > 0)


@pytest.mark.parametrize("rows", [
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 2]],  # a zero
    [[0, 0, 0, 1], [0, 1, 0, 2], [0, 1, 0, 0]],  # a repeated key, later zero
    [[0, 1, 0, 0], [0, 1, 0, 2], [1, 0, 0, 1]],  # a repeated key, first zero
    [[0, 0, 0, 1], [0, 1, 0, 2], [0, 1, 0, 3]],  # a duplicate
    [[0, 1, 0, 2], [0, 0, 0, 1], [1, 1, 1, 1]],  # unsorted
    [[0, 1, 0, 2], [0, 0, 0, 1], [0, 1, 0, 1]],  # unsorted with a duplicate
], ids=["zero", "repeat-zero", "zero-repeat", "duplicate", "unsorted", "unsorted-duplicate"])
def test_other_tables_take_the_slow_path(rows):
    array = np.array(rows, dtype=np.int64)
    want = stable_table_columns(array, 2)
    owned = np.array(array, order="F")
    owned.flags.writeable = False
    for form in (rows, array, owned):
        if isinstance(want, str):
            with pytest.raises(StructureError) as err:
                _table_columns(form, 2, 4)
            assert str(err.value) == want
        else:
            got = _table_columns(form, 2, 4)
            assert all(np.array_equal(x, y) for x, y in zip(got, want, strict=True))
            assert not any(np.shares_memory(col, owned) for col in got)


def test_table_columns_do_not_alias_a_writable_input():
    ring, _ = su2_level(4)
    rows = np.asfortranarray(np.stack(ring.columns(), axis=1))
    copy = FusionRing(ring.labels, ring.unit, ring.dual, rows)
    rows[0, 3] = 7
    assert copy == ring


def test_reading_su2_64_peaks_below_twice_its_columns():
    # the orbit rows expand straight into the columns the ring keeps
    obj = json.loads(serialize.dumps(serialize.ring_to_dict(*su2_level(64))))
    tracemalloc.start()
    try:
        ring, _ = serialize.ring_from_dict(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(col.nbytes for col in ring.columns())
    assert columns == 47905 * 4 * 8
    assert peak <= 2 * columns


# ------------------------------------------------------- malformed orbits

def _orbit_file(kind):
    """The orbit-form file of Z_3, as a ring or a group algebra, with its
    table key; its rows are [0,0,0], [0,1,2], [1,1,1], [2,2,2], each 1."""
    if kind == "ring":
        obj, key = serialize.ring_to_dict(*cyclic_model(3, 0)), "fusion"
    else:
        obj, key = serialize.algebra_to_dict(BasedAlgebra.from_group_table(
            GROUP_FIXTURES["z3"][0])), "structure"
    assert obj[key + "_orbits"] == [[0, 0, 0, 1], [0, 1, 2, 1], [1, 1, 1, 1], [2, 2, 2, 1]]
    return obj, key


def _unsorted(obj, key):
    obj[key + "_orbits"][1] = [0, 2, 1, 1]


def _repeated(obj, key):
    obj[key + "_orbits"].append([0, 0, 0, 1])


def _both_keys(obj, key):
    obj[key] = [[0, 0, 0, 1]]


def _cyclic_dual(obj, key):
    obj["dual"] = [1, 2, 0]


def _zero(obj, key):
    obj[key + "_orbits"][1][3] = 0


def _bool(obj, key):
    obj[key + "_orbits"][1][3] = True


ORBIT_FAULTS = [
    (_unsorted, "_orbits: row [0, 2, 1, 1] is not sorted as x <= y <= z"),
    (_repeated, ": duplicate key (0, 0, 0)"),
    (_both_keys, "_orbits', not both"),
    (_cyclic_dual, ".dual: dual(dual(0)) = 2, but "),
    (_zero, "_orbits: multiplicities must be positive"),
    (_bool, "structure entry [0, 1, 2, True] needs integer indices"),
]


@pytest.mark.parametrize("kind", ["ring", "algebra"])
@pytest.mark.parametrize("fault, message", ORBIT_FAULTS,
                         ids=[fault.__name__.strip("_") for fault, _ in ORBIT_FAULTS])
def test_malformed_orbit_file_exits_2(kind, fault, message, tmp_path, capsys):
    obj, key = _orbit_file(kind)
    fault(obj, key)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["check" if kind == "ring" else "decompose", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# ------------------------------------------------------- the integer reader

def reference_int_array(values):
    """The rule ``_int_array`` keeps: an object array whose element types
    are all integer types, cast to int64; None when ragged or out of range."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.int64)
    try:
        a = np.array(values, dtype=object)
        if all(type(x) is int or isinstance(x, np.integer) for x in a.flat):
            return a.astype(np.int64)
    except (ValueError, OverflowError):
        pass
    return None


SCALARS = (st.integers(-2**64, 2**64) | st.integers(-3, 3) | st.booleans() | st.none()
           | st.floats(allow_nan=False) | st.sampled_from(["1", np.int32(3), np.uint64(2**63)]))
ROWS = st.lists(st.lists(SCALARS, max_size=4) | st.tuples(SCALARS, SCALARS), max_size=5)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.lists(SCALARS, max_size=5) | ROWS | ROWS.map(tuple)
       | st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), max_size=4))
def test_int_array_keeps_the_object_rule(values):
    got, want = _int_array(values), reference_int_array(values)
    if want is None:
        assert got is None
    else:
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)


def test_bools_among_ints_refused():
    # np.array casts these to int64 without complaint
    assert np.array([[0, 0, 0, True]]).dtype == np.int64
    assert _int_array([[0, 0, 0, True]]) is None
    assert _int_array([0, True]) is None


BAD_VALUES = [True, 1.0, "1", None, [1], 2**63]


def _with_bad_entry(place, value):
    """(argv file kind, file dict) with ``value`` in the first integer slot
    of ``place``, or the first row cut short when ``value`` is "ragged"."""
    def spoil(rows):
        if value == "ragged":
            rows[0] = rows[0][:-1]
        else:
            rows[0][-1] = value
    if place in ("fusion", "fusion_orbits", "dual"):
        model = cyclic_model(3, 0)
        obj = full_form(*model) if place == "fusion" else serialize.ring_to_dict(*model)
        if place == "dual":
            obj["dual"][1] = [1] if value == "ragged" else value
        else:
            spoil(obj[place])
        return "ring", obj
    if place in ("structure", "structure_orbits"):
        alg = BasedAlgebra.from_group_table(GROUP_FIXTURES["z3"][0])
        obj = full_form(alg) if place == "structure" else serialize.algebra_to_dict(alg)
        spoil(obj[place])
        return "algebra", obj
    if place == "entries":
        obj = {"size": 2, "entries": [[0, 0, 1], [1, 1, 1]]}
        spoil(obj["entries"])
        return "invariant", obj
    obj = serialize.certificate_to_dict(trivial_certificate(*su2_level(2)))
    spoil(obj["aplus"])
    return "certificate", obj


@pytest.mark.parametrize("value", BAD_VALUES + ["ragged"], ids=repr)
@pytest.mark.parametrize("place", ["fusion", "fusion_orbits", "structure", "structure_orbits",
                                   "dual", "entries", "aplus"])
def test_non_integer_entries_exit_2(place, value, tmp_path, capsys):
    kind, obj = _with_bad_entry(place, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    ring_file = tmp_path / "ring.json"
    serialize.write_ring(ring_file, *cyclic_model(2, 1))
    argv = {"ring": ["check", str(path)],
            "algebra": ["decompose", str(path)],
            "invariant": ["classify", str(path), str(ring_file)],
            "certificate": ["verify-induction", str(path)]}[kind]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_orbit_rows_do_not_imply_frobenius(tmp_path, capsys):
    # Z_3 without the orbit [2, 2, 2]: commutative and symmetric in
    # (a, b, dual c), but N[1,1]^2 = 1 while N[2,2]^1 = 0, so Frobenius
    # reciprocity fails and the check still reports it
    obj, _ = _orbit_file("ring")
    obj["fusion_orbits"].pop()
    path = tmp_path / "no_frobenius.json"
    path.write_text(json.dumps(obj))
    ring, _ = serialize.parse_ring(path)
    assert {v.axiom for v in validate_fusion_ring(ring).violations} == {"frobenius",
                                                                         "associativity"}
    assert main(["check", str(path)]) == 1
    assert "VIOLATED" in capsys.readouterr().out
