"""Property tests: the invariant search and the invariance rule commute with
relabelling a model, including relabellings that move the unit off 0; the
associativity check lists exactly the violations of a four-loop reference,
on single-constituent tables and on any other; the labels it checks first
generate the whole algebra; the Frobenius and involution checks, which
decide valid tables entry by entry, list what dense gathers list, on random
and corrupted tables; the duplicate rule gives the columns and error text of a stable
sort; Deligne products of valid rings are valid, and swapping the factors
relabels the invariants; conjugating the twists keeps the invariant list;
every permutation invariant the search returns is the mass matrix of an
automorphism certificate that passes every check."""
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (BasedAlgebra, FusionKitError, StructureError, TwistData, VanishingZError,
                       catalog_models, conjugation_certificate, decompose_semisimple,
                       full_report, modular_matrices, named_model, search_invariants,
                       trivial_certificate, validate_based_algebra, validate_fusion_ring,
                       verify_dimension_theorem)
from fusionkit.catalog import cyclic_model, su2_level
from fusionkit.induction import _self_certificate, compute_Z_from_branching
from fusionkit.invariants import check_invariance
from fusionkit.rings import (_antiautomorphism_violations, _associativity_violations,
                            _frobenius_violations, _generating_labels, _table_columns)

from helpers import (GROUP_FIXTURES, brute_force_associativity, brute_force_invariants, dense,
                     dense_antiautomorphism_violations, dense_frobenius_violations,
                     permute_model, permute_table, product_model, product_table,
                     stable_table_columns, table_dict)
from references import structure_of

# SU(2)_k for k <= 6 and Z_n with q = 1 for even n <= 8 (odd n has no q = 1 twist)
MODELS = [("su2", k) for k in range(1, 7)] + [("cyclic", n) for n in (2, 4, 6, 8)]


def build(spec):
    family, k = spec
    return su2_level(k) if family == "su2" else cyclic_model(k, 1)


def relabelled(Z, perm):
    """Z with its rows and columns moved by the permutation old -> new."""
    out = np.empty_like(Z)
    out[np.ix_(perm, perm)] = Z
    return out


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_search_and_verdict_are_relabelling_equivariant(data):
    model = build(data.draw(st.sampled_from(MODELS), label="model"))
    n = model[0].size
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    md, md_p = modular_matrices(*model), modular_matrices(*permute_model(model, perm))

    found = [mm.Z for mm in search_invariants(md)]
    want = {relabelled(Z, perm).tobytes() for Z in found}
    assert {mm.Z.tobytes() for mm in search_invariants(md_p)} == want

    entries = data.draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n),
                        label="Z")
    for Z in found + [np.array(entries, dtype=np.int64).reshape(n, n)]:
        s, t, failed = check_invariance(md, Z)
        s_p, t_p, failed_p = check_invariance(md_p, relabelled(Z, perm))
        assert len(failed_p) == len(failed)
        assert abs(s_p - s) <= 1e-9 and abs(t_p - t) <= 1e-9


@st.composite
def structure_tables(draw):
    """A dense table on n <= 5 labels with multiplicities 0-3, optionally with
    a unit label; a single-constituent table gives each product at most one
    constituent, any other table draws every N[a,b]^c."""
    n = draw(st.integers(1, 5), label="n")
    single = draw(st.booleans(), label="single")
    unit = draw(st.none() | st.integers(0, n - 1), label="unit")
    T = np.zeros((n, n, n), dtype=np.int64)
    for a, b in itertools.product(range(n), repeat=2):
        if unit in (a, b):
            T[a, b, b if a == unit else a] = 1
        elif single:
            c = draw(st.none() | st.integers(0, n - 1))  # None: an empty product
            if c is not None:
                T[a, b, c] = draw(st.integers(1, 3))
        else:
            T[a, b] = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return T


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(structure_tables())
def test_associativity_lists_every_violation_in_order(T):
    structure = structure_of(T)
    violations = _associativity_violations(structure, _generating_labels(structure))
    assert {v.axiom for v in violations} <= {"associativity"}
    assert [(v.where, v.detail) for v in violations] == brute_force_associativity(T.tolist())


@functools.cache
def generator_source(name):
    """The dense table of a group fixture, of SU(2)_k ("su2_k") or of Z_n
    with q = 1 ("z_n"), and whether it is a group."""
    family, _, size = name.partition("_")
    if family == "su2":
        return dense(su2_level(int(size))[0]), False
    if family == "z":
        return dense(cyclic_model(int(size), 1)[0]), True
    return dense(BasedAlgebra.from_group_table(GROUP_FIXTURES[name][0])), True


GENERATOR_SOURCES = ([f"su2_{k}" for k in range(1, 65)] + [f"z_{n}" for n in range(1, 33)]
                     + list(GROUP_FIXTURES))


def generated_dimension(T, gens):
    """Dimension of the algebra the basis vectors ``gens`` generate: their
    span, grown by left and right products with each of them until its
    rank stops growing.  (e_g v)_c = sum_b v_b T[g,b,c] and
    (v e_g)_c = sum_a v_a T[a,g,c]."""
    V = np.eye(len(T))[gens]
    while True:
        W = np.concatenate([V] + [V @ T[g] for g in gens] + [V @ T[:, g] for g in gens])
        _, s, vt = np.linalg.svd(W, full_matrices=False)
        rank = int(np.sum(s > 1e-9 * s[0]))
        if rank == len(V):
            return rank
        V = vt[:rank]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_generating_labels_generate_every_label(data):
    T, group = generator_source(data.draw(st.sampled_from(GENERATOR_SOURCES), label="table"))
    n = len(T)
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    relabelled_T = np.empty_like(T)
    relabelled_T[np.ix_(perm, perm, perm)] = T
    gens = _generating_labels(structure_of(relabelled_T))
    assert gens == sorted(set(gens))
    assert generated_dimension(relabelled_T.astype(float), gens) == n
    if group:  # each generator at least doubles the subgroup the closure knows
        assert len(gens) <= n.bit_length()


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_associativity_precheck_without_the_unit_lists_every_violation(data):
    # a relabelled SU(2)_k ring or group algebra, valid or with one defect
    # (an entry raised, added or removed, or the unit row broken): the
    # validator lists exactly what checking every label first lists
    source = data.draw(st.sampled_from([("su2", k) for k in range(1, 13)]
                                       + [("group", g) for g in sorted(GROUP_FIXTURES)]),
                       label="source")
    if source[0] == "su2":
        n = source[1] + 1
        perm = data.draw(st.permutations(range(n)), label="perm")
        structure = permute_model(su2_level(source[1]), perm)[0]
    else:
        table = GROUP_FIXTURES[source[1]][0]
        perm = data.draw(st.permutations(range(len(table))), label="perm")
        structure = BasedAlgebra.from_group_table(permute_table(table, perm))
    n, unit, table = structure.size, structure.unit, table_dict(structure)
    key = data.draw(st.sampled_from(sorted(table)), label="entry")
    cell = data.draw(st.tuples(*[st.integers(0, n - 1)] * 3), label="cell")
    defect = data.draw(st.sampled_from(["none", "raise", "add", "remove", "unit"]), label="defect")
    if defect == "raise":
        table[key] += 1
    elif defect == "add":
        table[cell] = table.get(cell, 0) + data.draw(st.integers(1, 3), label="mult")
    elif defect == "remove":
        del table[key]
    elif defect == "unit":
        row = (unit, *cell[1:]) if data.draw(st.booleans(), label="left") else (cell[1], unit, cell[2])
        table[row] = table.get(row, 0) + 1
    corrupted = type(structure)(structure.labels, unit, structure.dual, table)
    validate = validate_fusion_ring if source[0] == "su2" else validate_based_algebra
    report = validate(corrupted)
    if defect == "unit":
        assert "unit" in report.axioms()
    listed = [(v.where, v.detail) for v in report.violations if v.axiom == "associativity"]
    every = _associativity_violations(corrupted, range(n))
    assert listed == [(v.where, v.detail) for v in every]


def test_catalog_order_generates_from_unit_and_label_1():
    for name in [f"su2_{k}" for k in range(1, 65)] + [f"z_{n}" for n in range(2, 33)]:
        assert _generating_labels(structure_of(generator_source(name)[0])) == [0, 1], name


def law_violations(structure):
    """The Frobenius and involution-law violations of a ring or algebra, as
    (where, detail) pairs: entry by entry, then from dense gathers."""
    sparse = [[(v.where, v.detail) for v in check(structure)]
              for check in (_frobenius_violations, _antiautomorphism_violations)]
    gathered = [check(dense(structure), structure.dual)
                for check in (dense_frobenius_violations, dense_antiautomorphism_violations)]
    return sparse, gathered


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_permutation_laws_match_dense_gathers(data):
    # any sparse table with any dual map, a permutation or not; some
    # multiplicities need more than one or two bytes
    n = data.draw(st.integers(1, 5), label="n")
    cells = st.tuples(*[st.integers(0, n - 1)] * 3)
    mults = st.integers(1, 3) | st.sampled_from([255, 256, 2 ** 16, 2 ** 40])
    table = data.draw(st.dictionaries(cells, mults, max_size=2 * n * n), label="N")
    dual = data.draw(st.permutations(range(n)) | st.lists(st.integers(0, n - 1), min_size=n,
                                                         max_size=n), label="dual")
    sparse, dense = law_violations(BasedAlgebra([str(x) for x in range(n)], None, dual, table))
    assert sparse == dense


def corruptions(structure, rng):
    """(dual, table) of ``structure`` with one defect each: an entry raised
    by 1, an entry added, an entry removed, a random permutation as the
    dual and a random map as the dual."""
    n, dual, table = structure.size, structure.dual, table_dict(structure)
    key = sorted(table)[rng.integers(len(table))]
    cell = tuple(rng.integers(n, size=3).tolist())
    return [(dual, {**table, key: table[key] + 1}),
            (dual, {**table, cell: table.get(cell, 0) + int(rng.integers(1, 4))}),
            (dual, {k: v for k, v in table.items() if k != key}),
            (rng.permutation(n).tolist(), table),
            (rng.integers(n, size=n).tolist(), table)]


def law_sources():
    """(name, ring or algebra) for the corrupted-table comparison."""
    for name, ring, twists in catalog_models():
        yield name, ring
        perm = np.random.default_rng(ring.size).permutation(ring.size)
        yield f"{name} relabelled", permute_model((ring, twists), perm)[0]
    yield "su2_16", su2_level(16)[0]
    yield "ising x su2_3", product_model(named_model("ising"), su2_level(3))[0]
    for name, (table, _) in GROUP_FIXTURES.items():
        yield name, BasedAlgebra.from_group_table(table)
    yield "s3 x q8", BasedAlgebra.from_group_table(
        product_table(GROUP_FIXTURES["s3"][0], GROUP_FIXTURES["q8"][0]))


@pytest.mark.parametrize("name, structure", list(law_sources()),
                         ids=[name for name, _ in law_sources()])
def test_permutation_laws_on_corrupted_tables(name, structure):
    sparse, dense = law_violations(structure)
    assert sparse == dense == [[], []]
    rng = np.random.default_rng(sum(map(ord, name)))
    for dual, table in corruptions(structure, rng):
        corrupted = type(structure)(structure.labels, structure.unit, dual, table)
        sparse, dense = law_violations(corrupted)
        assert sparse == dense


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_duplicate_rule_matches_a_stable_sort(data):
    # few distinct keys, so they repeat, carrying zero and positive values,
    # in any order
    n = data.draw(st.integers(1, 3), label="n")
    row = st.tuples(*[st.integers(0, n - 1)] * 3, st.sampled_from([0, 0, 1, 2]))
    rows = data.draw(st.lists(row, min_size=1, max_size=12), label="rows")
    if data.draw(st.booleans(), label="sorted"):
        rows.sort(key=lambda r: r[:3])
    want = stable_table_columns(np.array(rows, dtype=np.int64), n)
    for form in (rows, np.array(rows, dtype=np.int64)):
        if isinstance(want, str):
            with pytest.raises(StructureError) as err:
                _table_columns(form, n, 4)
            assert str(err.value) == want
        else:
            got = _table_columns(form, n, 4)
            assert all(np.array_equal(x, y) for x, y in zip(got, want, strict=True))


def test_deligne_products_validate():
    models = [(name, (ring, twists)) for name, ring, twists in catalog_models()]
    for (x, A), (y, B) in itertools.product(models, repeat=2):
        if A[0].size * B[0].size <= 25:
            assert validate_fusion_ring(product_model(A, B)[0]).ok, (x, y)


def test_su2_10_squared_validates():
    ring = product_model(su2_level(10), su2_level(10))[0]
    assert ring.size == 121
    assert validate_fusion_ring(ring).ok


# non-degenerate factors of the Deligne-product properties, each paired
# with itself and every other: 28 products, of 4 to 16 labels
PRODUCT_FACTORS = {"su2_2": su2_level(2), "su2_3": su2_level(3),
                   "ising": named_model("ising"), "fibonacci": named_model("fibonacci"),
                   "z4_1": cyclic_model(4, 1), "semion": cyclic_model(2, 1),
                   "z3_2": cyclic_model(3, 2)}
PRODUCT_PAIRS = list(itertools.combinations_with_replacement(PRODUCT_FACTORS, 2))
# the brute-force search grows fast with the labels: on a 2-vCPU machine it
# takes under 0.5 s per product up to 8 labels, 56 s for the 9 of su2_2 x su2_2
BRUTE_FORCE_LABELS = 8


@pytest.mark.parametrize("x, y", PRODUCT_PAIRS, ids=[f"{x} x {y}" for x, y in PRODUCT_PAIRS])
def test_deligne_product_properties(x, y):
    # Z_A (x) Z_B is an invariant of A (x) B, both self-certificates of the
    # product pass, and on small products the search finds what the raw
    # depth-first search finds
    A, B = PRODUCT_FACTORS[x], PRODUCT_FACTORS[y]
    model = product_model(A, B)
    md = modular_matrices(*model)
    found = [mm.Z.tolist() for mm in search_invariants(md)]
    for za in search_invariants(modular_matrices(*A)):
        for zb in search_invariants(modular_matrices(*B)):
            assert np.kron(za.Z, zb.Z).tolist() in found
    for build in (trivial_certificate, conjugation_certificate):
        report = full_report(build(*model))
        assert report.passed, (build.__name__, report.failures)
    if model[0].size <= BRUTE_FORCE_LABELS:
        assert found == [Z.tolist() for Z in brute_force_invariants(md)]


SWAP_PAIRS = {"su2_4, su2_6": (su2_level(4), su2_level(6)),
              "su2_4, z4_1": (su2_level(4), cyclic_model(4, 1)),
              "su2_10, z3_2": (su2_level(10), cyclic_model(3, 2))}


@pytest.mark.parametrize("name", list(SWAP_PAIRS))
def test_deligne_factor_swap_relabels_the_invariants(name):
    # B (x) A is A (x) B with label (x, y) moved to (y, x): index
    # x |B| + y goes to y |A| + x, and the invariants move with it
    A, B = SWAP_PAIRS[name]
    na, nb = A[0].size, B[0].size
    perm = (np.arange(na)[:, None] + na * np.arange(nb)).ravel()
    found = [relabelled(mm.Z, perm)
             for mm in search_invariants(modular_matrices(*product_model(A, B)))]
    swapped = [mm.Z for mm in search_invariants(modular_matrices(*product_model(B, A)))]
    assert len(found) == len(swapped) == 6
    assert {Z.tobytes() for Z in found} == {Z.tobytes() for Z in swapped}


CONJUGATION_MODELS = {
    **{name: (ring, twists) for name, ring, twists in catalog_models()},
    "su2_2 x su2_3": product_model(su2_level(2), su2_level(3)),
    "ising x ising": product_model(named_model("ising"), named_model("ising")),
}


def invariant_list(model):
    """(Z, flags) of every invariant ``search_invariants`` finds, or the
    type of the error that stops it."""
    try:
        return [(mm.Z.tolist(), mm.is_identity, mm.is_permutation, mm.is_symmetric, mm.type_one)
                for mm in search_invariants(modular_matrices(*model))]
    except FusionKitError as exc:
        return type(exc)


@pytest.mark.parametrize("name", list(CONJUGATION_MODELS))
def test_conjugate_twists_keep_the_invariant_list(name):
    # h -> -h mod 1 conjugates S and T; Z is real, so SZ = ZS and TZ = ZT
    # hold for the conjugate data exactly when they hold for the original
    ring, twists = CONJUGATION_MODELS[name]
    conjugate = TwistData(-h for h in twists.h)
    assert invariant_list((ring, conjugate)) == invariant_list((ring, twists))


def test_permutation_invariants_give_passing_automorphism_certificates():
    # a permutation invariant Z_pi commutes with S, so pi is a fusion
    # automorphism keeping the twists: (A+, A-) = (I, Z^t), with the base
    # ring as the extended algebra, is a certificate whose mass matrix is Z;
    # its n blocks of size 1 match the n unit entries of Z, and no longer do
    # once the unit entry is 2
    models = [(ring, twists) for _, ring, twists in catalog_models()]
    models += [su2_level(k) for k in range(17, 31)] + [cyclic_model(n, 1) for n in range(2, 41, 2)]
    z4 = cyclic_model(4, 1)
    models += [product_model(su2_level(4), z4), product_model(z4, z4)]
    counts = [0, 0, 0]  # non-degenerate models, certificates, non-identity ones
    for ring, twists in models:
        try:
            md = modular_matrices(ring, twists)
        except VanishingZError:
            continue
        if not md.degeneracy:
            continue
        counts[0] += 1
        for mm in search_invariants(md):
            if not mm.is_permutation:
                continue
            cert = _self_certificate(ring, twists, mm.Z.T)
            report = full_report(cert)
            assert report.passed, (ring.labels, mm.Z.tolist(), report.failures)
            assert np.array_equal(compute_Z_from_branching(cert), mm.Z)
            profile = decompose_semisimple(cert.mm)
            assert verify_dimension_theorem(mm.Z, profile)
            Z = mm.Z.copy()
            Z[ring.unit, ring.unit] = 2
            assert not verify_dimension_theorem(Z, profile)
            counts[1] += 1
            counts[2] += not mm.is_identity
    assert counts == [58, 110, 52]
