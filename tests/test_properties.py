"""Property tests: the invariant search and the invariance rule commute with
relabelling a model, including relabellings that move the unit off 0; the
associativity check lists exactly the violations of a four-loop reference,
on single-constituent tables and on any other; the labels it checks first
generate the whole algebra; Deligne products of valid rings are valid;
conjugating the twists keeps the invariant list."""
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (BasedAlgebra, FusionKitError, TwistData, catalog_models, modular_matrices,
                       named_model, search_invariants, validate_fusion_ring)
from fusionkit.catalog import cyclic_model, su2_level
from fusionkit.invariants import check_invariance
from fusionkit.rings import _associativity_violations, _generating_labels

from helpers import GROUP_FIXTURES, brute_force_associativity, permute_model, product_model

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
    violations = _associativity_violations(T)
    assert {v.axiom for v in violations} <= {"associativity"}
    assert [(v.where, v.detail) for v in violations] == brute_force_associativity(T.tolist())


@functools.cache
def generator_source(name):
    """The dense table of a group fixture, of SU(2)_k ("su2_k") or of Z_n
    with q = 1 ("z_n"), and whether it is a group."""
    family, _, size = name.partition("_")
    if family == "su2":
        return su2_level(int(size))[0].tensor(), False
    if family == "z":
        return cyclic_model(int(size), 1)[0].tensor(), True
    return BasedAlgebra.from_group_table(GROUP_FIXTURES[name][0]).tensor(), True


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
    gens = _generating_labels(relabelled_T)
    assert gens == sorted(set(gens))
    assert generated_dimension(relabelled_T.astype(float), gens) == n
    if group:  # each generator at least doubles the subgroup the closure knows
        assert len(gens) <= n.bit_length()


def test_catalog_order_generates_from_unit_and_label_1():
    for name in [f"su2_{k}" for k in range(1, 65)] + [f"z_{n}" for n in range(2, 33)]:
        assert _generating_labels(generator_source(name)[0]) == [0, 1], name


def test_deligne_products_validate():
    models = [(name, (ring, twists)) for name, ring, twists in catalog_models()]
    for (x, A), (y, B) in itertools.product(models, repeat=2):
        if A[0].size * B[0].size <= 25:
            assert validate_fusion_ring(product_model(A, B)[0]).ok, (x, y)


def test_su2_10_squared_validates():
    ring = product_model(su2_level(10), su2_level(10))[0]
    assert ring.size == 121
    assert validate_fusion_ring(ring).ok


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
