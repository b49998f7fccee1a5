import numpy as np
import pytest

from fusionkit import (BasedAlgebra, BlockProfile, NumericError, StructureError,
                       decompose_semisimple, validate_based_algebra,
                       verify_dimension_theorem)
from fusionkit import algebras
from fusionkit.algebras import _center
from fusionkit.catalog import su2_level
from fusionkit.induction import trivial_certificate
from fusionkit.rings import _generating_labels

from helpers import (GROUP_FIXTURES, brute_force_associativity, cyclic_table,
                     dense, dense_center_projector, permute_table, product_model,
                     product_table, reference_group_algebra, symmetric_table, table_dict,
                     table_rows)


# the group fixtures and the two 72-element products of the benchmark
GROUP_TABLES = {**{name: table for name, (table, _) in GROUP_FIXTURES.items()},
                "d6xs3": product_table(GROUP_FIXTURES["d6"][0], GROUP_FIXTURES["s3"][0]),
                "s4xz3": product_table(GROUP_FIXTURES["s4"][0], GROUP_FIXTURES["z3"][0])}


def is_commutative(alg):
    """Exact symmetry N[b,b']^{b''} = N[b',b]^{b''} of the structure constants."""
    T = dense(alg)
    return bool(np.array_equal(T, T.transpose(1, 0, 2)))


def matrix_unit_algebra():
    """M2 in its matrix-unit basis (e11, e12, e21, e22); unit not a basis element."""
    return BasedAlgebra(
        ["e11", "e12", "e21", "e22"], None, (0, 2, 1, 3),
        {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 0): 1, (1, 3, 1): 1,
         (2, 0, 2): 1, (2, 1, 3): 1, (3, 2, 2): 1, (3, 3, 3): 1})


def matrix_units_plus_idempotent():
    """M2 (+) C: the matrix units of M2 and an idempotent f; no unit label."""
    return BasedAlgebra(
        ["e11", "e12", "e21", "e22", "f"], None, (0, 2, 1, 3, 4),
        {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 0): 1, (1, 3, 1): 1,
         (2, 0, 2): 1, (2, 1, 3): 1, (3, 2, 2): 1, (3, 3, 3): 1, (4, 4, 4): 1})


# the extended algebras of trivial certificates whose central spectra once
# failed to split into n clusters, at 241, 289 and 205 labels
LARGE_COMMUTATIVE = {"su2_240": lambda: su2_level(240),
                     "su2_16 x su2_16": lambda: product_model(su2_level(16), su2_level(16)),
                     "su2_4 x su2_40": lambda: product_model(su2_level(4), su2_level(40))}


def z3_unit_redirected():
    """Z3 multiplication with 1*1 redirected to the unit:
    (x1 x1) x2 = x2 but x1 (x1 x2) = x1."""
    return BasedAlgebra(["0", "1", "2"], 0, (0, 2, 1),
                        {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1,
                         (1, 0, 1): 1, (2, 0, 2): 1,
                         (1, 1, 0): 1, (1, 2, 0): 1, (2, 1, 0): 1,
                         (2, 2, 1): 1})


class TestConstruction:
    def test_from_group_table(self):
        alg = BasedAlgebra.from_group_table(cyclic_table(3))
        assert alg.size == 3
        assert alg.unit == 0
        assert alg.dual == (0, 2, 1)

    def test_table_without_unit_rejected(self):
        with pytest.raises(StructureError):
            BasedAlgebra.from_group_table([[1, 1], [1, 1]])

    def test_element_without_unique_inverse_rejected(self):
        with pytest.raises(StructureError) as exc:
            BasedAlgebra.from_group_table([[0, 1], [1, 1]])
        assert str(exc.value) == "element 1 does not have a unique inverse"

    @pytest.mark.parametrize("table", [[[0, 1], [1]], [[0, 1, 2], [1, 2, 0]], [[0.0]], "ab"])
    def test_malformed_table_rejected(self, table):
        with pytest.raises(StructureError) as exc:
            BasedAlgebra.from_group_table(table)
        assert str(exc.value) == "multiplication table must be a square array of integers"

    @pytest.mark.parametrize("name", sorted(GROUP_TABLES))
    @pytest.mark.parametrize("relabel", [False, True])
    def test_from_group_table_matches_entry_by_entry_build(self, name, relabel):
        # relabelling by the reversal moves the unit off label 0
        table = GROUP_TABLES[name]
        if relabel:
            table = permute_table(table, list(reversed(range(len(table)))))
        assert BasedAlgebra.from_group_table(table) == reference_group_algebra(table)

    def test_duplicate_structure_key(self):
        with pytest.raises(StructureError):
            BasedAlgebra(["e"], 0, (0,), [(0, 0, 0, 1), (0, 0, 0, 1)])

    @pytest.mark.parametrize("table, mult", [
        ([(0, 0, 0, 0), (0, 0, 0, 1)], 1),  # zero then positive
        ([(0, 0, 0, 0), (0, 0, 0, 0)], 0),
        ([(0, 0, 0, 0), (0, 0, 0, 3), (0, 0, 0, 0)], None),
        ([(0, 0, 0, 1), (0, 0, 0, 0)], None),  # positive then zero
        ([(0, 0, 0, 2), (0, 0, 0, 2)], None)])
    def test_duplicate_rule(self, table, mult):
        # a key repeats only while no earlier entry gave it a positive multiplicity
        for form in (table, np.array(table, dtype=np.int64)):
            if mult is None:
                with pytest.raises(StructureError, match=r"^duplicate key \(0, 0, 0\)$"):
                    BasedAlgebra(["e"], 0, (0,), form)
            else:
                alg = BasedAlgebra(["e"], 0, (0,), form)
                assert dense(alg)[0, 0, 0] == mult
                assert table_rows(alg) == ([[0, 0, 0, mult]] if mult else [])

    def test_input_forms_agree(self):
        # list, mapping and int64 array tables give equal algebras and tensors
        for name, (table, _) in GROUP_FIXTURES.items():
            alg = BasedAlgebra.from_group_table(table)
            rows = table_rows(alg)
            for form in (rows[::-1], table_dict(alg), np.array(rows, dtype=np.int64)):
                other = BasedAlgebra(alg.labels, alg.unit, alg.dual, form)
                assert other == alg, name
                assert np.array_equal(dense(other), dense(alg)), name
        m2 = matrix_unit_algebra()
        assert BasedAlgebra(m2.labels, None, m2.dual, np.stack(m2.columns(), axis=1)) == m2

    def test_negative_constant(self):
        with pytest.raises(StructureError):
            BasedAlgebra(["e"], 0, (0,), {(0, 0, 0): -2})

    @pytest.mark.parametrize("mult", [1.9, "1"])
    def test_non_integer_constant(self, mult):
        # the same rule as FusionRing: no silent truncation or parsing
        with pytest.raises(StructureError):
            BasedAlgebra(["e"], 0, (0,), {(0, 0, 0): mult})

    @pytest.mark.parametrize("labels, unit, dual, dims", [
        ([1, 2], 0, (0, 1), None), (["a", "b"], False, (0, 1), None),
        (["a", "b"], 0, ("a", "b"), None), (["a", "b"], 0, (0, 1), ("a", "b")),
        (["a", "b"], 0, (0, 1), 5), (["a", "b"], 0, (0, 1), (1.0, 0.0))])
    def test_malformed_fields(self, labels, unit, dual, dims):
        with pytest.raises(StructureError):
            BasedAlgebra(labels, unit, dual, {(0, 0, 0): 1}, dims=dims)


class TestValidation:
    def test_group_algebras_valid(self):
        for name, (table, _) in GROUP_FIXTURES.items():
            alg = BasedAlgebra.from_group_table(table)
            assert validate_based_algebra(alg).ok, name

    def test_matrix_units_valid(self):
        assert validate_based_algebra(matrix_unit_algebra()).ok

    def test_involution_violation_detected(self):
        # the identity map is no anti-automorphism of a non-commutative algebra
        table = symmetric_table(3)
        good = BasedAlgebra.from_group_table(table)
        bad = BasedAlgebra(good.labels, good.unit, tuple(range(6)),
                           table_dict(good))
        report = validate_based_algebra(bad)
        assert "involution" in report.axioms()

    def test_associativity_violation_detected(self):
        assert "associativity" in validate_based_algebra(z3_unit_redirected()).axioms()

    def test_associativity_lists_every_violation(self):
        alg = z3_unit_redirected()
        expected = brute_force_associativity(dense(alg).tolist())
        got = [(v.where, v.detail) for v in validate_based_algebra(alg).violations
               if v.axiom == "associativity"]
        assert len(expected) > 1
        assert got == expected

    def test_generating_set_without_a_unit_label(self):
        # e11 e11 = e11 proves nothing new, e12 squares to 0, and with e21
        # the products e12 e21 = e11 and e21 e12 = e22 close the set
        good = matrix_unit_algebra()
        assert _generating_labels(good) == [0, 1, 2]
        # e12 e21 = e22 instead of e11: the generators fail and every
        # violation is listed
        table = table_dict(good)
        del table[(1, 2, 0)]
        table[(1, 2, 3)] = 1
        bad = BasedAlgebra(good.labels, None, good.dual, table)
        assert _generating_labels(bad) == [0, 1, 2]
        expected = brute_force_associativity(dense(bad).tolist())
        got = [(v.where, v.detail) for v in validate_based_algebra(bad).violations
               if v.axiom == "associativity"]
        assert len(expected) > 1
        assert got == expected


class TestDecompose:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
    def test_cyclic_all_ones(self, n):
        alg = BasedAlgebra.from_group_table(cyclic_table(n))
        assert decompose_semisimple(alg).sizes == (1,) * n

    def test_s3(self):
        alg = BasedAlgebra.from_group_table(symmetric_table(3))
        assert decompose_semisimple(alg).sizes == (2, 1, 1)

    def test_matrix_units(self):
        assert decompose_semisimple(matrix_unit_algebra()).sizes == (2,)

    def test_unequal_blocks_without_a_unit_label(self):
        # Tr L(e) is read as a scale-free ratio, so blocks of different
        # sizes come out right with no unit label to normalize by
        alg = matrix_units_plus_idempotent()
        assert validate_based_algebra(alg).ok
        for seed in range(5):
            assert decompose_semisimple(alg, seed=seed).sizes == (2, 1), seed

    @pytest.mark.parametrize("name", list(LARGE_COMMUTATIVE))
    def test_large_commutative_algebras_split_into_single_blocks(self, name):
        alg = trivial_certificate(*LARGE_COMMUTATIVE[name]()).mm
        for seed in range(5):
            assert decompose_semisimple(alg, seed=seed).sizes == (1,) * alg.size, seed

    @pytest.mark.parametrize("name", sorted(GROUP_FIXTURES))
    def test_classical_character_degrees(self, name):
        table, degrees = GROUP_FIXTURES[name]
        alg = BasedAlgebra.from_group_table(table)
        assert decompose_semisimple(alg).sizes == degrees

    def test_invariant_under_basis_permutation(self):
        table, degrees = GROUP_FIXTURES["s4"]
        rng = np.random.default_rng(11)
        for _ in range(3):
            perm = list(rng.permutation(len(table)))
            alg = BasedAlgebra.from_group_table(permute_table(table, perm))
            assert decompose_semisimple(alg).sizes == degrees

    def test_seed_reproducible(self):
        alg = BasedAlgebra.from_group_table(GROUP_FIXTURES["d6"][0])
        assert decompose_semisimple(alg, seed=5) == decompose_semisimple(alg, seed=5)

    def test_not_semisimple_detected(self):
        # C[x]/(x^2): defective regular representation, spectrum cannot split
        alg = BasedAlgebra(["e", "x"], 0, (0, 1),
                           {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
        with pytest.raises(NumericError):
            decompose_semisimple(alg)

    def test_radical_everything_annihilates_detected(self):
        # a a = a and every product with b is 0: the center holds both labels,
        # but the trace form G[x,y] = Tr L(x y) has rank 1
        alg = BasedAlgebra(["a", "b"], None, (0, 1), {(0, 0, 0): 1})
        assert validate_based_algebra(alg).ok
        with pytest.raises(NumericError, match=r"^trace form has rank 1 of 2 "):
            decompose_semisimple(alg)

    def test_failure_names_the_closest_integrality_distance(self, monkeypatch):
        # no draw can pass a negative tolerance, so the last error reports
        # how close the best draw came
        monkeypatch.setattr(algebras, "_INT_TOL", -1.0)
        with pytest.raises(NumericError, match=r"closest integrality distance \d\.\de[-+]\d+, "):
            decompose_semisimple(BasedAlgebra.from_group_table(symmetric_table(3)))

    def test_sum_of_squares(self):
        for name, (table, _) in GROUP_FIXTURES.items():
            alg = BasedAlgebra.from_group_table(table)
            assert decompose_semisimple(alg).dimension == alg.size, name


def center_sources():
    """(name, algebra): the group fixtures, one relabelling of each, three
    products, the matrix units and SU(2)_k rings read as algebras."""
    rng = np.random.default_rng(7)
    for name, (table, _) in GROUP_FIXTURES.items():
        yield name, BasedAlgebra.from_group_table(table)
        perm = rng.permutation(len(table)).tolist()
        yield f"{name} relabelled", BasedAlgebra.from_group_table(permute_table(table, perm))
    for x, y in (("s3", "d4"), ("q8", "z3"), ("s3", "s3")):
        table = product_table(GROUP_FIXTURES[x][0], GROUP_FIXTURES[y][0])
        yield f"{x}x{y}", BasedAlgebra.from_group_table(table)
    yield "matrix units", matrix_unit_algebra()
    for k in (1, 2, 5, 10):
        ring = su2_level(k)[0]
        yield f"su2_{k}", BasedAlgebra(ring.labels, ring.unit, ring.dual,
                                       np.stack(ring.columns(), axis=1))


class TestCenter:
    @pytest.mark.parametrize("name, alg", list(center_sources()),
                             ids=[name for name, _ in center_sources()])
    def test_generating_set_gives_the_whole_center(self, name, alg):
        # the rows of the generators alone cut out the center that all n^2
        # commutator rows cut out
        basis = _center(alg)
        want = dense_center_projector(dense(alg))
        assert len(basis) == round(np.trace(want))
        assert np.max(np.abs(basis.T @ basis - want)) <= 1e-9

    @pytest.mark.parametrize("x, y", [("d6", "s3"), ("s4", "z3")])
    def test_relabelled_products_give_the_character_degrees(self, x, y):
        (tx, dx), (ty, dy) = GROUP_FIXTURES[x], GROUP_FIXTURES[y]
        table = product_table(tx, ty)
        degrees = tuple(sorted((p * q for p in dx for q in dy), reverse=True))
        for seed in range(10):
            perm = np.random.default_rng(seed).permutation(len(table)).tolist()
            alg = BasedAlgebra.from_group_table(permute_table(table, perm))
            assert decompose_semisimple(alg, seed=seed).sizes == degrees, seed


class TestDimensionTheorem:
    def test_identity_all_ones(self):
        assert verify_dimension_theorem(np.eye(4, dtype=int), BlockProfile((1, 1, 1, 1)))

    def test_d4_pairing(self):
        Z = np.zeros((5, 5), dtype=int)
        Z[0, 0] = Z[0, 4] = Z[4, 0] = Z[4, 4] = 1
        Z[2, 2] = 2
        assert verify_dimension_theorem(Z, BlockProfile((2, 1, 1, 1, 1)))
        assert not verify_dimension_theorem(Z, BlockProfile((1,) * 8))

    def test_multiset_not_set(self):
        Z = np.diag([1, 2, 2]).astype(int)
        Z[0, 0] = 1
        assert verify_dimension_theorem(Z, BlockProfile((2, 2, 1)))
        assert not verify_dimension_theorem(Z, BlockProfile((2, 1, 1)))


class TestCommutativity:
    def test_cyclic_commutative(self):
        assert is_commutative(BasedAlgebra.from_group_table(cyclic_table(5)))

    def test_s3_not_commutative(self):
        assert not is_commutative(BasedAlgebra.from_group_table(symmetric_table(3)))

    def test_matches_all_ones_profile(self):
        for name, (table, degrees) in GROUP_FIXTURES.items():
            alg = BasedAlgebra.from_group_table(table)
            assert is_commutative(alg) == all(s == 1 for s in degrees), name
