import math

import numpy as np
import pytest

from fusionkit import (FusionRing, NumericError, StructureError, quantum_dimensions, rings,
                       validate_fusion_ring)
from fusionkit.catalog import catalog_models, cyclic_model, named_model, su2_level
from fusionkit.rings import _associativity_violations, _generating_labels, _precheck_labels

from helpers import (brute_force_associativity, brute_force_axioms, dense,
                     dense_quantum_dimensions, permute_model, product_model,
                     refuse_int64_scatter, table_dict, table_rows)
from references import structure_of


def z2_ring():
    return FusionRing(["0", "1"], 0, [0, 1],
                      {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1})


def su2_2_entries(corrupt=False):
    entries = {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1,
               (1, 0, 1): 1, (2, 0, 2): 1,
               (1, 1, 0): 1, (1, 1, 2): 1,
               (1, 2, 1): 1, (2, 1, 1): 1,
               (2, 2, 0): 1}
    if corrupt:
        entries[(1, 1, 2)] = 2
    return entries


class TestValidation:
    def test_z2_valid(self):
        assert validate_fusion_ring(z2_ring()).ok

    def test_su2_2_valid(self):
        ring = FusionRing(["0", "1", "2"], 0, [0, 1, 2], su2_2_entries())
        assert validate_fusion_ring(ring).ok

    def test_su2_2_corrupted_breaks_associativity(self):
        # doubling N[1,1]^2 (keeping everything else) breaks associativity;
        # direct evaluation of both sides puts a witness at (1,1,2,2):
        # sum_mu N[1,mu]^2 N[1,2]^mu = 2 but sum_tau N[1,1]^tau N[tau,2]^2 = 1
        ring = FusionRing(["0", "1", "2"], 0, [0, 1, 2], su2_2_entries(corrupt=True))
        report = validate_fusion_ring(ring)
        assert not report.ok
        assoc = [v.where for v in report.violations if v.axiom == "associativity"]
        assert (1, 1, 2, 2) in assoc

    def test_corrupted_violation_set(self):
        # every (axiom, where) pair, as reported by the validator before the
        # axiom checks moved onto the dense tensor
        ring = FusionRing(["0", "1", "2"], 0, [0, 1, 2], su2_2_entries(corrupt=True))
        got = {(v.axiom, v.where) for v in validate_fusion_ring(ring).violations}
        assert got == {("associativity", (1, 1, 2, 0)), ("associativity", (1, 1, 2, 2)),
                       ("associativity", (2, 1, 1, 0)), ("associativity", (2, 1, 1, 2)),
                       ("frobenius", (1, 1, 2)), ("frobenius", (1, 2, 1)),
                       ("frobenius", (2, 1, 1))}

    @pytest.mark.parametrize("m", [2895, 2897, 4097, 2**26 - 1])
    def test_planted_violation_counts_are_exact(self, m):
        # n max(N)^2 = 2 m^2 sits just below 2^24 (float32 products) for
        # m = 2895 and just above it (float64) for m = 2897, and just below
        # 2^53 for m = 2^26 - 1.  With two constituents in 0 0 the float
        # products decide, and the count ((0 0) 0)_0 = 2 m^2 - m is odd and
        # above 2^24 from m = 2897 on; with one constituent per product the
        # index maps decide, and the odd count m^2 is above 2^24 from m = 4097
        planted = {
            ((0, 0, 0, 0), f"((0 0) 0)_0 = {2 * m * m - m}, (0 (0 0))_0 = {m * m}"):
                {(0, 0, 0): m, (0, 0, 1): m, (1, 0, 0): m - 1, (1, 1, 1): 3},
            ((0, 1, 0, 0), f"((0 1) 0)_0 = {m * m}, (0 (1 0))_0 = {3 * m}"):
                {(0, 0, 0): m, (0, 1, 0): m, (1, 0, 0): 3, (1, 1, 1): 3},
        }
        for violation, table in planted.items():
            ring = FusionRing(["0", "1"], 0, [0, 1], table)
            want = brute_force_associativity(dense(ring).tolist())
            got = [(v.where, v.detail) for v in validate_fusion_ring(ring).violations
                   if v.axiom == "associativity"]
            assert violation in want
            assert got == want

    def test_failing_generator_lists_every_label(self):
        # N[3,4]^5 and N[4,3]^5 raised by 1 in SU(2)_16 keep the pattern, so
        # the generating set stays {0, 1}; once it fails, the violations are
        # those of both sides summed over every (a, b, c, d)
        T = dense(su2_level(16)[0])
        T[3, 4, 5] += 1
        T[4, 3, 5] += 1
        lhs = np.einsum("abx,xcd->abcd", T, T)
        rhs = np.einsum("bcy,ayd->abcd", T, T)
        want = [((a, b, c, d), f"(({a} {b}) {c})_{d} = {lhs[a, b, c, d]}, "
                               f"({a} ({b} {c}))_{d} = {rhs[a, b, c, d]}")
                for a, b, c, d in np.argwhere(lhs != rhs).tolist()]
        structure = structure_of(T)
        assert _generating_labels(structure) == [0, 1]
        assert len(want) == 452
        violations = _associativity_violations(structure, _generating_labels(structure))
        assert [(v.where, v.detail) for v in violations] == want

    def test_precheck_drops_the_unit_only_under_the_unit_law(self, monkeypatch):
        ring = su2_level(64)[0]
        assert ring.generating_labels() == (0, 1)
        assert _precheck_labels(ring, True) == (1,)
        assert _precheck_labels(ring, False) == (0, 1)
        assert _precheck_labels(named_model("trivial")[0], True) == ()
        # the valid ring's check tries label 1 alone; a broken unit row keeps
        # 0, which fails first, and then every label is tried
        tried = []
        fails = rings._product_fails

        def spy(F, a):
            tried.append(a)
            return fails(F, a)

        monkeypatch.setattr(rings, "_product_fails", spy)
        assert validate_fusion_ring(ring).ok
        assert tried == [1]
        table = table_dict(su2_level(4)[0])
        table[(0, 1, 3)] = 1
        broken = FusionRing(ring.labels[:5], 0, range(5), table)
        assert "unit" in validate_fusion_ring(broken).axioms()
        assert tried == [1, 0, 0, 1, 2, 3, 4]

    def test_collects_all_violations(self):
        # a corrupted entry trips frobenius as well; nothing is short-circuited
        ring = FusionRing(["0", "1", "2"], 0, [0, 1, 2], su2_2_entries(corrupt=True))
        report = validate_fusion_ring(ring)
        assert {"associativity", "frobenius"} <= set(report.axioms())

    def test_unit_axiom_violation(self):
        ring = FusionRing(["0", "1"], 0, [0, 1],
                          {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                           (1, 0, 0): 1, (1, 1, 0): 1})
        report = validate_fusion_ring(ring)
        assert "unit" in report.axioms()

    def test_involution_violation(self):
        ring = FusionRing(["0", "1", "2"], 0, [0, 2, 2],
                          {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1,
                           (1, 0, 1): 1, (2, 0, 2): 1,
                           (1, 2, 0): 1, (2, 1, 0): 1,
                           (1, 1, 2): 1, (2, 2, 1): 1})
        assert "involution" in validate_fusion_ring(ring).axioms()

    def test_dual_that_moves_the_unit(self):
        ring = FusionRing(["0", "1"], 0, [1, 0], table_dict(z2_ring()))
        violations = map(str, validate_fusion_ring(ring).violations)
        assert "involution at (0,): dual(unit) != unit" in violations

    @pytest.mark.parametrize("name", ["su2_1", "su2_2", "rep_z2", "semion",
                                      "fibonacci", "ising", "cyclic_3_2",
                                      "rep_z5", "cyclic_4_1"])
    def test_agrees_with_brute_force(self, name, catalog):
        ring, _ = catalog[name]
        assert ring.size <= 6
        report = validate_fusion_ring(ring)
        brute = brute_force_axioms(ring.size, ring.unit, ring.dual, dense(ring).item)
        assert report.ok == (not brute)
        assert set(report.axioms()) == brute

    def test_brute_force_agreement_on_corruption(self):
        ring = FusionRing(["0", "1", "2"], 0, [0, 1, 2], su2_2_entries(corrupt=True))
        brute = brute_force_axioms(ring.size, ring.unit, ring.dual, dense(ring).item)
        assert set(validate_fusion_ring(ring).axioms()) == brute


class TestStructuralErrors:
    def test_index_out_of_range(self):
        with pytest.raises(StructureError):
            FusionRing(["0", "1"], 0, [0, 1], {(0, 0, 5): 1})

    def test_negative_multiplicity(self):
        with pytest.raises(StructureError):
            FusionRing(["0", "1"], 0, [0, 1], {(0, 0, 0): -1})

    def test_bad_unit_index(self):
        with pytest.raises(StructureError):
            FusionRing(["0", "1"], 7, [0, 1], {(0, 0, 0): 1})

    def test_unit_required(self):
        with pytest.raises(StructureError, match="a fusion ring needs a unit index"):
            FusionRing(["0"], None, [0], {(0, 0, 0): 1})

    def test_empty_labels(self):
        with pytest.raises(StructureError):
            FusionRing([], 0, [], {})

    def test_duplicate_labels(self):
        with pytest.raises(StructureError):
            FusionRing(["x", "x"], 0, [0, 1], {(0, 0, 0): 1})

    @pytest.mark.parametrize("mult", [1.9, "1", True, 2**63, 2**64])
    def test_multiplicity_must_be_an_int64(self, mult):
        with pytest.raises(StructureError):
            FusionRing(["0"], 0, [0], {(0, 0, 0): mult})

    @pytest.mark.parametrize("unit, dual", [(True, [0, 1]), (0, "01"), (0, [0.7, 1.2])])
    def test_unit_and_dual_must_be_integers(self, unit, dual):
        with pytest.raises(StructureError):
            FusionRing(["0", "1"], unit, dual, {(0, 0, 0): 1})

    @pytest.mark.parametrize("entry, shown", [
        ([True, 0, 0, 1], "[True, 0, 0, 1]"),
        ([0, 0, 0, 1.0], "[0, 0, 0, 1.0]"),
        ([0, "1", 0, 1], "[0, '1', 0, 1]"),
        ([0, 0, -1, 1], "[0, 0, -1, 1]"),
        ([0, 2, 0, 1], "[0, 2, 0, 1]"),
        ([0, 0, 0, -1], "[0, 0, 0, -1]"),
        ([0, 0, 0, 2**63], "[0, 0, 0, 9223372036854775808]"),
        ([0, 0, 0, np.uint64(2**63)], f"[0, 0, 0, {np.uint64(2**63)!r}]"),
        ("0001", "'0001'"),
    ])
    def test_bad_field_named(self, entry, shown):
        # the first bad entry in input order is named, not the later one
        with pytest.raises(StructureError) as exc:
            FusionRing(["0", "1"], 0, [0, 1], [[0, 0, 0, 1], entry, [1, 1, 1, 1.5]])
        assert str(exc.value) == (f"structure entry {shown} needs integer indices in "
                                  "range(2) and an integer multiplicity in [0, 2**63)")

    @pytest.mark.parametrize("entry, shown", [
        ([0, 0, 0], "[0, 0, 0]"), ([0, 0, 0, 1, 1], "[0, 0, 0, 1, 1]"),
        (7, "7"), (None, "None")])
    def test_malformed_entry_named(self, entry, shown):
        with pytest.raises(StructureError) as exc:
            FusionRing(["0", "1"], 0, [0, 1], [[0, 0, 0, 1], entry, [0, 0, 9, 1]])
        assert str(exc.value) == f"structure entry {shown} is not (a, b, c, mult)"

    @pytest.mark.parametrize("table, message", [
        ({(0, 0, 0): 1.5}, "structure entry ((0, 0, 0), 1.5) needs integer indices in "
                           "range(1) and an integer multiplicity in [0, 2**63)"),
        ({(0, 0, 0): 1, (0, 0): 1}, "structure entry ((0, 0), 1) is not (a, b, c, mult)"),
        (np.array([[0, 0, 0, 1], [0, 0, 1, 1]]),
         "structure entry array([0, 0, 1, 1]) needs integer indices in "
         "range(1) and an integer multiplicity in [0, 2**63)"),
        (np.array([[0, 0, 0, 1.5]]), "structure entry array([0. , 0. , 0. , 1.5]) needs "
                                     "integer indices in range(1) and an integer "
                                     "multiplicity in [0, 2**63)"),
        (np.array([[0, 0, 0]]), "structure entry array([0, 0, 0]) is not (a, b, c, mult)"),
        (np.array([[0, 0, 0, 2**63]], dtype=np.uint64),
         f"structure entry {np.array([0, 0, 0, 2**63], dtype=np.uint64)!r} needs integer "
         "indices in range(1) and an integer multiplicity in [0, 2**63)"),
        ([[0, 0, 0, 1], [0, 0, 0, 2]], "duplicate key (0, 0, 0)"),
        ([[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 9, 1]], "duplicate key (0, 0, 0)"),
        (7, "structure table must be a sequence, got 7"),
        (np.array(5), "structure table must be a sequence, got array(5)"),
    ])
    def test_mapping_and_array_errors_named(self, table, message):
        with pytest.raises(StructureError) as exc:
            FusionRing(["0"], 0, [0], table)
        assert str(exc.value) == message

    def test_mapping_key_that_is_not_a_tuple_named(self):
        with pytest.raises(StructureError) as exc:
            FusionRing(["0"], 0, [0], {1: 1})
        assert str(exc.value) == "structure entry (1, 1) is not (a, b, c, mult)"

    def test_repr_and_hash(self):
        ring = FusionRing(["0", "1", "2"], 0, [0, 1, 2], su2_2_entries())
        same = FusionRing(["0", "1", "2"], 0, [0, 1, 2], table_rows(ring))
        assert repr(ring) == "FusionRing(3 labels, unit='0')"
        assert same == ring and hash(same) == hash(ring)

    def test_input_forms_agree(self, catalog):
        # a list, a mapping, integer and object arrays and a shuffled list
        # give one ring
        rng = np.random.default_rng(3)
        for name, (ring, _) in catalog.items():
            rows = table_rows(ring)
            shuffled = [rows[i] for i in rng.permutation(len(rows))]
            forms = [rows, shuffled, table_dict(ring), np.array(rows, dtype=np.int64),
                     np.array(rows, dtype=np.uint8), np.array(rows, dtype=object),
                     rows + [[0, 0, 1, 0]] * (ring.size > 1)]
            for table in forms:
                other = FusionRing(ring.labels, ring.unit, ring.dual, table)
                assert other == ring, name
                assert np.array_equal(dense(other), dense(ring)), name
                assert table_rows(other) == table_rows(ring), name

    def test_too_many_labels(self):
        # the flat sort key (a n + b) n + c of an entry must fit in int64
        with pytest.raises(StructureError, match="2097152 labels exceed the limit of 2097151"):
            FusionRing([""] * 2**21, 0, [], [])

    def test_associativity_guard_refuses_inexact_sums(self):
        # 1 * (2**27)**2 = 2**54 cannot be summed exactly in float64
        with pytest.raises(NumericError, match="not exact in float64"):
            validate_fusion_ring(FusionRing(["0"], 0, [0], {(0, 0, 0): 2**27}))
        # just below the guard the check runs; only the unit laws fail
        report = validate_fusion_ring(FusionRing(["0"], 0, [0], {(0, 0, 0): 2**26}))
        assert report.axioms() == ("conjugate", "unit")


class TestQuantumDimensions:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_cyclic_all_ones(self, n):
        ring, _ = cyclic_model(n, 0)
        dims = quantum_dimensions(ring)
        assert np.allclose(dims.d, 1.0, atol=1e-10)
        assert dims.w == pytest.approx(n, rel=1e-10)

    def test_su2_2_closed_form(self):
        ring, _ = su2_level(2)
        dims = quantum_dimensions(ring)
        expected = [math.sin(math.pi * (a + 1) / 4) / math.sin(math.pi / 4)
                    for a in range(3)]
        assert np.allclose(dims.d, expected, atol=1e-10)
        assert dims.d[1] == pytest.approx(math.sqrt(2), abs=1e-10)
        assert dims.w == pytest.approx(4.0, rel=1e-10)

    def test_su2_4_closed_form(self):
        ring, _ = su2_level(4)
        dims = quantum_dimensions(ring)
        expected = [math.sin(math.pi * (a + 1) / 6) / math.sin(math.pi / 6)
                    for a in range(5)]
        assert np.allclose(dims.d, expected, atol=1e-10)
        assert np.allclose(dims.d, [1, math.sqrt(3), 2, math.sqrt(3), 1], atol=1e-10)
        assert dims.w == pytest.approx(12.0, rel=1e-10)

    def test_multiplicativity_residual(self, catalog):
        for name, (ring, _) in catalog.items():
            dims = quantum_dimensions(ring)
            for (a, b) in [(a, b) for a in range(ring.size) for b in range(ring.size)]:
                total = sum(m * dims.d[c] for (x, y, c), m in table_dict(ring).items()
                            if (x, y) == (a, b))
                assert total == pytest.approx(dims.d[a] * dims.d[b], abs=1e-8), name


def dimension_models():
    """(name, ring): the catalog, Deligne products and relabelled models."""
    for name, ring, _ in catalog_models():
        yield name, ring
    products = {"su2_3 x su2_4": (su2_level(3), su2_level(4)),
                "ising x fibonacci": (named_model("ising"), named_model("fibonacci")),
                "su2_2 x z4": (su2_level(2), cyclic_model(4, 1))}
    for name, (x, y) in products.items():
        yield name, product_model(x, y)[0]
    rng = np.random.default_rng(7)
    relabelled = {"su2_10": su2_level(10), "z8": cyclic_model(8, 1),
                  "su2_2 x su2_3": product_model(su2_level(2), su2_level(3))}
    for name, model in relabelled.items():
        yield f"{name} relabelled", permute_model(model, rng.permutation(model[0].size))[0]


class TestDimensionsFromColumns:
    @pytest.mark.parametrize("name, ring", list(dimension_models()),
                             ids=[name for name, _ in dimension_models()])
    def test_matches_dense_oracle(self, name, ring, monkeypatch):
        refuse_int64_scatter(monkeypatch)
        got = quantum_dimensions(ring)
        want = dense_quantum_dimensions(ring)
        assert got.d.tobytes() == want.d.tobytes()
        assert (got.w, got.residual) == (want.w, want.residual)

    @pytest.mark.parametrize("n, fusion, message", [
        (2, {}, "fusion matrices have a zero total column; ring disconnected?"),
        (2, {(1, 1, 1): 1}, "Perron vector has non-positive unit component"),
        (2, {(0, 0, 0): 1}, "Perron vector is not strictly positive"),
        # unit law and a positive Perron vector, but N_1 and N_2 do not commute
        (3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1, (2, 0, 2): 1,
             (1, 1, 0): 1, (1, 1, 2): 1, (2, 2, 0): 1, (2, 2, 1): 1, (1, 2, 1): 1, (2, 1, 2): 1},
         "dimension residual 5.000e-01 exceeds 1.866e-08"),
    ], ids=["zero-column", "unit-component", "not-positive", "residual"])
    def test_error_messages(self, n, fusion, message):
        ring = FusionRing([str(x) for x in range(n)], 0, range(n), fusion)
        with pytest.raises(NumericError) as err:
            quantum_dimensions(ring)
        assert str(err.value) == message


class TestFusionMatrices:
    def test_unit_is_identity(self, catalog):
        for name, (ring, _) in catalog.items():
            assert np.array_equal(dense(ring)[:, ring.unit], np.eye(ring.size, dtype=int)), name

    def test_z2_swap(self):
        ring = z2_ring()
        assert np.array_equal(dense(ring)[:, 1], np.array([[0, 1], [1, 0]]))

    def test_su2_2_middle(self):
        ring, _ = su2_level(2)
        N1 = dense(ring)[:, 1]
        expected = np.zeros((3, 3), dtype=int)
        expected[0, 1] = expected[1, 0] = expected[1, 2] = expected[2, 1] = 1
        assert np.array_equal(N1, expected)

    def test_dual_is_transpose(self, catalog):
        for name, (ring, _) in catalog.items():
            mats = dense(ring).transpose(1, 0, 2)
            for mu in range(ring.size):
                assert np.array_equal(mats[ring.dual[mu]], mats[mu].T), name

    def test_regular_representation_homomorphism(self, catalog):
        # N_l N_m = sum_nu N[l,m]^nu N_nu, exactly in integers
        for name, (ring, _) in catalog.items():
            N = dense(ring)
            mats = N.transpose(1, 0, 2)
            for a in range(ring.size):
                for b in range(ring.size):
                    rhs = sum(N[a, b, c] * mats[c] for c in range(ring.size))
                    assert np.array_equal(mats[a] @ mats[b], rhs), name
