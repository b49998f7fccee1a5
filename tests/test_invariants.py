import functools
from fractions import Fraction

import numpy as np
import pytest

from fusionkit import (NondegeneracyRequired, NumericError, TwistData, VanishingZError,
                       catalog_models, classify_invariant, commutant_basis, invariant_counts,
                       modular_matrices, search_invariants, twist_sparsity)
from fusionkit import invariants
from fusionkit.catalog import CATALOG
from fusionkit.catalog import cyclic_model, named_model, su2_level
from fusionkit.invariants import NODE_BUDGET, _gram_factorization, check_invariance
from fusionkit.numerics import max_abs

from helpers import (brute_force_invariants, expected_su2_invariants, product_model,
                     reference_gram_factorization, su2_s_closed_form)


def su2_md(k):
    ring, twists = su2_level(k)
    return modular_matrices(ring, twists)


@functools.cache
def any_md(n):
    """Modular data with n labels for a Z that comes with no model: SU(2)_{n-1},
    or the trivial model when n = 1.  The flags do not depend on it."""
    return modular_matrices(*(su2_level(n - 1) if n > 1 else named_model("trivial")))


class TestTwistSparsity:
    def test_su2_4_mask(self):
        _, twists = su2_level(4)
        mask = twist_sparsity(twists)
        off = {(i, j) for i in range(5) for j in range(5) if mask[i, j] and i != j}
        assert off == {(0, 4), (4, 0)}
        assert all(mask[i, i] for i in range(5))

    def test_all_distinct_gives_diagonal(self):
        mask = twist_sparsity(TwistData([Fraction(0), Fraction(1, 3), Fraction(1, 7)]))
        assert np.array_equal(mask, np.eye(3, dtype=bool))

    def test_all_equal_gives_full(self):
        mask = twist_sparsity(TwistData([Fraction(0)] * 4))
        assert mask.all()

    @pytest.mark.parametrize("big", [1, 2**70 + 1])
    def test_matches_fraction_equality(self, big):
        # a common denominator past 2^62 takes the object-integer path
        twists = TwistData([Fraction(j, 6) for j in range(6)]
                           + [Fraction(1, big), Fraction(2, 12), Fraction(1, big)])
        want = np.array([[x == y for y in twists.h] for x in twists.h])
        assert np.array_equal(twist_sparsity(twists), want)


class TestCommutantBasis:
    def test_trivial_ring(self):
        md = modular_matrices(*named_model("trivial"))
        basis = commutant_basis(md.S, twist_sparsity(md.twists), md.tol)
        assert basis.shape == (1, 1, 1)
        assert abs(abs(basis[0, 0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("k,dim", [(3, 1), (4, 2)])
    def test_su2_dimensions(self, k, dim):
        md = su2_md(k)
        basis = commutant_basis(md.S, twist_sparsity(md.twists), md.tol)
        assert basis.shape[0] == dim

    def test_against_dense_nullspace_oracle(self):
        # independent construction: complex vectorized commutator, lstsq rank
        md = su2_md(4)
        mask = twist_sparsity(md.twists)
        n = md.size
        cells = [(i, j) for i in range(n) for j in range(n) if mask[i, j]]
        cols = []
        for (i, j) in cells:
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0
            cols.append((md.S @ E - E @ md.S).ravel())
        A = np.array(cols).T
        rank = np.linalg.matrix_rank(A, tol=1e-9)
        oracle_dim = len(cells) - rank
        basis = commutant_basis(md.S, mask, md.tol)
        assert basis.shape[0] == oracle_dim

    def test_basis_is_orthonormal_and_commutes(self):
        md = su2_md(6)
        mask = twist_sparsity(md.twists)
        basis = commutant_basis(md.S, mask, md.tol)
        m = basis.shape[0]
        flat = basis.reshape(m, -1)
        assert np.allclose(flat @ flat.T, np.eye(m), atol=1e-10)
        for B in basis:
            assert np.max(np.abs(md.S @ B - B @ md.S)) < 1e-9
            assert not np.any(B[~mask])

    def test_non_unitary_s_raises(self):
        # D S D^-1 has the same commutant up to conjugation by D, but the
        # fixed-point form X = S X S^H needs a unitary S
        md = su2_md(4)
        D = np.diag(np.arange(1.0, md.size + 1.0))
        with pytest.raises(NumericError, match="unitary"):
            commutant_basis(D @ md.S @ np.linalg.inv(D), twist_sparsity(md.twists), md.tol)


class TestRankAmbiguity:
    def test_noise_near_cutoff_raises(self):
        from fusionkit import RankAmbiguityError
        md = su2_md(4)
        rng = np.random.default_rng(3)
        S = md.S + 5e-9 * rng.standard_normal(md.S.shape)
        with pytest.raises(RankAmbiguityError):
            commutant_basis(S, twist_sparsity(md.twists), md.tol)


class TestSearch:
    def test_su2_1_identity_only(self):
        found = search_invariants(su2_md(1))
        assert len(found) == 1
        assert found[0].is_identity

    def test_su2_4_exact_list(self):
        found = search_invariants(su2_md(4))
        assert len(found) == 2
        assert found[0].is_identity
        expected_d4 = np.zeros((5, 5), dtype=np.int64)
        expected_d4[0, 0] = expected_d4[0, 4] = expected_d4[4, 0] = expected_d4[4, 4] = 1
        expected_d4[2, 2] = 2
        assert np.array_equal(found[1].Z, expected_d4)

    @pytest.mark.parametrize("k", [4, 6, 8, 10, 12, 14, 16, 28, 32, 64])
    def test_matches_classification_tables(self, k):
        found = search_invariants(su2_md(k))
        expected = expected_su2_invariants(k)
        assert len(found) == len(expected)
        got = sorted((tuple(mm.Z.ravel()) for mm in found))
        want = sorted(tuple(Z.ravel()) for Z in expected)
        assert got == want

    def test_su2_10_count(self):
        assert len(search_invariants(su2_md(10))) == 3

    @pytest.mark.parametrize("k", list(range(1, 9)))
    def test_dfs_oracle_equivalence(self, k):
        md = su2_md(k)
        found = search_invariants(md)
        brute = brute_force_invariants(md)
        assert len(found) == len(brute)
        for mm, Z in zip(found, brute):
            assert np.array_equal(mm.Z, Z)

    @pytest.mark.parametrize("n", [6, 8])
    def test_dfs_oracle_equivalence_cyclic(self, n):
        # dense twist mask, several pivots: U(1) at level n/2
        md = modular_matrices(*cyclic_model(n, 1))
        found = search_invariants(md)
        assert [mm.Z.tolist() for mm in found] == [Z.tolist() for Z in brute_force_invariants(md)]

    @pytest.mark.parametrize("n", [12, 16, 24, 48, 64, 96])
    def test_u1_one_invariant_per_divisor(self, n):
        # U(1) at level n/2 has one invariant per divisor of n/2 (Gannon 1997)
        ring, twists = cyclic_model(n, 1)
        mask = twist_sparsity(twists)
        found = search_invariants(modular_matrices(ring, twists))
        assert len(found) == sum(1 for x in range(1, n // 2 + 1) if (n // 2) % x == 0)
        for mm in found:
            assert mm.Z[0, 0] == 1
            assert not np.any(mm.Z[~mask])

    def test_degenerate_input_rejected(self):
        ring, twists = cyclic_model(2, 0)
        md = modular_matrices(ring, twists)
        with pytest.raises(NondegeneracyRequired):
            search_invariants(md)
        with pytest.raises(NondegeneracyRequired):
            brute_force_invariants(md)

    def test_conjugation_matrix_returned(self):
        # non-self-dual model: C != I commutes with S and T, so it must appear
        ring, twists = cyclic_model(3, 2)
        md = modular_matrices(ring, twists)
        found = search_invariants(md)
        C = ring.conjugation_matrix()
        assert any(np.array_equal(mm.Z, C) for mm in found)
        brute = brute_force_invariants(md)
        assert any(np.array_equal(Z, C) for Z in brute)

    def test_budget_and_entry_sum_bound(self):
        for k in (4, 6, 10):
            md = su2_md(k)
            dd = np.outer(md.d, md.d)
            mask = twist_sparsity(md.twists)
            for mm in search_invariants(md):
                assert mm.Z[0, 0] == 1
                assert mm.Z.sum() <= md.w + 1e-6
                assert float(np.sum(dd * mm.Z)) == pytest.approx(md.w, rel=1e-6)
                # independent residual re-verification
                assert np.max(np.abs(md.S @ mm.Z - mm.Z @ md.S)) < 1e-9 * md.size
                assert np.max(np.abs(md.T @ mm.Z - mm.Z @ md.T)) == 0.0
                assert not np.any(mm.Z[~mask])

    def test_deterministic_and_parallel_agree(self):
        md = su2_md(6)
        a = search_invariants(md)
        b = search_invariants(md)
        c = search_invariants(md)
        assert len(a) == len(b) == len(c)
        for x, y, z in zip(a, b, c):
            assert np.array_equal(x.Z, y.Z) and np.array_equal(x.Z, z.Z)

    def test_identity_always_first(self):
        for k in (4, 6, 10):
            found = search_invariants(su2_md(k))
            assert found[0].is_identity

    def test_nondegenerate_catalog_models(self, catalog_modular):
        for name, md in catalog_modular.items():
            if not md.degeneracy:
                continue
            found = search_invariants(md)
            assert found[0].is_identity, name
            if md.size <= 5:
                brute = brute_force_invariants(md)
                assert [mm.Z.tolist() for mm in found] == [Z.tolist() for Z in brute], name

    def test_z4_anyon_has_charge_conjugation(self):
        ring, twists = cyclic_model(4, 1)
        md = modular_matrices(ring, twists)
        found = search_invariants(md)
        assert any(np.array_equal(mm.Z, ring.conjugation_matrix()) for mm in found)

    @pytest.mark.parametrize("k", [4, 6, 10])
    def test_su2_products_contain_factor_invariants(self, k):
        # SU(2)_k x SU(2)_k: every Z_A (x) Z_B of the A-D-E lists, and its
        # factor swap (Z_A (x) Z_B) P with P(x, y) = (y, x), is an invariant;
        # at k = 10 the walk has 27 pivots and the classification decides all
        n = k + 1
        found = search_invariants(modular_matrices(*product_model(su2_level(k), su2_level(k))))
        got = {tuple(mm.Z.ravel()) for mm in found}
        x, y = np.indices((n, n)).reshape(2, -1)
        swap = np.zeros((n * n, n * n), dtype=np.int64)
        swap[x * n + y, y * n + x] = 1
        for ZA in expected_su2_invariants(k):
            for ZB in expected_su2_invariants(k):
                assert tuple(np.kron(ZA, ZB).ravel()) in got
                assert tuple((np.kron(ZA, ZB) @ swap).ravel()) in got
        S = np.kron(su2_s_closed_form(k), su2_s_closed_form(k))
        for mm in found:
            assert mm.Z[0, 0] == 1
            assert np.max(np.abs(S @ mm.Z - mm.Z @ S)) < 1e-9 * n * n
            assert mm.type_one != "unknown"

    def test_su2_16_squared_contains_the_factor_products(self):
        # 289 labels and 2801 mask cells: the cell caps c_l c_m keep the
        # walk to a few dozen boxes
        found = search_invariants(modular_matrices(*product_model(su2_level(16), su2_level(16))))
        assert len(found) == 22
        got = {tuple(mm.Z.ravel()) for mm in found}
        factors = expected_su2_invariants(16)
        assert len(factors) == 3
        for ZA in factors:
            for ZB in factors:
                assert tuple(np.kron(ZA, ZB).ravel()) in got


def cap_models(family):
    """(name, ring, twists) of one family of the cell-cap property test."""
    if family == "catalog":
        return list(catalog_models())
    if family == "su2":
        return [(f"su2_{k}", *su2_level(k)) for k in range(1, 33)]
    if family == "cyclic":
        return ([(f"z{n}_q1", *cyclic_model(n, 1)) for n in range(2, 33, 2)]
                + [(f"z{n}_q2", *cyclic_model(n, 2)) for n in range(3, 16, 2)])
    small = [su2_level(2), su2_level(3), cyclic_model(4, 1), cyclic_model(3, 2),
             named_model("fibonacci")]
    return [(f"product_{i}_{j}", *product_model(small[i], small[j]))
            for i in range(len(small)) for j in range(i, len(small))]


@pytest.mark.parametrize("family", ["catalog", "su2", "cyclic", "products"])
def test_found_cells_stay_under_the_cell_caps(family):
    # c_l = max_a |S[l,a]| / S[u,a] caps Z[l,m] by c_l c_m; under Verlinde
    # c = d, and every Z found spends exactly the global-index budget
    checked = 0
    for name, ring, twists in cap_models(family):
        try:
            md = modular_matrices(ring, twists)
        except VanishingZError:
            continue
        if not md.degeneracy:
            continue
        c = np.max(np.abs(md.S) / md.S[ring.unit].real, axis=1)
        assert max_abs(c - md.d) <= 1e-12, name
        dd = np.outer(md.d, md.d)
        for mm in search_invariants(md):
            assert np.all(mm.Z <= np.outer(c, c) + 2 * invariants.INT_TOL), name
            assert float(np.sum(dd * mm.Z)) == pytest.approx(md.w, rel=1e-9), name
            checked += 1
    assert checked


class TestClassify:
    def test_identity_flags(self):
        md = su2_md(3)
        mm = classify_invariant(md, np.eye(4, dtype=np.int64))
        assert mm.is_identity and mm.is_permutation and mm.is_symmetric
        assert mm.type_one == "yes"
        assert mm.gram_rows == tuple(tuple(int(v) for v in row) for row in np.eye(4, dtype=int))

    def test_d4_gram_factorization(self):
        md = su2_md(4)
        Z = np.zeros((5, 5), dtype=np.int64)
        Z[0, 0] = Z[0, 4] = Z[4, 0] = Z[4, 4] = 1
        Z[2, 2] = 2
        mm = classify_invariant(md, Z)
        assert not mm.is_permutation
        assert mm.type_one == "yes"
        assert mm.gram_rows == ((1, 0, 0, 0, 1), (0, 0, 1, 0, 0), (0, 0, 1, 0, 0))
        B = np.array(mm.gram_rows)
        assert np.array_equal(B.T @ B, Z)

    def test_d5_permutation_not_type_one(self):
        md = su2_md(6)
        found = search_invariants(md)
        other = [mm for mm in found if not mm.is_identity]
        assert len(other) == 1
        mm = other[0]
        assert mm.is_permutation and mm.is_symmetric and not mm.is_identity
        assert mm.type_one == "no"

    @pytest.mark.parametrize("k, type_one", [
        pytest.param(16, ["yes", "no", "yes"], id="16"),  # A17, E7, D10 in search order
        pytest.param(28, ["yes", "yes", "yes"], id="28"),  # E8 included
        pytest.param(32, ["yes", "yes"], id="32"),
        pytest.param(64, ["yes", "yes"], id="64"),
        pytest.param(160, ["yes", "yes"], id="160"),
    ])
    def test_large_levels_classified(self, k, type_one):
        # A, D_even and E8 are type I, with Gram rows that reproduce Z; E7 is type II
        found = search_invariants(su2_md(k))
        want = sorted(tuple(Z.ravel()) for Z in expected_su2_invariants(k))
        assert sorted(tuple(mm.Z.ravel()) for mm in found) == want
        assert [mm.type_one for mm in found] == type_one
        for mm in found:
            if mm.type_one == "yes":
                B = np.array(mm.gram_rows)
                assert np.array_equal(B.T @ B, mm.Z)

    def test_short_cuts_match_gram_search(self, catalog, catalog_modular):
        # the identity, and every symmetric Z with a zero diagonal entry on a
        # non-zero row (the other permutations among them), skip the Gram
        # search; it must agree wherever it decides
        mats = [mm.Z for md in catalog_modular.values()
                if md.degeneracy
                for mm in search_invariants(md)]
        mats += [ring.conjugation_matrix() for ring, _ in catalog.values()]
        mats += [Z for k in range(1, 65) for Z in expected_su2_invariants(k)]
        mats += [mm.Z for mm in search_invariants(
            modular_matrices(*product_model(su2_level(4), su2_level(4))))]
        kinds = set()
        for Z in mats:
            mm = classify_invariant(any_md(len(Z)), Z)
            zero_diagonal = np.any((np.diagonal(Z) == 0) & Z.any(axis=1))
            if mm.is_identity or (mm.is_symmetric and zero_diagonal):
                kinds.add("identity" if mm.is_identity else
                          "permutation" if mm.is_permutation else "other")
                searched = _gram_factorization(Z, NODE_BUDGET)
                if searched[0] != "unknown":
                    assert (mm.type_one, mm.gram_rows) == searched
        assert kinds == {"identity", "permutation", "other"}

    def test_gram_search_on_the_lead_support_matches_every_position(self, catalog_modular):
        # positions past the lead where b_m must be 0 are not visited; the
        # verdict and the rows are those of the walk over every position, and
        # a budget that walk finishes within is never exceeded
        mats = [Z for k in range(1, 65) for Z in expected_su2_invariants(k)]
        mats += [mm.Z for md in catalog_modular.values() if md.degeneracy
                 for mm in search_invariants(md)]
        mats += [mm.Z for n in (4, 8, 12, 16)
                 for mm in search_invariants(modular_matrices(*cyclic_model(n, 1)))]
        mats += [mm.Z for mm in search_invariants(
            modular_matrices(*product_model(su2_level(4), su2_level(4))))]
        verdicts = set()
        for Z in mats:
            want = reference_gram_factorization(Z, NODE_BUDGET)
            assert _gram_factorization(Z, NODE_BUDGET) == want
            verdicts.add(want[0])
            for budget in (2, 10, 40):
                small = reference_gram_factorization(Z, budget)
                if small[0] != "unknown":
                    assert _gram_factorization(Z, budget) == small
        assert verdicts == {"yes", "no"}

    def test_gram_search_on_random_gram_matrices(self):
        # Z = B^t B for random non-negative B with the unit row e_0: Z is type
        # I, and a row that reuses the previous row's lead is skipped when it
        # sorts above that row; the verdict and rows are the reference walk's
        rng = np.random.default_rng(11)
        example = np.array([[1, 0, 0, 0], [0, 5, 6, 5], [0, 6, 12, 10], [0, 5, 10, 9]])
        assert _gram_factorization(example, NODE_BUDGET) == (
            "yes", ((1, 0, 0, 0), (0, 2, 2, 2), (0, 1, 2, 1), (0, 0, 2, 2)))
        mats = [example]
        for _ in range(100):
            n, r = rng.integers(3, 5, size=2)
            B = np.zeros((r, n), dtype=np.int64)
            B[0, 0] = 1
            B[1:, 1:] = rng.integers(0, 3, size=(r - 1, n - 1))
            mats.append(B.T @ B)
        for Z in mats:
            got = _gram_factorization(Z, NODE_BUDGET)
            assert got == reference_gram_factorization(Z, NODE_BUDGET)
            assert got[0] == "yes"
            B = np.array(got[1])
            assert np.array_equal(B.T @ B, Z)

    def test_asymmetric_is_not_type_one(self):
        Z = np.eye(3, dtype=np.int64)
        Z[1, 2] = 1
        mm = classify_invariant(any_md(3), Z)
        assert not mm.is_symmetric
        assert mm.type_one == "no"

    def test_budget_exhaustion_returns_unknown(self, monkeypatch):
        md = su2_md(4)
        monkeypatch.setattr(invariants, "NODE_BUDGET", 1)
        Z = np.zeros((5, 5), dtype=np.int64)
        Z[0, 0] = Z[0, 4] = Z[4, 0] = Z[4, 4] = 1
        Z[2, 2] = 2
        mm = classify_invariant(md, Z)
        assert mm.type_one == "unknown"
        assert mm.gram_rows is None

    def test_search_classifies_each_candidate_through_the_public_function(self, monkeypatch):
        # SU(2)_10 has three candidates, A11, D7 and E6, each classified once
        calls = []
        original = invariants.classify_invariant

        def counted(md, Z):
            calls.append(Z)
            return original(md, Z)

        monkeypatch.setattr(invariants, "classify_invariant", counted)
        found = search_invariants(su2_md(10))
        assert len(calls) == len(found) == 3

    @pytest.mark.parametrize("rule", ["unit", "S", "mask"])
    def test_failed_rules_are_those_of_check_invariance(self, rule):
        md = su2_md(4)
        Z = np.eye(5, dtype=np.int64)
        if rule == "unit":
            Z *= 2  # commutes with S and T
        elif rule == "S":
            Z[2, 2] = 2  # on the twist mask
        else:
            Z[0, 1] = 1  # h_0 != h_1
        failed = check_invariance(md, Z)[2]
        assert any(f.startswith({"unit": "Z[0,0] = 2", "S": "|SZ-ZS|",
                                 "mask": "Z[0,1] = 1 off"}[rule]) for f in failed)
        assert classify_invariant(md, Z).failed == failed


T_RESIDUAL_MODELS = {
    **{name: build for name, build in CATALOG.items() if name != "fermion"},  # fermion: z = 0
    **{f"su2_{k}": functools.partial(su2_level, k) for k in (24, 32, 48, 64)},
    **{f"z_{n}": functools.partial(cyclic_model, n, 1) for n in (16, 20, 24, 32)},
    "su2_4xsu2_4": lambda: product_model(su2_level(4), su2_level(4)),
}


@pytest.mark.parametrize("name", list(T_RESIDUAL_MODELS))
def test_t_residual_has_the_bits_of_the_dense_products(name):
    # Z is real and T diagonal, so each cell of TZ - ZT has one term per product
    md = modular_matrices(*T_RESIDUAL_MODELS[name]())
    rng = np.random.default_rng(0)
    Zs = [mm.Z for mm in search_invariants(md)] if md.degeneracy else []
    Zs += [rng.integers(-2, 5, (md.size, md.size)) for _ in range(5)]
    for Z in Zs:
        dense = max_abs(md.T @ Z - Z @ md.T)
        assert np.float64(check_invariance(md, Z)[1]).tobytes() == np.float64(dense).tobytes()


class TestCounts:
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_identity(self, n):
        assert invariant_counts(np.eye(n, dtype=np.int64)) == (n, n)

    def test_d4(self):
        Z = np.zeros((5, 5), dtype=np.int64)
        Z[0, 0] = Z[0, 4] = Z[4, 0] = Z[4, 4] = 1
        Z[2, 2] = 2
        assert invariant_counts(Z) == (4, 8)

    @pytest.mark.parametrize("diagonal", [(1, 2**62, 1), (1, 2**62, 2**62), (2**63 - 1,) * 3])
    def test_exact_beyond_int64(self, diagonal):
        # int64 sums of these traces and squares wrap; the counts must not
        Z = np.diag(np.array(diagonal, dtype=np.int64))
        assert invariant_counts(Z) == (sum(diagonal), sum(v * v for v in diagonal))

    def test_e6_at_k10(self):
        found = search_invariants(su2_md(10))
        e6 = [mm for mm in found if not mm.is_identity and not mm.is_permutation]
        assert len(e6) == 1
        assert e6[0].counts == (6, 12)
        assert e6[0].type_one == "yes"
