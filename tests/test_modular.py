import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (TwistData, TwistError, VanishingZError,
                       VerlindeError, check_partial_verlinde, is_nondegenerate,
                       modular_matrices, quantum_dimensions, search_invariants,
                       sl2z_relations, validate_twists, verlinde_fusion, y_matrix)
from fusionkit.catalog import cyclic_model, named_model, su2_level
from fusionkit.numerics import mod1, root_of_unity, unit_phase
from fusionkit.serialize import parse_ring, write_ring

from helpers import (dense, fraction_phases, fraction_unit_phase, monodromy_spectra,
                     product_model, refuse_int64_scatter, statistics_characters, table_rows)


def bits(z):
    """The bytes of a complex128, so signed zeros and the last bit count."""
    return np.complex128(z).tobytes()


class TestPhases:
    def test_quarter_turns_exact(self):
        assert unit_phase(Fraction(0)) == 1
        assert unit_phase(Fraction(1, 4)) == 1j
        assert unit_phase(Fraction(1, 2)) == -1
        assert unit_phase(Fraction(3, 4)) == -1j

    def test_generic_value(self):
        got = unit_phase(Fraction(3, 16))
        assert abs(got - cmath.exp(2j * math.pi * 3 / 16)) < 1e-15

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_root_of_unity_matches_fraction_phase(self, data):
        # any denominator up to 2^80 (past 2^53, converting j and H to floats
        # first would round twice), the pair unreduced by a factor g, and the
        # rational shifted by whole turns for unit_phase
        H = data.draw(st.integers(1, 64) | st.integers(2 ** 53, 2 ** 80) | st.integers(1, 2 ** 80),
                      label="H")
        j = data.draw(st.integers(0, H - 1), label="j")
        g = data.draw(st.integers(1, 2 ** 20), label="g")
        turns = data.draw(st.integers(-3, 3), label="turns")
        want = bits(fraction_unit_phase(Fraction(j, H)))
        assert bits(root_of_unity(j, H)) == want
        assert bits(root_of_unity(g * j, g * H)) == want
        assert bits(unit_phase(Fraction(j, H) + turns)) == want

    @pytest.mark.parametrize("m", [1, 3, 2 ** 40 + 1, 2 ** 78])
    def test_quarter_turns_are_exact_points(self, m):
        for quarter, point in enumerate((1 + 0j, 1j, -1 + 0j, -1j)):
            assert bits(root_of_unity(quarter * m, 4 * m)) == bits(point)
            assert bits(fraction_unit_phase(Fraction(quarter, 4))) == bits(point)


class TestTwistData:
    def test_canonical_fractions_are_kept(self):
        h = [Fraction(0), Fraction(3, 16), Fraction(2**70, 2**70 + 1)]
        twists = TwistData(h)
        assert all(got is given for got, given in zip(twists.h, h, strict=True))

    @pytest.mark.parametrize("value, want", [
        (Fraction(5, 4), Fraction(1, 4)), (Fraction(-1, 3), Fraction(2, 3)), (Fraction(1), 0),
        (1, 0), (-2, 0), (True, 0), ("7/6", Fraction(1, 6)), (0.5, Fraction(1, 2))])
    def test_other_values_are_reduced_mod_1(self, value, want):
        (h,) = TwistData([value]).h
        assert type(h) is Fraction and h == want

    def test_numerators_are_computed_once(self):
        twists = TwistData([Fraction(0), Fraction(1, 6), Fraction(3, 4)])
        e, H = first = twists.numerators()
        assert twists.numerators() is first
        assert H == 12 and e.tolist() == [0, 2, 9] and not e.flags.writeable
        fresh = TwistData(twists.h)
        assert fresh == twists and hash(fresh) == hash(twists)
        assert repr(fresh) == repr(twists) == f"TwistData(h={twists.h!r})"


class TestTwistValidation:
    def test_nonzero_unit_twist(self):
        ring, _ = cyclic_model(2, 0)
        with pytest.raises(TwistError):
            validate_twists(ring, TwistData([Fraction(1, 3), Fraction(0)]))

    def test_conjugation_asymmetry(self):
        # q j^2/(2n) with odd n and odd q is not conjugation-symmetric
        ring, twists = cyclic_model(3, 1)
        with pytest.raises(TwistError):
            validate_twists(ring, twists)

    def test_wrong_length(self):
        ring, _ = cyclic_model(2, 0)
        with pytest.raises(TwistError):
            validate_twists(ring, TwistData([Fraction(0)]))


class TestYMatrix:
    def test_zero_twists_outer_product(self):
        ring, twists = cyclic_model(4, 0)
        d = quantum_dimensions(ring).d
        Y = y_matrix(ring, twists)
        assert np.allclose(Y, np.outer(d, d), atol=1e-12)

    def test_semion_y11(self):
        ring, twists = cyclic_model(2, 1)
        assert y_matrix(ring, twists)[1, 1] == pytest.approx(-1.0)

    def test_su2_2_y11_vanishes(self):
        # e^{3 pi i/4} (1 + e^{-i pi}) = 0
        ring, twists = su2_level(2)
        assert abs(y_matrix(ring, twists)[1, 1]) < 1e-14

    def test_ising_y_sigma_sigma(self):
        ring, twists = named_model("ising")
        assert abs(y_matrix(ring, twists)[1, 1]) < 1e-14

    @staticmethod
    def per_entry_y(ring, twists):
        d = quantum_dimensions(ring).d
        h = twists.h
        want = np.zeros((ring.size, ring.size), dtype=complex)
        for a, b, c, m in table_rows(ring):
            want[a, b] += fraction_unit_phase(h[a] + h[b] - h[c]) * (m * d[c])
        return want

    @pytest.mark.parametrize("model", [
        su2_level(10), cyclic_model(8, 1),
        # exponents e_l = h_l lcm(denominators) near 2^63, so e_m + e_n overflows int64
        (su2_level(2)[0], TwistData([0, Fraction(2**31 - 2, 2**31 - 1),
                                        Fraction(2**32 - 6, 2**32 - 5)]))],
        ids=["su2_10", "z8", "huge_denominators"])
    def test_matches_per_entry_phase_sum(self, model):
        ring, twists = model
        assert y_matrix(ring, twists).tobytes() == self.per_entry_y(ring, twists).tobytes()

    @pytest.mark.parametrize("extra", [0, 1], ids=["table", "unique"])
    @pytest.mark.parametrize("ring", [su2_level(10)[0], cyclic_model(8, 1)[0]],
                             ids=["su2_10", "z8"])
    def test_exponent_table_and_unique_sides(self, ring, extra, monkeypatch):
        # common denominator H equal to the entry count takes the table,
        # one more takes np.unique; both give the per-entry sum's bits
        n, H = ring.size, len(ring.columns()[0]) + extra
        twists = TwistData(Fraction(min(x, n - x), H) for x in range(n))
        assert twists.numerators()[1] == H
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *args, **kw: calls.append(1) or unique(*args, **kw))
        Y = y_matrix(ring, twists)
        assert len(calls) == extra
        assert Y.tobytes() == self.per_entry_y(ring, twists).tobytes()

    def test_catalog_matches_per_entry_phase_sum(self, catalog):
        for name, (ring, twists) in catalog.items():
            assert y_matrix(ring, twists).tobytes() == self.per_entry_y(ring, twists).tobytes(), name

    def test_symmetries(self, catalog):
        for name, (ring, twists) in catalog.items():
            Y = y_matrix(ring, twists)
            dual = list(ring.dual)
            assert np.allclose(Y, Y.T, atol=1e-10), name
            assert np.allclose(Y, Y[dual][:, dual], atol=1e-10), name
            assert np.allclose(Y, np.conj(Y[dual, :]), atol=1e-10), name

    def test_product_identity(self, catalog):
        # Y[n,r] Y[m,r] = d_r sum_l N[m,n]^l Y[r,l]
        for name in ("su2_3", "fibonacci", "ising", "semion", "rep_z4"):
            ring, twists = catalog[name]
            dims = quantum_dimensions(ring)
            Y = y_matrix(ring, twists)
            N = dense(ring)
            n = ring.size
            for nu in range(n):
                for mu in range(n):
                    for rho in range(n):
                        rhs = dims.d[rho] * sum(
                            N[mu, nu, lam] * Y[rho, lam] for lam in range(n))
                        assert Y[nu, rho] * Y[mu, rho] == pytest.approx(rhs, abs=1e-8), name


class TestModularMatrices:
    def test_trivial_model(self):
        ring, twists = named_model("trivial")
        md = modular_matrices(ring, twists)
        assert np.allclose(md.S, [[1.0]])
        assert np.allclose(md.T, [[1.0]])
        assert md.c == 0

    def test_su2_1_frozen(self):
        ring, twists = su2_level(1)
        md = modular_matrices(ring, twists)
        assert md.z == pytest.approx(1 + 1j)
        assert md.c == 1
        assert np.allclose(md.S, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-12)
        phase = cmath.exp(-1j * math.pi / 12)
        assert np.allclose(np.diag(md.T), [phase, phase * 1j], atol=1e-12)

    def test_su2_2_central_charge(self):
        ring, twists = su2_level(2)
        md = modular_matrices(ring, twists)
        assert md.c == Fraction(3, 2)
        assert md.z == pytest.approx(2 * cmath.exp(3j * math.pi / 8))

    def test_su2_central_charges_match_wzw(self):
        for k in range(1, 13):
            ring, twists = su2_level(k)
            md = modular_matrices(ring, twists)
            assert md.c == Fraction(3 * k, k + 2) % 8, k

    def test_t_exponents_exact(self):
        ring, twists = su2_level(4)
        md = modular_matrices(ring, twists)
        c = md.c
        for a in range(5):
            want = (twists.h[a] - Fraction(c, 24)) % 1
            assert md.t_exponents[a] == want

    def test_t_from_integer_numerators(self, catalog_modular):
        # catalog models (c = 1/2 for ising, 14/5 for fibonacci) and products
        products = {f"{x} x {y}": modular_matrices(*product_model(named_model(x), named_model(y)))
                    for x, y in (("ising", "fibonacci"), ("fibonacci", "fibonacci"),
                                 ("ising", "trivial"))}
        charges = set()
        for name, md in {**catalog_modular, **products}.items():
            want = tuple(mod1(h - Fraction(md.c, 24)) for h in md.twists.h)
            assert md.t_exponents == want, name
            assert all(type(t) is Fraction for t in md.t_exponents), name
            assert md.T.tobytes() == np.diag(fraction_phases(want)).tobytes(), name
            phases = md.twists.phases()
            assert phases.tobytes() == fraction_phases(md.twists.h).tobytes(), name
            assert not phases.flags.writeable
            charges.add(md.c)
        assert {Fraction(1, 2), Fraction(14, 5), Fraction(33, 10)} <= charges

    def test_read_ring_keeps_its_tensor_unbuilt(self, tmp_path, monkeypatch):
        # the modular data and the invariant search read the sparse columns only
        refuse_int64_scatter(monkeypatch)
        for model in (su2_level(10), cyclic_model(8, 1), named_model("ising")):
            write_ring(tmp_path / "ring.json", *model)
            ring, twists = parse_ring(tmp_path / "ring.json")
            search_invariants(modular_matrices(ring, twists))

    def test_vanishing_z(self):
        ring, twists = cyclic_model(2, 2)  # the fermion: z = 1 - 1 = 0
        with pytest.raises(VanishingZError):
            modular_matrices(ring, twists)

    def test_unit_row_is_dimension_vector(self, catalog_modular):
        for name, md in catalog_modular.items():
            unit = md.ring.unit
            assert np.allclose(md.Y[unit], md.d, atol=1e-10), name
            assert np.allclose(md.S[unit], md.d / abs(md.z), atol=1e-10), name

    def test_conjugation_and_t_shape(self, catalog_modular):
        for name, md in catalog_modular.items():
            eye = np.eye(md.size, dtype=np.int64)
            assert np.array_equal(md.C @ md.C, eye), name
            assert np.allclose(md.T, np.diag(np.diag(md.T))), name
            assert np.allclose(np.abs(np.diag(md.T)), 1.0, atol=1e-12), name


class TestPartialVerlinde:
    def test_catalog(self, catalog_modular):
        for name, md in catalog_modular.items():
            report = check_partial_verlinde(md)
            assert report.passed, (name, str(report))

    def test_trivial_exact_zero(self):
        ring, twists = named_model("trivial")
        report = check_partial_verlinde(modular_matrices(ring, twists))
        assert report.worst == 0.0

    def test_perturbation_detected(self):
        ring, twists = su2_level(4)
        md = modular_matrices(ring, twists)
        S = md.S.copy()
        S[0, 0] += 1e-3
        bad = dataclasses.replace(md, S=S)
        report = check_partial_verlinde(bad)
        assert not report.passed
        assert report.residuals["TSTST-S"] > 1e-4


class TestNondegeneracy:
    def test_rep_z2_degenerate_with_witness(self):
        ring, twists = cyclic_model(2, 0)
        nd = is_nondegenerate(ring, twists)
        assert not nd.nondegenerate
        assert nd.witnesses == (1,)

    def test_witness_weight_vector_parallel(self):
        ring, twists = cyclic_model(2, 0)
        md = modular_matrices(ring, twists)
        lam = md.degeneracy.witness
        # y^lam parallel to y^0 means Y[lam, m] = d_lam d_m
        assert np.allclose(md.Y[lam], md.d[lam] * md.d, atol=1e-9)

    @pytest.mark.parametrize("name", ["semion", "fibonacci", "ising", "su2_5"])
    def test_nondegenerate_models(self, name, catalog):
        ring, twists = catalog[name]
        assert is_nondegenerate(ring, twists).nondegenerate

    def test_three_routes_agree(self, catalog_modular):
        for name, md in catalog_modular.items():
            gram_route = md.degeneracy.nondegenerate
            z_route = abs(abs(md.z) ** 2 - md.w) <= 1e-9 * md.w
            unitary_route = (np.max(np.abs(md.S.conj().T @ md.S - np.eye(md.size)))
                             <= 1e-9 * md.size)
            assert gram_route == z_route == unitary_route, name

    @pytest.mark.parametrize("tol", [None, 1e-15])
    def test_stored_verdict_matches_direct_test(self, catalog_modular, tol):
        # the verdict modular_matrices keeps is the one is_nondegenerate gives
        # at the same tolerance: verdict, witnesses and closeness
        for name, md in catalog_modular.items():
            if tol is not None:
                md = modular_matrices(md.ring, md.twists, tol=tol)
            assert md.degeneracy == is_nondegenerate(md.ring, md.twists, tol=tol), name

    def test_monodromy_agrees_with_witnesses(self, catalog):
        for name, (ring, twists) in catalog.items():
            mono = monodromy_spectra(ring, twists)
            nd = is_nondegenerate(ring, twists)
            assert set(mono.degenerate_labels) == set(nd.witnesses), name


class TestVerlinde:
    @pytest.mark.parametrize("name", ["su2_3", "fibonacci", "trivial", "su2_64"])
    def test_roundtrip(self, name, catalog):
        ring, twists = catalog[name] if name in catalog else su2_level(int(name[4:]))
        md = modular_matrices(ring, twists)
        tensor, dev = verlinde_fusion(md)
        assert dev < 1e-9
        if name == "fibonacci":
            assert tensor[1, 1, 1] == 1

    def test_degenerate_fails(self):
        ring, twists = cyclic_model(2, 0)
        md = modular_matrices(ring, twists)
        with pytest.raises(VerlindeError):
            verlinde_fusion(md)

    def test_tensor_of_another_ring_disagrees(self):
        # Z_4's S gives an integral Verlinde tensor, but Z_2 x Z_2 fuses otherwise
        md = modular_matrices(*cyclic_model(4, 1))
        z2xz2 = product_model(cyclic_model(2, 1), cyclic_model(2, 1))[0]
        with pytest.raises(VerlindeError, match="^Verlinde tensor disagrees with the "
                                                "ring's fusion tensor$"):
            verlinde_fusion(dataclasses.replace(md, ring=z2xz2))


class TestSL2Z:
    def test_su2_10(self):
        ring, twists = su2_level(10)
        report = sl2z_relations(modular_matrices(ring, twists))
        assert report.passed
        assert report.worst < 1e-9 * 11

    def test_trivial_exact(self):
        ring, twists = named_model("trivial")
        assert sl2z_relations(modular_matrices(ring, twists)).worst == 0.0

    def test_rep_z2_fails(self):
        ring, twists = cyclic_model(2, 0)
        report = sl2z_relations(modular_matrices(ring, twists))
        assert not report.passed
        assert report.residuals["S*S-1"] == pytest.approx(0.5)  # rank-deficient S


class TestMonodromy:
    def test_unit_row_trivial(self, catalog):
        for name, (ring, twists) in catalog.items():
            mono = monodromy_spectra(ring, twists)
            for nu in range(ring.size):
                assert all(t == 0 for t in mono.pairs[(ring.unit, nu)]), name

    def test_semion_self_pair(self):
        ring, twists = cyclic_model(2, 1)
        mono = monodromy_spectra(ring, twists)
        assert mono.pairs[(1, 1)] == (Fraction(1, 2),)
        assert mono.eigenvalues(1, 1) == (-1,)

    def test_rep_z2_all_trivial(self):
        ring, twists = cyclic_model(2, 0)
        mono = monodromy_spectra(ring, twists)
        assert all(t == 0 for ts in mono.pairs.values() for t in ts)
        assert mono.degenerate_labels == (1,)

    def test_multiplicity_counts_channels(self):
        ring, twists = su2_level(2)
        mono = monodromy_spectra(ring, twists)
        assert len(mono.pairs[(1, 1)]) == 2  # 1 x 1 = 0 + 2


class TestWeightVectors:
    def test_eigenvector_property(self, catalog_modular):
        # N_m y^l = chi_l(m) y^l
        for name, md in catalog_modular.items():
            Y = md.Y
            chi = statistics_characters(md)
            for mu in range(md.size):
                N = dense(md.ring)[:, mu]
                for lam in range(md.size):
                    assert np.allclose(N @ Y[lam], chi[lam, mu] * Y[lam],
                                       atol=1e-8), name
