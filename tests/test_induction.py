from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from fusionkit import (BasedAlgebra, CertificateError, FusionRing, InductionCertificate,
                       NondegeneracyRequired, NumericError, StructureError, TwistData,
                       compute_Z_from_branching, conjugation_certificate,
                       full_report, modular_matrices, quantum_dimensions,
                       trivial_certificate, verify_generating, verify_homomorphism)
from fusionkit import rings
from fusionkit.catalog import cyclic_model, su2_level
from fusionkit.invariants import invariant_counts

from helpers import permute_model, table_dict, unconjugated_z3


def corrupted(cert, **changes):
    return InductionCertificate(
        changes.get("ring", cert.ring), changes.get("twists", cert.twists),
        changes.get("mm", cert.mm), changes.get("aplus", cert.aplus),
        changes.get("aminus", cert.aminus), theta=changes.get("theta", cert.theta),
        nm_count=changes.get("nm_count", cert.nm_count))


def semion_branched(p, q=0, **changes):
    """The trivial semion certificate with A+ = [[1, 0], [p, q]]: v_1 v_1 is
    (p^2 + q^2) [0] + 2 p q [1] where the homomorphism wants [0]."""
    return corrupted(trivial_certificate(*cyclic_model(2, 1)),
                     aplus=np.array([[1, 0], [p, q]]), **changes)


def homomorphism_breaking_aplus(ring):
    """Replace the weight-2 row of the identity branching at level 4 by the
    dimension-preserving but fusion-breaking combination e0 + e4."""
    A = np.eye(ring.size, dtype=np.int64)
    A[2] = 0
    A[2, 0] = A[2, 4] = 1
    return A


class TestConstruction:
    def test_shape_mismatch(self):
        ring, twists = su2_level(2)
        cert = trivial_certificate(ring, twists)
        with pytest.raises(StructureError):
            InductionCertificate(ring, twists, cert.mm,
                                 np.eye(2, dtype=int), np.eye(2, dtype=int))

    def test_requires_dims(self):
        ring, twists = su2_level(2)
        mm = BasedAlgebra(ring.labels, ring.unit, ring.dual, table_dict(ring))
        with pytest.raises(StructureError):
            InductionCertificate(ring, twists, mm,
                                 np.eye(3, dtype=int), np.eye(3, dtype=int))

    def test_requires_a_unit(self):
        cert = trivial_certificate(*su2_level(2))
        mm = BasedAlgebra(cert.mm.labels, None, cert.mm.dual, table_dict(cert.mm), cert.mm.dims)
        with pytest.raises(StructureError, match="needs a unit basis element"):
            corrupted(cert, mm=mm)

    def test_theta_needs_one_entry_per_label(self):
        with pytest.raises(StructureError, match="theta branching must be per-base-label"):
            corrupted(trivial_certificate(*su2_level(2)), theta=[1, 0])

    def test_negative_entries(self):
        ring, twists = su2_level(2)
        cert = trivial_certificate(ring, twists)
        A = -np.eye(3, dtype=int)
        with pytest.raises(StructureError):
            corrupted(cert, aplus=A)

    def test_branching_arrays_are_copied(self):
        # an int64 array passed in stays the caller's: writable, and not
        # seen by the certificate when it changes later
        ring, twists = su2_level(2)
        mm = trivial_certificate(ring, twists).mm
        aplus, aminus = np.eye(3, dtype=np.int64), np.eye(3, dtype=np.int64)
        cert = InductionCertificate(ring, twists, mm, aplus, aminus)
        assert aplus.flags.writeable and aminus.flags.writeable
        aplus[0, 1] = aminus[2, 0] = 5
        assert np.array_equal(cert.aplus, np.eye(3)) and np.array_equal(cert.aminus, np.eye(3))

    def test_negative_nm_count(self):
        with pytest.raises(StructureError, match="non-negative"):
            corrupted(trivial_certificate(*su2_level(4)), nm_count=-3)


    def test_branching_sign_must_be_plus_or_minus(self):
        cert = trivial_certificate(*su2_level(2))
        with pytest.raises(StructureError) as exc:
            cert.branching("x")
        assert str(exc.value) == "sign must be '+' or '-', got 'x'"

    def test_fields_cannot_be_assigned(self):
        cert = trivial_certificate(*su2_level(2))
        with pytest.raises(AttributeError):
            cert.nm_count = 3
        assert cert.nm_count is None
        # equality is identity: an equal copy is another certificate
        assert cert == cert and cert != corrupted(cert)


class TestHomomorphism:
    def test_trivial_passes_both_signs(self):
        cert = trivial_certificate(*su2_level(4))
        assert verify_homomorphism(cert, "+").passed
        assert verify_homomorphism(cert, "-").passed

    def test_conjugation_passes_on_commutative_base(self):
        cert = conjugation_certificate(*cyclic_model(3, 2))
        assert verify_homomorphism(cert, "+").passed
        assert verify_homomorphism(cert, "-").passed

    def test_violation_reported_with_witness(self):
        ring, twists = su2_level(4)
        cert = corrupted(trivial_certificate(ring, twists),
                         aplus=homomorphism_breaking_aplus(ring))
        report = verify_homomorphism(cert, "+")
        assert not report.passed
        l, m, b, got, want = report.violation
        assert got != want

    @pytest.mark.parametrize("p, q", [(4097, 0), (4000, 2001)])
    def test_violation_values_are_exact_in_float64(self, p, q):
        # the bound rowsum(A+)^2 max(N_mm) = (p + q)^2 lies between 2^24 and
        # 2^53, and the odd count p^2 + q^2 would round in float32, though
        # max(A+)^2 stays below 2^24 for (4000, 2001)
        report = verify_homomorphism(semion_branched(p, q), "+")
        assert report.violation == (1, 1, 0, p * p + q * q, 1)
        assert verify_homomorphism(semion_branched(p, q), "-").passed

    def test_sums_past_float64_raise(self):
        # (2^63 - 1)^2 wraps to 1 in int64, which would pass v_1 v_1 = v_0
        cert = semion_branched(2 ** 63 - 1)
        with pytest.raises(NumericError, match="not exact in float64"):
            verify_homomorphism(cert, "+")
        with pytest.raises(NumericError, match="not exact in float64"):
            full_report(cert)


class TestMassMatrixFromBranching:
    def test_trivial_gives_identity(self):
        cert = trivial_certificate(*su2_level(3))
        assert np.array_equal(compute_Z_from_branching(cert), np.eye(4, dtype=int))

    def test_conjugation_gives_c(self):
        ring, twists = cyclic_model(3, 2)
        cert = conjugation_certificate(ring, twists)
        assert np.array_equal(compute_Z_from_branching(cert), ring.conjugation_matrix())

    def test_entries_past_int64_are_exact(self):
        A = np.diag([1, 2**62, 1])
        cert = corrupted(trivial_certificate(*su2_level(2)), aplus=A, aminus=A)
        Z = compute_Z_from_branching(cert)
        assert Z[1, 1] == 2**124
        assert invariant_counts(Z) == (2 + 2**124, 2 + 2**248)

    def test_z00_violation_raises(self):
        ring, twists = su2_level(2)
        cert = trivial_certificate(ring, twists)
        A = np.eye(3, dtype=np.int64)
        A[0, 1] = 1  # unit row now hits two extended sectors
        bad = corrupted(cert, aplus=A, aminus=A)
        with pytest.raises(CertificateError):
            compute_Z_from_branching(bad)

    def test_unit_cell_named_by_index(self):
        # the semion relabelled so its unit is label 1
        cert = trivial_certificate(*permute_model(cyclic_model(2, 1), [1, 0]))
        assert full_report(cert)["z_matrix"].detail == "Z[1,1] = 1"
        A = np.array([[1, 0], [1, 1]])  # the unit row hits both sectors
        bad = corrupted(cert, aplus=A, aminus=A)
        assert full_report(bad)["z_matrix"].detail == "Z[1,1] = 2"
        with pytest.raises(CertificateError, match=r"^Z\[1,1\] = 2 != 1"):
            compute_Z_from_branching(bad)


class TestGenerating:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_trivial_collapses_to_w(self, k):
        cert = trivial_certificate(*su2_level(k))
        report = verify_generating(cert, modular_matrices(cert.ring, cert.twists))
        assert report.passed
        assert report.max_residual < 1e-9
        assert report.uncovered == ()

    def test_conjugation_certificate(self):
        cert = conjugation_certificate(*cyclic_model(3, 2))
        report = verify_generating(cert, modular_matrices(cert.ring, cert.twists))
        assert report.passed

    def test_degenerate_base_raises(self):
        cert = trivial_certificate(*cyclic_model(2, 0))
        with pytest.raises(NondegeneracyRequired):
            verify_generating(cert, modular_matrices(cert.ring, cert.twists))

    def test_mixed_products_are_exact_in_float64(self):
        # with A+ = A- = [[1, 0], [m, 0]] the mixed products sum to
        # (m + 1)^2 [0], against w d = 2 [0] + 2 [1]
        md = modular_matrices(*cyclic_model(2, 1))
        m = 4097
        A = np.array([[1, 0], [m, 0]])
        report = verify_generating(semion_branched(m, aminus=A), md)
        assert report.max_residual == pytest.approx(((m + 1) ** 2 - 2) / 2, rel=1e-12)
        assert report.uncovered == (1,)
        # sums past 2^53 are compared in floats too, and fail the same way
        m = 2 ** 27
        report = verify_generating(semion_branched(m, aminus=np.array([[1, 0], [m, 0]])), md)
        assert not report.passed
        assert report.max_residual == pytest.approx(((m + 1) ** 2 - 2) / 2, rel=1e-12)
        assert report.uncovered == (1,)


class TestFullReport:
    @pytest.mark.parametrize("k", list(range(1, 11)))
    def test_trivial_and_conjugation_over_su2(self, k):
        ring, twists = su2_level(k)
        for build in (trivial_certificate, conjugation_certificate):
            report = full_report(build(ring, twists))
            assert report.passed, (k, build.__name__, report.failures)

    def test_trivial_su2_4_counts(self):
        report = full_report(corrupted(trivial_certificate(*su2_level(4)), nm_count=5))
        assert report.passed
        assert "tr Z = 5, tr Z Z^t = 5" in report["counts"].detail

    def test_conjugation_equals_trivial_for_self_dual(self):
        ring, twists = su2_level(4)
        Zc = compute_Z_from_branching(conjugation_certificate(ring, twists))
        Zt = compute_Z_from_branching(trivial_certificate(ring, twists))
        assert np.array_equal(Zc, Zt)

    def test_vanishing_z_fails_modular_invariance(self):
        # the fermion model (cyclic 2, q = 2) has Gauss sum z = 0
        report = full_report(trivial_certificate(*cyclic_model(2, 2)))
        check = report["modular_invariance"]
        assert not check.passed
        assert check.detail.startswith("no modular data")

    def test_modular_invariance_decides_t_by_the_exact_mask(self):
        # twists 0 and 1e-10 differ, so Z = all-ones is off the twist mask
        # although |TZ-ZT| = 6.3e-10 is under the 2e-09 limit; the classify
        # command fails this Z with the same message
        ring, _ = cyclic_model(2, 0)
        mm = BasedAlgebra(["0"], 0, [0], {(0, 0, 0): 1}, dims=[1.0])
        cert = InductionCertificate(ring, TwistData([Fraction(0), Fraction(1, 10**10)]),
                                    mm, [[1], [1]], [[1], [1]])
        check = full_report(cert)["modular_invariance"]
        assert not check.passed
        assert check.detail == "Z[0,1] = 1 and 1 more off the twist mask"

    def test_programming_error_is_not_a_failed_check(self, monkeypatch):
        import fusionkit.induction

        def broken(*args, **kwargs):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(fusionkit.induction, "modular_matrices", broken)
        with pytest.raises(ZeroDivisionError):
            full_report(trivial_certificate(*su2_level(2)))

    def test_tol_argument_reaches_every_check(self, monkeypatch):
        # a tolerance far below float noise in the environment reaches no
        # check: full_report runs at its own tol, or at 1e-9 given none
        monkeypatch.setenv("FUSIONKIT_TOL", "1e-25")
        cert = trivial_certificate(*su2_level(10))
        for tol in (1e-6, None):
            report = full_report(cert, tol=tol)
            assert report.passed, (tol, report.failures)

    def test_unknown_check_name_is_a_key_error(self):
        report = full_report(trivial_certificate(*su2_level(2)))
        assert report["structure"].detail == "base ring and extended algebra axioms hold"
        with pytest.raises(KeyError):
            report["nope"]

    def test_base_that_is_not_a_fusion_ring_fails_structure(self):
        # every other check passes on this base, so only structure catches it
        report = full_report(trivial_certificate(*unconjugated_z3()))
        assert not report.passed
        assert report.failures == ("structure",)
        assert report["structure"].detail == "base ring invalid: ('conjugate', 'frobenius')"

    def test_base_without_quantum_dimensions_gets_every_check(self):
        # the semion table without N[1,1]^0 has no Perron-Frobenius vector,
        # so the dimension and modular checks fail and the others still run
        ring, twists = cyclic_model(2, 1)
        base = FusionRing(ring.labels, ring.unit, ring.dual,
                          [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]])
        eye = np.eye(2, dtype=np.int64)
        report = full_report(InductionCertificate(
            base, twists, trivial_certificate(ring, twists).mm, eye, eye))
        assert [c.name for c in report.checks] == [
            "structure", "unit_row", "dimension", "homomorphism_plus", "homomorphism_minus",
            "z_matrix", "modular_invariance", "nondegeneracy", "generating", "counts"]
        assert report["structure"].detail == "base ring invalid: ('conjugate', 'frobenius')"
        no_dims = "power iteration did not converge in 100000 steps"
        assert report["dimension"].detail == f"no quantum dimensions: {no_dims}"
        assert report["modular_invariance"].detail == f"no modular data: {no_dims}"
        assert report.failures == ("structure", "dimension", "homomorphism_plus",
                                   "homomorphism_minus", "modular_invariance",
                                   "nondegeneracy", "generating")

    def test_failed_dimensions_are_computed_once(self):
        # the dimension and modular checks share the ring's one failed
        # power iteration, and both still report its error
        ring, twists = cyclic_model(2, 1)
        base = FusionRing(ring.labels, ring.unit, ring.dual,
                          [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]])
        eye = np.eye(2, dtype=np.int64)
        cert = InductionCertificate(base, twists, trivial_certificate(ring, twists).mm, eye, eye)
        with mock.patch.object(rings, "quantum_dimensions",
                               wraps=rings.quantum_dimensions) as counted:
            report = full_report(cert)
        assert counted.call_count == 1
        no_dims = "power iteration did not converge in 100000 steps"
        assert report["dimension"].detail == f"no quantum dimensions: {no_dims}"
        assert report["modular_invariance"].detail == f"no modular data: {no_dims}"
        with pytest.raises(NumericError, match=no_dims):
            base.dimensions()

    @pytest.mark.parametrize("base, prefix", [
        (su2_level(2), ""),
        (unconjugated_z3(), "base ring invalid: ('conjugate', 'frobenius'); ")],
        ids=["valid base", "invalid base"])
    def test_structure_detail_names_each_invalid_table(self, base, prefix):
        # d_1 = 2 breaks the multiplicativity of the extended algebra's dims
        cert = trivial_certificate(*base)
        mm = BasedAlgebra(cert.mm.labels, cert.mm.unit, cert.mm.dual, table_dict(cert.mm),
                          dims=[1, 2, 1])
        check = full_report(corrupted(cert, mm=mm))["structure"]
        assert not check.passed
        assert check.detail == prefix + "extended algebra invalid: ('dimension',)"

    def test_wrong_declared_count_fails(self):
        report = full_report(corrupted(trivial_certificate(*su2_level(4)), nm_count=7))
        assert "counts" in report.failures

    def test_certificate_z_satisfies_search_invariants(self):
        # cross-module consistency: a Z that passes modular invariance also
        # obeys the entry-sum bound and the global-index identity
        ring, twists = cyclic_model(3, 2)
        cert = conjugation_certificate(ring, twists)
        assert full_report(cert).passed
        Z = compute_Z_from_branching(cert)
        dims = quantum_dimensions(ring)
        assert Z.sum() <= dims.w + 1e-9
        dd = np.outer(dims.d, dims.d)
        assert float(np.sum(dd * Z)) == pytest.approx(dims.w, rel=1e-9)


class TestTargetedCorruptions:
    """Each corruption must trip its specific named check."""

    def test_unit_row(self):
        ring, twists = su2_level(4)
        cert = trivial_certificate(ring, twists)
        A = np.eye(5, dtype=np.int64)[[4, 1, 2, 3, 0]]  # unit row hits label 4
        report = full_report(corrupted(cert, aplus=A))
        assert "unit_row" in report.failures

    def test_dimension_vector(self):
        ring, twists = su2_level(4)
        cert = trivial_certificate(ring, twists)
        dims = list(cert.mm.dims)
        dims[2] = dims[2] + 0.5
        mm = BasedAlgebra(cert.mm.labels, cert.mm.unit, cert.mm.dual,
                          table_dict(cert.mm), dims=dims)
        report = full_report(corrupted(cert, mm=mm))
        assert "dimension" in report.failures

    def test_homomorphism_entry(self):
        ring, twists = su2_level(4)
        cert = corrupted(trivial_certificate(ring, twists),
                         aplus=homomorphism_breaking_aplus(ring))
        report = full_report(cert)
        assert "homomorphism_plus" in report.failures
        assert "unit_row" not in report.failures
        assert "dimension" not in report.failures

    def test_z00(self):
        ring, twists = su2_level(4)
        cert = trivial_certificate(ring, twists)
        A = np.eye(5, dtype=np.int64)
        A[0, 1] = 1
        report = full_report(corrupted(cert, aplus=A, aminus=A))
        assert "z_matrix" in report.failures

    def test_degenerate_base(self):
        report = full_report(trivial_certificate(*cyclic_model(2, 0)))
        assert "nondegeneracy" in report.failures
        assert "generating" in report.failures
        assert "NondegeneracyRequired" in report["generating"].detail

    def test_all_ones_column_fails_dimensions(self):
        # both branchings sending everything to the extended unit kills
        # dimension preservation (and the homomorphism) on any base with
        # more than one label, while Z stays the all-ones matrix
        ring, twists = su2_level(2)
        cert = trivial_certificate(ring, twists)
        A = np.zeros((3, 3), dtype=np.int64)
        A[:, 0] = 1
        bad = corrupted(cert, aplus=A, aminus=A)
        assert np.array_equal(bad.aplus @ bad.aminus.T, np.ones((3, 3), dtype=int))
        report = full_report(bad)
        assert "dimension" in report.failures


class TestThetaBound:
    def test_trivial_theta_equality(self):
        ring, twists = su2_level(4)
        cert = trivial_certificate(ring, twists)
        theta = [0] * 5
        theta[ring.unit] = 1
        report = full_report(corrupted(cert, theta=theta))
        assert report.passed
        assert report["theta_bound"].passed

    def test_violation_detected(self):
        ring, twists = su2_level(4)
        theta = [0] * 5
        theta[ring.unit] = 1
        cert = corrupted(trivial_certificate(ring, twists),
                         aplus=homomorphism_breaking_aplus(ring), theta=theta)
        report = full_report(cert)
        assert "theta_bound" in report.failures

    def test_bound_past_int64_is_exact(self):
        # <theta 1, 1> = theta_0 + theta_2 = 2^63 on SU(2)_2, past int64
        cert = corrupted(trivial_certificate(*su2_level(2)), theta=[1, 2**63 - 1, 2**63 - 1])
        check = full_report(cert)["theta_bound"]
        assert check.passed
        assert check.detail.endswith(f"largest <theta l, m> = {2**63}")

    def test_absent_by_default(self):
        report = full_report(trivial_certificate(*su2_level(2)))
        assert all(c.name != "theta_bound" for c in report.checks)
