import math
from fractions import Fraction

import numpy as np
import pytest

from fusionkit import (FusionRing, StructureError, is_nondegenerate, modular_matrices,
                       quantum_dimensions, validate_fusion_ring)
from fusionkit.catalog import CATALOG, cyclic_model, named_model, su2_level

from helpers import su2_s_closed_form, table_dict


class TestSu2:
    def test_k1_is_semion_data(self):
        ring, twists = su2_level(1)
        assert ring.size == 2
        assert twists.h == (Fraction(0), Fraction(1, 4))

    def test_k2_twists(self):
        _, twists = su2_level(2)
        assert twists.h == (Fraction(0), Fraction(3, 16), Fraction(1, 2))

    def test_k4_dimensions(self):
        ring, _ = su2_level(4)
        dims = quantum_dimensions(ring)
        assert np.allclose(dims.d, [1, math.sqrt(3), 2, math.sqrt(3), 1], atol=1e-10)
        assert dims.w == pytest.approx(12.0, rel=1e-12)

    def test_fusion_range_symmetric_truncated(self):
        N = table_dict(su2_level(3)[0])
        # 1 x 2 = 1 + 3, 2 x 2 = 0 + 2 (4 truncated), 3 x 3 = 0
        assert N.get((1, 2, 1), 0) == 1 and N.get((1, 2, 3), 0) == 1
        assert N.get((2, 2, 0), 0) == 1 and N.get((2, 2, 2), 0) == 1
        assert N.get((2, 2, 4), 0) == 0
        assert N.get((3, 3, 0), 0) == 1 and N.get((3, 3, 2), 0) == 0

    def test_bad_level(self):
        with pytest.raises(StructureError):
            su2_level(0)

    def test_matches_clebsch_gordan_loop(self):
        for k in range(1, 65):
            fusion = {(a, b, c): 1 for a in range(k + 1) for b in range(k + 1)
                      for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2)}
            want = FusionRing([str(a) for a in range(k + 1)], 0, list(range(k + 1)), fusion)
            assert su2_level(k)[0] == want, k

    @pytest.mark.parametrize("k", list(range(1, 25)))
    def test_s_matrix_matches_closed_form(self, k):
        ring, twists = su2_level(k)
        md = modular_matrices(ring, twists)
        assert np.max(np.abs(md.S - su2_s_closed_form(k))) < 1e-9

    @pytest.mark.parametrize("k", list(range(1, 25)))
    def test_nondegenerate(self, k):
        ring, twists = su2_level(k)
        assert is_nondegenerate(ring, twists).nondegenerate


class TestClosedFormS:
    def test_k1(self):
        S = su2_s_closed_form(1)
        assert np.allclose(S, np.array([[1, 1], [1, -1]]) / math.sqrt(2))

    def test_k2_middle_entry_zero(self):
        assert abs(su2_s_closed_form(2)[1, 1]) < 1e-15

    @pytest.mark.parametrize("k", [1, 2, 5, 9, 16])
    def test_row0_positive(self, k):
        assert np.all(su2_s_closed_form(k)[0].real > 0)


class TestCyclic:
    def test_rep_z2_trivial_phases(self):
        _, twists = cyclic_model(2, 0)
        assert all(h == 0 for h in twists.h)

    def test_semion_nondegenerate(self):
        ring, twists = cyclic_model(2, 1)
        assert is_nondegenerate(ring, twists).nondegenerate

    def test_trivial_model(self):
        ring, twists = cyclic_model(1, 0)
        assert ring.size == 1
        assert twists.h == (Fraction(0),)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_q0_degenerate(self, n):
        ring, twists = cyclic_model(n, 0)
        nd = is_nondegenerate(ring, twists)
        assert not nd.nondegenerate
        assert set(nd.witnesses) == set(range(1, n))

    def test_matches_addition_loop(self):
        for n in range(1, 65):
            fusion = {(a, b, (a + b) % n): 1 for a in range(n) for b in range(n)}
            want = FusionRing([str(j) for j in range(n)], 0, [(-j) % n for j in range(n)], fusion)
            assert cyclic_model(n, 1)[0] == want, n

    def test_bad_order(self):
        with pytest.raises(StructureError):
            cyclic_model(0, 0)


class TestNamed:
    def test_fibonacci_golden_dimension(self):
        ring, _ = named_model("fibonacci")
        dims = quantum_dimensions(ring)
        assert dims.d[1] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)

    def test_trivial_single_label(self):
        ring, _ = named_model("trivial")
        assert ring.size == 1

    def test_unknown_name(self):
        with pytest.raises(StructureError):
            named_model("octonion")


class TestRegistry:
    def test_all_models_valid(self, catalog):
        for name, (ring, twists) in catalog.items():
            assert validate_fusion_ring(ring).ok, name

    def test_entry_builds_its_model(self):
        ring, twists = CATALOG["su2_3"]()
        ring2, twists2 = su2_level(3)
        assert ring == ring2 and twists == twists2

    def test_registry_covers_families(self):
        fams = {build.func for build in CATALOG.values()}
        assert fams == {su2_level, cyclic_model, named_model}
