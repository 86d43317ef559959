"""Tests for the minimum-density Liberation-style code."""

import pytest

from repro import LiberationCode
from repro.codes.base import ElementKind
from repro.exceptions import InvalidParameterError
from repro.utils import pairs


@pytest.fixture(scope="module")
def lib():
    return LiberationCode(7)


class TestLayout:
    def test_shape(self, lib):
        assert lib.rows == 7
        assert lib.cols == 9
        assert lib.k == 7

    def test_parity_disks(self, lib):
        for i in range(lib.rows):
            assert lib.layout[(i, lib.p_disk)] is ElementKind.ROW
            assert lib.layout[(i, lib.q_disk)] is ElementKind.Q

    def test_configurable_k(self):
        code = LiberationCode(7, k=4)
        assert code.cols == 6
        assert code.data_elements_per_stripe == 4 * 7

    def test_k_bounds(self):
        with pytest.raises(InvalidParameterError):
            LiberationCode(7, k=1)
        with pytest.raises(InvalidParameterError):
            LiberationCode(7, k=8)


class TestMinimumDensity:
    def test_q_density_is_minimum(self, lib):
        # Plank's bound: an MDS RAID-6 bit-matrix code needs at least
        # k·w + k - 1 ones in its Q matrices.
        k, w = lib.k, lib.rows
        assert sum(len(c.members) for c in lib.chains if c.kind is ElementKind.Q) == (
            k * w + k - 1
        )

    def test_density_minimum_for_smaller_k(self):
        for k in (2, 4, 6):
            code = LiberationCode(7, k=k)
            ones = sum(len(c.members) for c in code.chains if c.kind is ElementKind.Q)
            assert ones == k * 7 + k - 1

    def test_near_optimal_update_complexity(self, lib):
        # 2 + (k-1)/(k·w) extra updates on average.
        k, w = lib.k, lib.rows
        expect = 2 + (k - 1) / (k * w)
        assert lib.average_update_complexity() == pytest.approx(expect)

    def test_beats_cauchy_rs_density(self):
        from repro import CauchyRSCode

        lib = LiberationCode(7, k=6)
        crs = CauchyRSCode(k=6, w=3)
        crs_density = sum(
            len(c.members) for c in crs.chains if c.kind is ElementKind.Q
        ) / (6 * 3)
        lib_density = sum(
            len(c.members) for c in lib.chains if c.kind is ElementKind.Q
        ) / (6 * 7)
        assert lib_density < crs_density


class TestMDS:
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_rank_oracle_all_pairs_full_k(self, p):
        code = LiberationCode(p)
        system = code.parity_check_system
        for f1, f2 in pairs(code.cols):
            erased = [(r, d) for d in (f1, f2) for r in range(code.rows)]
            assert system.can_recover(erased), (p, f1, f2)

    @pytest.mark.parametrize("k", [2, 3, 5, 6])
    def test_rank_oracle_smaller_k(self, k):
        code = LiberationCode(7, k=k)
        system = code.parity_check_system
        for f1, f2 in pairs(code.cols):
            erased = [(r, d) for d in (f1, f2) for r in range(code.rows)]
            assert system.can_recover(erased), (k, f1, f2)

    def test_byte_decode_all_pairs(self):
        code = LiberationCode(5)
        stripe = code.random_stripe(element_size=4, seed=71)
        for f1, f2 in pairs(code.cols):
            broken = stripe.copy()
            code.decode(broken, failed_disks=[f1, f2])
            assert broken == stripe, (f1, f2)
