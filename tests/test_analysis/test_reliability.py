"""Tests for the MTTDL reliability model."""

import numpy as np
import pytest

from repro import HCode, HVCode, RDPCode
from repro.analysis.reliability import (
    MarkovChainModel,
    ReliabilityParameters,
    SectorErrorParameters,
    mttdl_comparison,
    mttdl_for_code,
    mttdl_with_sector_errors,
    raid6_mttdl_hours,
    raid6_mttdl_hours_with_sector_errors,
)
from repro.codes.registry import evaluated_codes
from repro.exceptions import InvalidParameterError


class TestMarkovSolver:
    def test_single_state_exponential(self):
        # One transient state leaving at rate r: expected time 1/r.
        model = MarkovChainModel(np.array([[-4.0]]))
        assert model.expected_absorption_times()[0] == pytest.approx(0.25)

    def test_two_state_chain(self):
        # 0 -a-> 1 -b-> absorbed: E[T0] = 1/a + 1/b.
        a, b = 2.0, 5.0
        model = MarkovChainModel(np.array([[-a, a], [0.0, -b]]))
        times = model.expected_absorption_times()
        assert times[0] == pytest.approx(1 / a + 1 / b)
        assert times[1] == pytest.approx(1 / b)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidParameterError):
            MarkovChainModel(np.zeros((2, 3)))

    def test_rejects_unreachable_absorption(self):
        # A closed chain (rows sum to zero with no leak) is singular.
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(InvalidParameterError):
            MarkovChainModel(q).expected_absorption_times()


class TestRaid6Mttdl:
    def test_matches_asymptotic_formula(self):
        # With λ << μ the classic approximation holds:
        # MTTDL ≈ μ1·μ2 / (N(N-1)(N-2)·λ^3).
        n, lam, mu1, mu2 = 10, 1e-6, 1.0, 0.5
        exact = raid6_mttdl_hours(n, lam, mu1, mu2)
        approx = mu1 * mu2 / (n * (n - 1) * (n - 2) * lam**3)
        assert exact == pytest.approx(approx, rel=1e-3)

    def test_faster_repair_higher_mttdl(self):
        base = raid6_mttdl_hours(12, 1e-6, 1.0, 0.5)
        faster = raid6_mttdl_hours(12, 1e-6, 2.0, 1.0)
        assert faster > base

    def test_more_disks_lower_mttdl(self):
        small = raid6_mttdl_hours(8, 1e-6, 1.0, 0.5)
        large = raid6_mttdl_hours(16, 1e-6, 1.0, 0.5)
        assert large < small

    def test_minimum_group_size(self):
        with pytest.raises(InvalidParameterError):
            raid6_mttdl_hours(2, 1e-6, 1.0, 1.0)


class TestParameters:
    def test_defaults_valid(self):
        params = ReliabilityParameters()
        assert params.failure_rate_per_hour == pytest.approx(1e-6)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ReliabilityParameters(disk_mttf_hours=0)
        with pytest.raises(InvalidParameterError):
            ReliabilityParameters(disk_capacity_elements=0)


class TestCodeMttdl:
    def test_rebuild_time_scales_with_reads(self):
        params = ReliabilityParameters()
        hv = mttdl_for_code(HVCode(7), params)["single_rebuild_hours"]
        rdp = mttdl_for_code(RDPCode(7), params)["single_rebuild_hours"]
        # HV reads ~36% less per lost element but has fewer surviving
        # disks to spread over; it must still win per-disk.
        assert hv < rdp

    def test_double_rebuild_slower_than_single(self):
        params = ReliabilityParameters()
        code = HVCode(7)
        row = mttdl_for_code(code, params)
        single, double = row["single_rebuild_hours"], row["double_rebuild_hours"]
        assert double >= 2 * single * 0.99

    def test_hv_highest_mttdl_at_p13(self):
        table = mttdl_comparison(evaluated_codes(13))
        hv = table["HV"]["mttdl_hours"]
        for name, row in table.items():
            assert hv >= row["mttdl_hours"], name

    def test_mttdl_fields(self):
        row = mttdl_for_code(HCode(7))
        assert set(row) == {
            "disks",
            "single_rebuild_hours",
            "double_rebuild_hours",
            "mttdl_hours",
        }
        assert row["mttdl_hours"] > 0


class TestSectorErrorModel:
    def test_zero_ber_zero_probability(self):
        sector = SectorErrorParameters(unrecoverable_bit_error_rate=0.0)
        assert sector.ure_probability(1e9) == 0.0

    def test_probability_monotone_in_volume(self):
        sector = SectorErrorParameters()
        small = sector.ure_probability(1e3)
        large = sector.ure_probability(1e6)
        assert 0.0 < small < large < 1.0

    def test_matches_naive_formula(self):
        # The log1p/expm1 evaluation agrees with the naive power form
        # to the latter's (much worse) float precision.
        sector = SectorErrorParameters(
            unrecoverable_bit_error_rate=1e-9, bits_per_element=1e6
        )
        n = 100.0
        naive = 1.0 - (1.0 - 1e-9) ** (n * 1e6)
        assert sector.ure_probability(n) == pytest.approx(naive, rel=1e-6)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SectorErrorParameters(unrecoverable_bit_error_rate=1.5)
        with pytest.raises(InvalidParameterError):
            SectorErrorParameters(bits_per_element=0)
        with pytest.raises(InvalidParameterError):
            SectorErrorParameters().ure_probability(-1)

    def test_no_ure_reduces_to_baseline(self):
        base = raid6_mttdl_hours(12, 1e-6, 1.0, 0.5)
        extended = raid6_mttdl_hours_with_sector_errors(
            12, 1e-6, 1.0, 0.5, p_ure_double=0.0
        )
        assert extended == pytest.approx(base)

    def test_ure_probability_lowers_mttdl(self):
        base = raid6_mttdl_hours_with_sector_errors(12, 1e-6, 1.0, 0.5, 0.0)
        hit = raid6_mttdl_hours_with_sector_errors(12, 1e-6, 1.0, 0.5, 0.01)
        assert hit < base

    def test_p_ure_validated(self):
        with pytest.raises(InvalidParameterError):
            raid6_mttdl_hours_with_sector_errors(12, 1e-6, 1.0, 0.5, 1.5)

    def test_code_level_fields_and_penalty(self):
        row = mttdl_with_sector_errors(HVCode(7))
        assert 0.0 < row["p_ure_double_rebuild"] < 1.0
        assert row["mttdl_hours"] < row["mttdl_hours_no_sector_errors"]
        assert row["mttdl_penalty"] > 1.0

    def test_measured_fraction_overrides_analytic(self):
        clean = mttdl_with_sector_errors(
            HVCode(7), measured_double_failure_fraction=0.0
        )
        assert clean["p_ure_double_rebuild"] == 0.0
        assert clean["mttdl_hours"] == pytest.approx(
            clean["mttdl_hours_no_sector_errors"]
        )
