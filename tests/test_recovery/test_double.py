"""Tests for the double-disk repair price (Fig. 9(b) and Table III)."""

import pytest

from repro import EvenOddCode, HCode, HDPCode, HVCode, RDPCode, XCode
from repro.array.latency import LatencyModel
from repro.exceptions import InvalidParameterError, PlanError
from repro.experiments.fig9_recovery import run_fig9b
from repro.recovery.cost import expected_double_rounds, repair_cost
from repro.utils import pairs


def minimum_parallelism(code):
    return min(repair_cost(code, pair).parallelism for pair in pairs(code.cols))


class TestAnalysis:
    def test_all_pairs_complete_for_evaluated_codes(self):
        for cls in (HVCode, RDPCode, HDPCode, XCode, HCode):
            code = cls(7)
            for f1, f2 in pairs(code.cols):
                cost = repair_cost(code, (f1, f2))
                assert cost.lost == 2 * code.rows

    def test_rounds_positive(self):
        cost = repair_cost(HVCode(7), (0, 1))
        assert cost.rounds >= 1
        # Fig. 9(b)'s Lc x Re model, averaged over every disk pair.
        re_seconds = LatencyModel().recovery_element_seconds()
        result = run_fig9b(primes=(7,), code_names=("HV",))
        assert result.rows[0][1] == pytest.approx(
            expected_double_rounds(HVCode(7)) * re_seconds
        )

    def test_same_disk_rejected(self):
        with pytest.raises(InvalidParameterError):
            repair_cost(HVCode(7), (3, 3))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            repair_cost(HVCode(7), (0, 99))

    def test_evenodd_reported_as_unpeelable(self):
        # EVENODD's S coupling defeats pure chain peeling for two data
        # disks; the compiler must say so rather than fake a number.
        code = EvenOddCode(5)
        with pytest.raises(PlanError):
            repair_cost(code, (0, 1))


class TestParallelism:
    def test_hv_and_xcode_start_four_chains(self):
        assert minimum_parallelism(HVCode(7)) >= 4
        assert minimum_parallelism(XCode(7)) >= 4

    def test_hdp_starts_two_chains(self):
        assert minimum_parallelism(HDPCode(7)) == 2

    def test_dedicated_parity_codes_may_serialize(self):
        assert minimum_parallelism(RDPCode(7)) <= 2
        assert minimum_parallelism(HCode(7)) <= 2


class TestExpectedRounds:
    @pytest.mark.parametrize("p", [7, 11])
    def test_hv_fastest_or_tied(self, p):
        hv = expected_double_rounds(HVCode(p))
        for cls in (RDPCode, HDPCode, XCode, HCode):
            assert hv <= expected_double_rounds(cls(p)) + 1e-9

    def test_paper_headline_savings_at_p7(self):
        # Paper Section V.D: at p=7, HV (and X-Code) cut the recovery
        # time of RDP / HDP / H-Code by roughly 43-48%.
        hv = expected_double_rounds(HVCode(7))
        rdp = expected_double_rounds(RDPCode(7))
        hdp = expected_double_rounds(HDPCode(7))
        hcode = expected_double_rounds(HCode(7))
        assert 0.30 <= 1 - hv / rdp <= 0.60
        assert 0.30 <= 1 - hv / hdp <= 0.60
        assert 0.30 <= 1 - hv / hcode <= 0.60

    def test_hv_close_to_xcode(self):
        hv = expected_double_rounds(HVCode(13))
        x = expected_double_rounds(XCode(13))
        assert abs(hv - x) / x < 0.35
