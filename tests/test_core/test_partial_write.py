"""Tests for the HV partial-stripe-write analysis (Section IV.5)."""

import pytest

from repro import HVCode
from repro.core.partial_write import analyze_partial_write, cross_row_sharing_rate
from repro.engine.compile import choose_update_strategy, compile_plan
from repro.exceptions import InvalidParameterError


@pytest.fixture(scope="module")
def hv():
    return HVCode(7)


class TestTwoElementWrites:
    def test_same_row_pair_costs_three(self, hv):
        # Two data elements in one row: 1 shared horizontal + 2 verticals.
        analysis = analyze_partial_write(hv, 0, 2)
        assert analysis.data_cells[0][0] == analysis.data_cells[1][0]
        assert len(analysis.horizontal_parities) == 1
        assert len(analysis.vertical_parities) == 2
        assert analysis.parity_writes == 3
        assert analysis.total_writes == 5

    def test_shared_cross_row_pair_costs_three(self, hv):
        # A cross-row pair sharing a vertical parity: 2 horizontals +
        # 1 shared vertical.
        per_row = 7 - 3
        for start in range(0, hv.data_elements_per_stripe - 2, per_row):
            analysis = analyze_partial_write(hv, start + per_row - 1, 2)
            left, right = analysis.data_cells
            if left[0] == right[0]:
                continue
            if analysis.shared_vertical_pairs:
                assert analysis.parity_writes == 3
                assert len(analysis.horizontal_parities) == 2
                assert len(analysis.vertical_parities) == 1
                return
        pytest.fail("no shared cross-row pair found at p=7")

    def test_near_optimal_average(self, hv):
        # The proven optimum for any lowest-density MDS code is 3
        # parity updates for two continuous elements; HV must stay
        # within half a write of it on average.
        total = 0
        count = 0
        for start in range(hv.data_elements_per_stripe - 1):
            analysis = analyze_partial_write(hv, start, 2)
            total += analysis.parity_writes
            count += 1
        assert 3.0 <= total / count <= 3.5


class TestCrossRowSharing:
    @pytest.mark.parametrize("p", [7, 11, 13, 17])
    def test_sharing_rate_lower_bound(self, p):
        # Footnote 2: at least (p-6) of the (p-2) cross-row pairs
        # share a vertical parity.
        rate = cross_row_sharing_rate(HVCode(p))
        assert rate >= (p - 6) / (p - 2)

    def test_sharing_rate_approaches_one(self):
        assert cross_row_sharing_rate(HVCode(23)) > cross_row_sharing_rate(
            HVCode(7)
        )


class TestWholeStripeWrites:
    def test_full_stripe_touches_all_parities(self, hv):
        analysis = analyze_partial_write(hv, 0, hv.data_elements_per_stripe)
        assert analysis.parity_writes == len(hv.parity_positions)

    def test_row_write_single_horizontal(self, hv):
        per_row = 7 - 3
        analysis = analyze_partial_write(hv, 0, per_row)
        assert len(analysis.horizontal_parities) == 1


def dirtied_parities(code, analysis):
    """The parity cells the compiled ``update`` plan of a write dirties."""
    plan = compile_plan(code, "update", analysis.data_cells)
    return plan, tuple(divmod(slot, code.cols) for slot in plan.outputs)


class TestRMWDeltaCost:
    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("start,length", [(0, 1), (0, 2), (1, 3)])
    def test_plan_outputs_match_analysis(self, p, start, length):
        # The compiled plan's dirtied parities are exactly the ones the
        # symbolic analysis predicts, row and cross-row sharing included.
        code = HVCode(p)
        analysis = analyze_partial_write(code, start, length)
        plan, outputs = dirtied_parities(code, analysis)
        assert len(outputs) == analysis.parity_writes
        assert set(outputs) == (
            analysis.horizontal_parities | analysis.vertical_parities
        )
        assert plan.kernel_calls > 0
        assert len(plan.plan_hash) == 64

    def test_small_write_strategy_is_rmw(self):
        code = HVCode(11)
        cells = analyze_partial_write(code, 0, 2).data_cells
        assert choose_update_strategy(code, cells)[0] == "rmw"

    def test_matches_volume_accounting(self):
        # The compiled plan and the RAID volume must count the same
        # parity writes for the same logical write.
        from repro.array.raid import RAID6Volume

        code = HVCode(7)
        for start, length in [(0, 1), (2, 2), (0, 4)]:
            _, outputs = dirtied_parities(code, analyze_partial_write(code, start, length))
            vol = RAID6Volume(HVCode(7), num_stripes=2)
            report = vol.write(start, length)
            assert report.parity_writes == len(outputs)


class TestValidation:
    def test_zero_length_rejected(self, hv):
        with pytest.raises(InvalidParameterError):
            analyze_partial_write(hv, 0, 0)

    def test_overrun_rejected(self, hv):
        with pytest.raises(InvalidParameterError):
            analyze_partial_write(hv, hv.data_elements_per_stripe - 1, 2)

    def test_negative_start_rejected(self, hv):
        with pytest.raises(InvalidParameterError):
            analyze_partial_write(hv, -1, 2)
