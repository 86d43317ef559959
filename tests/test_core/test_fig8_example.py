"""The paper's Fig. 8 worked example, reproduced exactly.

"An example of single disk repair in HV Code is shown in Figure 8 when
p = 7, in which at least 18 elements have to [be] retrieve[d] for the
recovery of lost elements and thus it needs 3 elements on average to
repair each lost element on the failed disk."
"""

import pytest

from repro import HVCode
from repro.recovery.cost import expected_recovery_reads_per_element, repair_cost
from repro.recovery.single import degraded_read_choices


@pytest.fixture(scope="module")
def hv():
    return HVCode(7)


class TestFig8:
    def test_disk0_needs_18_elements(self, hv):
        cost = repair_cost(hv, (0,), "milp")
        assert cost.reads == 18
        assert cost.reads_per_lost_element == pytest.approx(3.0)

    def test_every_disk_needs_18_elements(self, hv):
        # HV's layout is column-symmetric; the paper's average of 3
        # reads per lost element holds for any failed disk at p=7.
        for disk in range(hv.cols):
            assert repair_cost(hv, (disk,), "milp").reads == 18, disk

    def test_expectation_is_three(self, hv):
        assert expected_recovery_reads_per_element(hv, "milp") == pytest.approx(3.0)

    def test_plan_mixes_both_chain_flavors(self, hv):
        # The minimum is achieved by hybrid recovery: some elements
        # repaired horizontally, some vertically (Fig. 8's shading).
        column = [(r, 0) for r in range(hv.rows)]
        choices = degraded_read_choices(hv, column, (), method="milp")
        kinds = {chain.kind for chain in choices.values()}
        assert len(kinds) == 2

    def test_plan_reads_only_surviving_cells(self, hv):
        cost = repair_cost(hv, (0,), "milp")
        assert cost.reads_per_disk[0] == 0
        assert cost.reads == 18

    def test_greedy_matches_optimum_here(self, hv):
        assert repair_cost(hv, (0,), "greedy").reads == 18
