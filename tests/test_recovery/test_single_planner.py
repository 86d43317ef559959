"""Tests for minimal-I/O single-disk recovery and degraded-read plans."""

import pytest

from repro import HVCode, RDPCode, XCode
from repro.array.raid import RAID6Volume
from repro.engine import compile_plan
from repro.exceptions import InvalidParameterError, PlanError
from repro.recovery.cost import repair_cost
from repro.recovery.single import degraded_read_choices


def _column(code, disk):
    return [(r, disk) for r in range(code.rows)]


class TestPlannerEquivalence:
    @pytest.mark.parametrize("cls", [HVCode, XCode, RDPCode], ids=lambda c: c.name)
    def test_milp_matches_exhaustive(self, cls):
        code = cls(5)
        for disk in range(code.cols):
            exact = repair_cost(code, (disk,), "exhaustive")
            milp = repair_cost(code, (disk,), "milp")
            assert milp.reads == exact.reads, (cls.name, disk)

    @pytest.mark.parametrize("cls", [HVCode, XCode], ids=lambda c: c.name)
    def test_greedy_close_to_optimal(self, cls):
        code = cls(7)
        for disk in range(code.cols):
            greedy = repair_cost(code, (disk,), "greedy")
            milp = repair_cost(code, (disk,), "milp")
            assert greedy.reads <= milp.reads * 1.15


class TestPlanValidity:
    def test_choices_cover_every_lost_cell(self):
        code = HVCode(7)
        choices = degraded_read_choices(code, _column(code, 2), ())
        assert set(choices) == {(r, 2) for r in range(code.rows)}

    def test_chosen_chain_contains_its_cell(self):
        code = XCode(7)
        choices = degraded_read_choices(code, _column(code, 3), ())
        for cell, chain in choices.items():
            assert cell in chain.equation_cells

    def test_reads_sufficient_for_each_choice(self):
        code = HVCode(7)
        column = _column(code, 1)
        choices = degraded_read_choices(code, column, (), method="greedy")
        plan = compile_plan(code, "read", (column, column, ()), cache=None)
        reads = set(map(plan.position_of, plan.reads))
        for cell, chain in choices.items():
            needed = set(chain.equation_cells) - {cell}
            assert needed <= reads

    def test_hybrid_beats_single_flavor(self):
        # The optimization must beat "horizontal chains only", which
        # costs rows x (chain length - 1) distinct reads minus overlap.
        code = HVCode(13)
        fetched = set()
        for r in range(code.rows):
            cell = (r, 0)
            chains = [
                c for c in code.chains if cell in c.equation_cells
            ]
            chain = chains[0]
            fetched |= set(chain.equation_cells) - {cell}
        assert repair_cost(code, (0,), "milp").reads < len(fetched)

    def test_invalid_disk_rejected(self):
        with pytest.raises(InvalidParameterError):
            repair_cost(HVCode(7), (6,))

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError):
            repair_cost(HVCode(7), (0,), "quantum")
        with pytest.raises(InvalidParameterError):
            degraded_read_choices(HVCode(7), [(0, 0)], (), method="quantum")


class TestDegradedRead:
    """Fig. 7's degraded read, as the compiled ``read`` plan prices it:
    the fetch is the request's free cells plus the plan's reads (L′)."""

    def test_no_lost_cells_is_free(self):
        code = HVCode(7)
        assert all(pos[1] != 0 for pos in code.data_positions[1:5])
        volume = RAID6Volume(code, num_stripes=1)
        volume.fail_disk(0)
        result = volume.degraded_read(1, 4)
        assert result.elements_returned == 4
        assert result.io.total_reads == 4

    def test_lost_cell_costs_chain(self):
        code = HVCode(7)
        lost = next(pos for pos in code.data_positions if pos[1] == 0)
        plan, fetched = _read(code, 0, [lost])
        assert plan.output_positions == (lost,)
        assert len(fetched) == code.p - 3  # chain minus the lost cell

    def test_requested_alive_cells_reused(self):
        # Request an entire horizontal chain's data: rebuilding the one
        # lost member should only fetch the chain's parity cell extra.
        code = HVCode(7)
        chain = code.chains[0]  # horizontal chain of row 0
        members = sorted(chain.members)
        lost = members[0]
        failed_disk = lost[1]
        plan, fetched = _read(code, failed_disk, members)
        assert plan.output_positions == (lost,)
        assert fetched - set(members) == {chain.parity}

    def test_efficiency_at_least_one(self):
        code = XCode(7)
        for start in (0, 7, 20):
            requested = code.data_positions[start : start + 5]
            failed = requested[2][1]
            _, fetched = _read(code, failed, requested)
            assert len(fetched) >= len(requested)

    def test_empty_request_rejected(self):
        code = HVCode(7)
        column = [(r, 0) for r in range(code.rows)]
        with pytest.raises(PlanError):
            compile_plan(code, "read", (column, (), ()), cache=None)

    def test_never_reads_failed_disk(self):
        code = RDPCode(7)
        requested = code.data_positions[:10]
        _, fetched = _read(code, 1, requested, planner="auto")
        assert all(cell[1] != 1 for cell in fetched)


def _read(code, disk, requested, planner="milp"):
    """The compiled ``read`` plan of ``requested`` with ``disk`` down,
    and the cells it fetches: the alive requested ones plus its reads."""
    wanted = [c for c in requested if c[1] == disk]
    free = [c for c in requested if c[1] != disk]
    column = [(r, disk) for r in range(code.rows)]
    plan = compile_plan(code, "read", (column, wanted, free), planner=planner, cache=None)
    return plan, set(free) | set(map(plan.position_of, plan.reads))
