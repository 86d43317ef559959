"""Tests for Algorithm 1 (HV double-disk reconstruction).

Checked against three independent references: actual byte recovery,
the generic peeling scheduler, and Theorem 1's structural claims
(four chains, alternating parity flavors, termination at parities).
"""

import pytest

from repro import HVCode, RDPCode
from repro.codes.base import ElementKind
from repro.core.recovery import plan_double_failure_recovery
from repro.exceptions import InvalidParameterError
from repro.recovery.peeling import peel_schedule
from repro.utils import pairs


@pytest.fixture(scope="module", params=[5, 7, 11, 13])
def hv(request):
    return HVCode(request.param)


class TestPlanStructure:
    def test_four_chains(self, hv):
        for f1, f2 in pairs(hv.cols):
            plan = plan_double_failure_recovery(hv, f1, f2)
            assert len(plan.chains) == 4

    def test_covers_all_lost_elements(self, hv):
        for f1, f2 in pairs(hv.cols):
            plan = plan_double_failure_recovery(hv, f1, f2)
            recovered = {pos for chain in plan.recovery_order for pos in chain}
            expect = {(r, d) for d in (f1, f2) for r in range(hv.rows)}
            assert recovered == expect

    def test_no_element_recovered_twice(self, hv):
        for f1, f2 in pairs(hv.cols):
            plan = plan_double_failure_recovery(hv, f1, f2)
            flat = [pos for chain in plan.recovery_order for pos in chain]
            assert len(flat) == len(set(flat))

    def test_chains_alternate_parity_flavor(self, hv):
        for f1, f2 in pairs(hv.cols):
            plan = plan_double_failure_recovery(hv, f1, f2)
            for chain in plan.chains:
                kinds = [parity_chain.kind for _, parity_chain in chain]
                for a, b in zip(kinds, kinds[1:]):
                    assert a != b, "recovery must alternate H/V chains"

    def test_chains_alternate_failed_columns(self, hv):
        for f1, f2 in pairs(hv.cols):
            plan = plan_double_failure_recovery(hv, f1, f2)
            for chain in plan.chains:
                cols = [pos[1] for pos, _ in chain]
                for a, b in zip(cols, cols[1:]):
                    assert {a, b} == {f1, f2}

    def test_chain_ends_at_parity_element(self, hv):
        # Theorem 1: every recovery chain terminates at a parity
        # element (unless another chain already consumed its tail).
        for f1, f2 in pairs(hv.cols):
            plan = plan_double_failure_recovery(hv, f1, f2)
            total = sum(len(chain) for chain in plan.chains)
            ends = {chain[-1][0] for chain in plan.chains if chain}
            parity_ends = [pos for pos in ends if hv.layout[pos].is_parity]
            assert len(parity_ends) >= 2
            assert total == 2 * hv.rows


class TestExecution:
    def test_recovers_bytes_for_all_pairs(self, hv):
        stripe = hv.random_stripe(element_size=4, seed=31)
        for f1, f2 in pairs(hv.cols):
            broken = stripe.copy()
            broken.erase_disks([f1, f2])
            plan = plan_double_failure_recovery(hv, f1, f2)
            plan.execute(broken)
            assert broken == stripe, (f1, f2)

    def test_interleaved_execution_respects_dependencies(self, hv):
        # execute() runs chains round-robin; reading a still-erased
        # element would raise SimulationError, so success implies the
        # four chains are truly independent.
        stripe = hv.random_stripe(element_size=2, seed=32)
        plan = plan_double_failure_recovery(hv, 0, 1)
        broken = stripe.copy()
        broken.erase_disks([0, 1])
        plan.execute(broken)
        assert broken == stripe


def peel(code, f1, f2):
    """The symbolic peel of two lost disks, the reference Algorithm 1
    is held to."""
    schedule = peel_schedule(code.equations, code.disk_cells(f1) + code.disk_cells(f2))
    assert schedule.complete
    return schedule


class TestAgainstPeeling:
    def test_longest_chain_matches_peeling_rounds(self, hv):
        # The scheduler's round count and Algorithm 1's longest chain
        # are the same quantity (Lc), on every disk pair.
        for f1, f2 in pairs(hv.cols):
            plan = plan_double_failure_recovery(hv, f1, f2)
            schedule = peel(hv, f1, f2)
            assert plan.longest_chain == schedule.num_rounds

    def test_start_parallelism_at_least_four(self, hv):
        for f1, f2 in pairs(hv.cols):
            assert peel(hv, f1, f2).parallelism >= 4


class TestValidation:
    def test_same_disk_rejected(self):
        hv = HVCode(7)
        with pytest.raises(InvalidParameterError):
            plan_double_failure_recovery(hv, 2, 2)

    def test_out_of_range_rejected(self):
        hv = HVCode(7)
        with pytest.raises(InvalidParameterError):
            plan_double_failure_recovery(hv, 0, 6)

    def test_non_hv_rejected(self):
        with pytest.raises(InvalidParameterError):
            plan_double_failure_recovery(RDPCode(7), 0, 1)  # type: ignore[arg-type]

    def test_disk_order_normalized(self):
        hv = HVCode(7)
        a = plan_double_failure_recovery(hv, 4, 1)
        assert (a.f1, a.f2) == (1, 4)
