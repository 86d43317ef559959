"""Tests for the single-disk rebuild window (``repro rebuild``)."""

import pytest

from repro import HVCode, RDPCode
from repro.array.latency import LatencyModel
from repro.exceptions import InvalidParameterError
from repro.experiments.rebuild_time import expected_rebuild_seconds
from repro.recovery.cost import repair_cost
from repro.recovery.single import degraded_read_choices
from repro.utils import mean


class TestSimulation:
    def test_reads_match_plan(self):
        code = HVCode(7)
        column = [(r, 0) for r in range(code.rows)]
        choices = degraded_read_choices(code, column, (), method="greedy")
        reads = set().union(*(ch.equation_cells - {cell} for cell, ch in choices.items()))
        cost = repair_cost(code, (0,))
        assert cost.reads == len(reads)
        assert cost.reads_per_disk[0] == 0  # failed disk reads nothing

    def test_spare_writes_cover_capacity(self):
        # The spare receives every lost element of every stripe.
        code = HVCode(7)
        assert repair_cost(code, (1,)).lost == code.rows

    def test_seconds_equal_busiest_reader(self):
        code = HVCode(7)
        latency = LatencyModel()
        busiest = [max(repair_cost(code, (d,)).reads_per_disk) for d in range(code.cols)]
        assert expected_rebuild_seconds(code, code.rows * 5, latency) == pytest.approx(
            mean(latency.serve(reads * 5) for reads in busiest)
        )

    def test_time_linear_in_capacity(self):
        code = HVCode(7)
        small = expected_rebuild_seconds(code, code.rows * 2)
        large = expected_rebuild_seconds(code, code.rows * 20)
        assert large == pytest.approx(10 * small)

    def test_capacity_below_stripe_rejected(self):
        code = HVCode(7)
        with pytest.raises(InvalidParameterError):
            expected_rebuild_seconds(code, per_disk_elements=code.rows - 1)


class TestExpectation:
    def test_hv_rebuilds_faster_than_rdp(self):
        for p in (7, 13):
            hv = expected_rebuild_seconds(HVCode(p), 1200)
            rdp = expected_rebuild_seconds(RDPCode(p), 1200)
            assert hv < rdp

    def test_deterministic(self):
        a = expected_rebuild_seconds(HVCode(7), 600)
        b = expected_rebuild_seconds(HVCode(7), 600)
        assert a == b
