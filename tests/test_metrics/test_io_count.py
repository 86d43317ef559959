"""Tests for I/O aggregation metrics."""

from repro import HVCode
from repro.array.raid import RAID6Volume
from repro.metrics.io_count import (
    total_induced_writes,
    total_reads,
    writes_per_disk,
)


def run_small_trace():
    volume = RAID6Volume(HVCode(7), num_stripes=2)
    results = [volume.write(0, 3), volume.write(10, 2)]
    return volume, results


class TestAggregation:
    def test_total_induced_writes_matches_parts(self):
        _, results = run_small_trace()
        expect = sum(r.data_writes + r.parity_writes for r in results)
        assert total_induced_writes(results) == expect

    def test_total_reads(self):
        _, results = run_small_trace()
        assert total_reads(results) == sum(r.io.total_reads for r in results)

    def test_writes_per_disk_sums(self):
        volume, results = run_small_trace()
        per_disk = writes_per_disk(results, volume.num_disks)
        assert sum(per_disk) == total_induced_writes(results)
        assert per_disk == volume.stats.writes

    def test_empty_results(self):
        assert total_induced_writes([]) == 0
        assert total_reads([]) == 0
        assert writes_per_disk([], 4) == [0, 0, 0, 0]
