"""Tests for degraded-mode writes on the volume simulator."""

import pytest

from repro import HVCode, RDPCode
from repro.array.raid import RAID6Volume
from repro.exceptions import SimulationError


@pytest.fixture
def volume():
    return RAID6Volume(HVCode(7), num_stripes=3)


class TestDegradedWrites:
    def test_healthy_write_unchanged(self, volume):
        result = volume.write(0, 1)
        assert result.data_writes == 1
        assert result.parity_writes == 2

    def test_lost_element_write_is_reconstruct_write(self, volume):
        code = HVCode(7)
        lost_cell = code.data_positions[0]
        volume.fail_disk(lost_cell[1])
        # Write exactly that element.
        result = volume.write(0, 1)
        # Nothing lands on the failed disk...
        failed = lost_cell[1]
        assert result.io.writes[failed] == 0
        assert result.io.reads[failed] == 0
        # ...its data write disappears, the surviving parities update,
        # and the old value's reconstruction costs chain reads.
        assert result.data_writes == 0
        assert result.parity_writes >= 1
        assert result.io.total_reads > 2

    def test_surviving_elements_still_written(self, volume):
        code = HVCode(7)
        failed = code.data_positions[0][1]
        volume.fail_disk(failed)
        result = volume.write(0, 6)
        assert result.data_writes >= 4
        assert result.io.writes[failed] == 0

    def test_lost_parity_skipped(self):
        # Fail RDP's row-parity disk: writes proceed, only the
        # diagonal parity updates.
        code = RDPCode(5)
        volume = RAID6Volume(code, num_stripes=2)
        row_parity_disk = code.p - 1
        volume.fail_disk(row_parity_disk)
        result = volume.write(0, 2)
        assert result.data_writes == 2
        assert result.io.writes[row_parity_disk] == 0
        assert result.parity_writes >= 1

    def test_two_failures_rejected_for_writes(self, volume):
        # The simulator models single-degraded writes only; a second
        # failure is legal for the volume, only a write under it is not.
        volume.fail_disk(0)
        volume.fail_disk(1)
        with pytest.raises(SimulationError):
            volume.write(0, 1)

    def test_degraded_write_charges_reconstruction_reads(self):
        code = HVCode(7)
        healthy = RAID6Volume(code, num_stripes=3)
        degraded = RAID6Volume(code, num_stripes=3)
        degraded.fail_disk(code.data_positions[2][1])
        h = healthy.write(0, 12)
        d = degraded.write(0, 12)
        # Lost elements stop being written (and RMW-read)...
        assert d.data_writes < h.data_writes
        # ...but rebuilding their old values adds reads beyond the
        # pattern's own RMW reads of cells it writes anyway.
        rmw_reads = d.data_writes + d.parity_writes
        assert d.io.total_reads > rmw_reads
