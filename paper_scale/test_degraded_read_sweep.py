"""Fig. 7's exact planner on every one-disk read of a small volume.

The tier-1 sweep in ``tests/test_array/test_degraded_pricing.py`` runs
the greedy planner; this one runs the integer program, which is slower,
over the same requests: every read of 1..15 elements starting at
element 0..19 of a two-stripe volume, each disk failed in turn, on
every implemented code at p=5.  No plan may cross an unrequested cell
of the failed column.
"""

import pytest

from repro.array.raid import RAID6Volume
from repro.codes.registry import available_codes, get_code
from tests.test_array.test_degraded_pricing import one_disk_reads


@pytest.mark.parametrize("name", available_codes())
def test_milp_one_disk_reads_plan_around_the_whole_failed_column(name):
    code = get_code(name, 5)
    for disk in range(code.cols):
        volume = RAID6Volume(code, num_stripes=2)
        volume.fail_disk(disk)
        for start, length in one_disk_reads(code):
            volume.degraded_read(start, length, planner="milp")
