"""Single-disk rebuild simulation: Fig. 9(a) in the time domain.

The paper reports single-disk recovery as an I/O count; a deployed
array cares about the wall-clock rebuild window, which is gated by the
busiest surviving disk (reads) and by the spare (writes).  This module
turns a recovery plan's actual per-disk read distribution into a
rebuild time under the latency model, normalized so every code rebuilds
the same per-disk capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..array.latency import LatencyModel
from ..exceptions import InvalidParameterError
from ..utils import mean
from .single import plan_single_disk_recovery

if TYPE_CHECKING:
    from ..codes.base import ArrayCode


@dataclass
class RebuildResult:
    """Outcome of rebuilding one failed disk onto a spare.

    ``reads_per_disk`` counts element reads charged to each surviving
    disk across all stripes.  ``seconds`` is the *read-phase* time —
    the busiest surviving disk's service time.  The spare's write
    stream is sequential, layout-independent, and overlaps the read
    phase, so it is reported (``spare_writes``) but deliberately not
    folded into the differentiating metric.
    """

    code_name: str
    failed_disk: int
    stripes: int
    reads_per_disk: list[int]
    spare_writes: int
    seconds: float

    @property
    def total_reads(self) -> int:
        return sum(self.reads_per_disk)


def simulate_rebuild(
    code: "ArrayCode",
    failed_disk: int,
    per_disk_elements: int,
    latency: LatencyModel | None = None,
    method: str = "greedy",
) -> RebuildResult:
    """Rebuild ``failed_disk`` for a disk holding ``per_disk_elements``.

    The per-stripe recovery plan repeats across ``per_disk_elements /
    rows`` stripes (the capacity normalization that makes codes with
    different stripe heights comparable).
    """
    if per_disk_elements < code.rows:
        raise InvalidParameterError(
            f"disk capacity {per_disk_elements} below one stripe "
            f"({code.rows} elements)"
        )
    latency = latency or LatencyModel()
    stripes = per_disk_elements // code.rows
    plan = plan_single_disk_recovery(code, failed_disk, method=method)
    reads = [0] * code.cols
    for cell in plan.reads:
        reads[cell[1]] += stripes
    spare_writes = code.rows * stripes
    busiest_read = max(reads)
    seconds = latency.serve(busiest_read)
    return RebuildResult(
        code_name=code.name,
        failed_disk=failed_disk,
        stripes=stripes,
        reads_per_disk=reads,
        spare_writes=spare_writes,
        seconds=seconds,
    )


def expected_rebuild_seconds(
    code: "ArrayCode",
    per_disk_elements: int,
    latency: LatencyModel | None = None,
    method: str = "greedy",
) -> float:
    """Mean rebuild time over every choice of failed disk."""
    return mean(
        simulate_rebuild(code, d, per_disk_elements, latency, method).seconds
        for d in range(code.cols)
    )
