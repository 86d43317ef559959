"""Extension experiment: single-disk rebuild wall-clock time.

Fig. 9(a) compares recovery I/O; operators live by the rebuild
*window*.  This experiment rebuilds a fixed per-disk capacity under
the latency model for each evaluated code and prime: the compiled
single-disk recovery plan repeats over ``per_disk_elements / rows``
stripes (the capacity normalization that makes codes with different
stripe heights comparable), and the busiest surviving disk's reads
gate the window.  The spare's sequential write stream overlaps the
read phase and is layout-independent, so it is not part of the
metric.  Expected shape: the Fig. 9(a) ordering carries over — HV's
shorter chains read less from the busiest surviving disk.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..array.latency import LatencyModel
from ..codes.base import ArrayCode
from ..codes.registry import EVALUATED_CODE_NAMES, get_code
from ..exceptions import InvalidParameterError
from ..recovery.cost import repair_cost
from ..utils import mean
from .runner import ExperimentResult

#: Default per-disk capacity in elements (≈ 19200 x 16 MB = 300 GB,
#: the paper's Savvio disks) scaled down 16x to keep runs instant —
#: rebuild time is linear in it, so ratios are unaffected.
DEFAULT_PER_DISK_ELEMENTS = 1200


def expected_rebuild_seconds(
    code: ArrayCode,
    per_disk_elements: int,
    latency: LatencyModel | None = None,
    method: str = "greedy",
) -> float:
    """Read-phase rebuild time of a disk holding ``per_disk_elements``,
    averaged over every choice of failed disk."""
    if per_disk_elements < code.rows:
        raise InvalidParameterError(
            f"disk capacity {per_disk_elements} below one stripe "
            f"({code.rows} elements)"
        )
    latency = latency or LatencyModel()
    stripes = per_disk_elements // code.rows
    return mean(
        latency.serve(max(repair_cost(code, (d,), method).reads_per_disk) * stripes)
        for d in range(code.cols)
    )


def run(
    primes: Sequence[int] = (5, 7, 11, 13),
    per_disk_elements: int = DEFAULT_PER_DISK_ELEMENTS,
    latency: LatencyModel | None = None,
    method: str = "greedy",
) -> ExperimentResult:
    """Rebuild-time table across codes and primes."""
    latency = latency or LatencyModel()
    rows: list[list[object]] = []
    for name in EVALUATED_CODE_NAMES:
        row: list[object] = [name]
        for p in primes:
            code = get_code(name, p)
            row.append(
                expected_rebuild_seconds(
                    code, per_disk_elements, latency, method=method
                )
            )
        rows.append(row)
    return ExperimentResult(
        experiment="rebuild",
        title="Extension — single-disk rebuild time (s, simulated)",
        parameters={
            "primes": tuple(primes),
            "per_disk_elements": per_disk_elements,
            "method": method,
        },
        headers=["code"] + [f"p={p}" for p in primes],
        rows=rows,
        notes=(
            "read-phase bottleneck: busiest surviving disk's service "
            "time at fixed per-disk capacity (the spare's sequential "
            "write stream overlaps and is layout-independent)"
        ),
    )
