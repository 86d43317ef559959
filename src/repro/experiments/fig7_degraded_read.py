"""Fig. 7: degraded-read efficiency (paper Section V.B).

With one disk corrupted, the paper issues 100 read patterns of length
``L ∈ {1, 5, 10, 15}`` at uniform starts, measures the average pattern
completion time (Fig. 7(a)) and the I/O efficiency ``L'/L`` —
elements actually fetched over elements requested — (Fig. 7(b)), then
takes the expectation over every choice of failed disk.

Each pattern is priced by :meth:`RAID6Volume.degraded_read`, i.e. by
the compiled ``read`` plan of every stripe segment it touches — the
plan a degraded :class:`~repro.array.filestore.FileStore` runs.  A
segment's plan depends only on (failed column, wanted cells, free
cells), so :data:`~repro.engine.compile.PLAN_CACHE` memoizes the
``codes x disks x lengths x patterns`` sweep.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ..array.latency import LatencyModel
from ..array.raid import RAID6Volume
from ..codes.base import ArrayCode
from ..codes.registry import evaluated_codes
from ..utils import mean
from ..workloads.degraded import uniform_read_patterns
from .runner import ExperimentResult

#: Default logical volume size (in data elements) for Fig. 7 runs.
DEFAULT_VOLUME_ELEMENTS = 600


def run(
    p: int = 13,
    lengths: Sequence[int] = (1, 5, 10, 15),
    num_patterns: int = 100,
    volume_elements: int = DEFAULT_VOLUME_ELEMENTS,
    seed: int = 0,
    planner: str = "auto",
    codes: Sequence[ArrayCode] | None = None,
    latency: LatencyModel | None = None,
) -> list[ExperimentResult]:
    """Run the full Fig. 7 experiment; returns results for 7(a/b)."""
    codes = list(codes) if codes is not None else evaluated_codes(p)
    latency = latency or LatencyModel()
    patterns_by_length = {
        length: uniform_read_patterns(
            length, volume_elements, num_patterns, seed=seed + length
        )
        for length in lengths
    }

    time_rows: list[list[object]] = []
    eff_rows: list[list[object]] = []
    # The volume must cover every pattern; stripes beyond that do not
    # change per-pattern results.
    needed = max(pat.end for pats in patterns_by_length.values() for pat in pats)
    for code in codes:
        volume = RAID6Volume(
            code,
            num_stripes=math.ceil(needed / code.data_elements_per_stripe),
            latency=latency,
        )
        seconds: dict[int, list[float]] = {length: [] for length in lengths}
        ratios: dict[int, list[float]] = {length: [] for length in lengths}
        for failed_disk in range(code.cols):
            volume.fail_disk(failed_disk)
            for length in lengths:
                for pattern in patterns_by_length[length]:
                    result = volume.degraded_read(pattern.start, pattern.length, planner)
                    seconds[length].append(result.seconds)
                    ratios[length].append(result.elements_returned / pattern.length)
            volume.heal_disk(failed_disk)
        time_rows.append([code.name] + [mean(seconds[length]) for length in lengths])
        eff_rows.append([code.name] + [mean(ratios[length]) for length in lengths])

    params = {
        "p": p,
        "num_patterns": num_patterns,
        "volume_elements": volume_elements,
        "seed": seed,
        "planner": planner,
    }
    headers = ["code"] + [f"L={length}" for length in lengths]
    return [
        ExperimentResult(
            experiment="fig7a",
            title="Fig. 7(a) — average time per degraded read pattern (s, simulated)",
            parameters=params,
            headers=headers,
            rows=time_rows,
            notes="expectation over every failed disk; lower is better",
        ),
        ExperimentResult(
            experiment="fig7b",
            title="Fig. 7(b) — degraded read I/O efficiency L'/L",
            parameters=params,
            headers=headers,
            rows=eff_rows,
            notes="elements fetched over elements requested; 1.0 is ideal",
        ),
    ]
