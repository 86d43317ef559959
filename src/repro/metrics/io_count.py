"""I/O aggregation over executed pattern results."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..array.raid import PatternResult


def total_induced_writes(results: Iterable["PatternResult"]) -> int:
    """Fig. 6(a): all element writes (data + parity) a trace caused."""
    return sum(r.induced_writes for r in results)


def total_reads(results: Iterable["PatternResult"]) -> int:
    """All element reads across pattern results."""
    return sum(r.io.total_reads for r in results)


def writes_per_disk(results: Sequence["PatternResult"], num_disks: int) -> list[int]:
    """Per-disk write counts over a trace (the λ input for Fig. 6(b))."""
    counts = [0] * num_disks
    for r in results:
        for d in range(num_disks):
            counts[d] += r.io.writes[d]
    return counts
