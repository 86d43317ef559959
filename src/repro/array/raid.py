"""The RAID-6 volume: code + disks + addressing, executing patterns.

``RAID6Volume`` is the layer the experiments drive.  It resolves the
paper's logical access patterns onto stripes, derives the induced
parity I/O from the code's chain structure, charges every element
request to a simulated disk, and reports per-pattern results (I/O
ledger, induced writes, service time, degraded-read ``L'``).

I/O accounting follows standard read-modify-write small writes: a data
write reads the old data and writes the new; every dirtied parity is
read and rewritten.  The paper's Fig. 6(a) "total induced writes"
counts the write half (data + parity writes); the service-time model
(Fig. 6(c)) charges both halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exceptions import (
    InvalidParameterError,
    SimulationError,
    TransientIOError,
)
from ..recovery.single import plan_degraded_read
from .addressing import VolumeAddressing
from .disk import SimulatedDisk
from .iostats import IOStats
from .latency import LatencyModel

if TYPE_CHECKING:  # imported lazily to avoid a codes<->array cycle
    from ..codes.base import ArrayCode


@dataclass
class PatternResult:
    """Outcome of executing one access pattern.

    Attributes
    ----------
    io:
        Element requests per disk for this pattern alone.
    seconds:
        Simulated completion time: disks serve their queues serially
        and in parallel with each other, so this is the max per-disk
        service time.
    data_writes / parity_writes:
        Element writes, split by target kind (write patterns only).
    elements_returned:
        The degraded-read ``L'`` (read patterns only).
    """

    io: IOStats
    seconds: float
    data_writes: int = 0
    parity_writes: int = 0
    elements_returned: int = 0

    @property
    def induced_writes(self) -> int:
        """Fig. 6(a)'s metric: all element writes the pattern caused."""
        return self.data_writes + self.parity_writes


class RAID6Volume:
    """A multi-stripe RAID-6 volume over simulated disks."""

    #: Bounded retry budget for transient disk errors per request.
    MAX_TRANSIENT_RETRIES = 3

    def __init__(
        self,
        code: "ArrayCode",
        num_stripes: int = 16,
        latency: LatencyModel | None = None,
        rotate_stripes: bool = False,
    ) -> None:
        self.code = code
        self.latency = latency or LatencyModel()
        self.addressing = VolumeAddressing(code, num_stripes, rotate_stripes)
        self.disks = [
            SimulatedDisk(d, latency=self.latency) for d in range(code.cols)
        ]
        self.stats = IOStats(code.cols)
        self.transient_retries = 0

    # -- disk state ------------------------------------------------------------

    @property
    def num_disks(self) -> int:
        return self.code.cols

    def fail_disk(self, disk: int) -> None:
        """Take a disk down; RAID-6 tolerates up to two concurrently.

        A third concurrent failure exceeds the code and is rejected.
        Write and degraded-read paths keep their own (stricter) guards;
        recovery experiments may drive a doubly-failed volume.
        """
        self._check_disk(disk)
        others = [d.disk_id for d in self.disks if d.failed and d.disk_id != disk]
        if len(others) >= 2:
            raise SimulationError(
                f"disks {others} already failed; a third failure exceeds RAID-6"
            )
        self.disks[disk].fail()

    def heal_disk(self, disk: int) -> None:
        self._check_disk(disk)
        self.disks[disk].heal()

    def failed_disks(self) -> list[int]:
        return [d.disk_id for d in self.disks if d.failed]

    def _check_disk(self, disk: int) -> None:
        if not 0 <= disk < self.num_disks:
            raise InvalidParameterError(f"disk {disk} outside 0..{self.num_disks - 1}")

    # -- request plumbing ----------------------------------------------------------

    def _serve(self, disk: int, kind: str, count: int) -> None:
        """One disk request with a bounded transient-retry loop.

        Each retry is charged as an extra request on the disk's ledger
        (the bus really did carry the command); when the budget runs
        out the :class:`TransientIOError` propagates to the caller.
        """
        op = self.disks[disk].read if kind == "read" else self.disks[disk].write
        for attempt in range(self.MAX_TRANSIENT_RETRIES + 1):
            try:
                op(count)
                return
            except TransientIOError:
                self.transient_retries += 1
                if attempt == self.MAX_TRANSIENT_RETRIES:
                    raise

    def _charge(self, pattern_io: IOStats, disk: int, reads: int, writes: int) -> None:
        if reads:
            self._serve(disk, "read", reads)
            pattern_io.record_read(disk, reads)
            self.stats.record_read(disk, reads)
        if writes:
            self._serve(disk, "write", writes)
            pattern_io.record_write(disk, writes)
            self.stats.record_write(disk, writes)

    def _pattern_seconds(self, pattern_io: IOStats) -> float:
        return max(
            self.latency.serve(pattern_io.requests_on(d))
            for d in range(self.num_disks)
        )

    # -- write patterns ---------------------------------------------------------------

    def write(self, start: int, length: int) -> PatternResult:
        """Execute a partial-stripe write of continuous data elements.

        With one failed disk the write runs degraded: elements on the
        failed disk become reconstruct-writes (their old value is
        rebuilt from one surviving chain so the surviving parities can
        absorb the delta), and parity cells on the failed disk are
        skipped — they are rebuilt when the disk is replaced.
        """
        failed = self.failed_disks()
        if len(failed) > 1:
            raise SimulationError("writes with two failed disks are out of scope")
        failed_disk = failed[0] if failed else None
        locations = self.addressing.locate_range(start, length)
        pattern_io = IOStats(self.num_disks)
        data_writes = 0
        parity_writes = 0
        for stripe, locs in self.addressing.by_stripe(locations).items():
            failed_col = None
            if failed_disk is not None:
                failed_col = next(
                    c
                    for c in range(self.code.cols)
                    if self.addressing.disk_of(stripe, c) == failed_disk
                )
            cells = [loc.position for loc in locs]
            written_here = set(cells)
            extra_read_cells: set = set()
            for loc in locs:
                if loc.disk == failed_disk:
                    # Reconstruct-write: rebuild the old value through
                    # one surviving chain; no write lands on the lost
                    # disk, the delta flows into surviving parity.
                    plan = plan_degraded_read(
                        self.code, failed_col, [loc.position], method="greedy"
                    )
                    extra_read_cells |= set(plan.fetched)
                else:
                    self._charge(pattern_io, loc.disk, reads=1, writes=1)
                    data_writes += 1
            # Cells this pattern writes are already read by their RMW;
            # don't charge the reconstruction for them twice.
            extra_read_cells -= written_here
            for cell in sorted(extra_read_cells):
                disk = self.addressing.disk_of(stripe, cell[1])
                self._charge(pattern_io, disk, reads=1, writes=0)
            for parity_pos in sorted(self.code.write_targets(cells)):
                if failed_col is not None and parity_pos[1] == failed_col:
                    continue  # lost parity is rebuilt later, not written
                disk = self.addressing.disk_of(stripe, parity_pos[1])
                self._charge(pattern_io, disk, reads=1, writes=1)
                parity_writes += 1
        return PatternResult(
            io=pattern_io,
            seconds=self._pattern_seconds(pattern_io),
            data_writes=data_writes,
            parity_writes=parity_writes,
        )

    def replay_write_trace(self, trace) -> list[PatternResult]:
        """Execute every pattern of a write trace, honoring frequency."""
        results = []
        for pattern in trace:
            for _ in range(pattern.frequency):
                results.append(self.write(pattern.start, pattern.length))
        return results

    # -- read patterns -----------------------------------------------------------------

    def read(self, start: int, length: int) -> PatternResult:
        """A healthy read of continuous data elements."""
        if self.failed_disks():
            return self.degraded_read(start, length)
        locations = self.addressing.locate_range(start, length)
        pattern_io = IOStats(self.num_disks)
        for loc in locations:
            self._charge(pattern_io, loc.disk, reads=1, writes=0)
        return PatternResult(
            io=pattern_io,
            seconds=self._pattern_seconds(pattern_io),
            elements_returned=length,
        )

    def degraded_read(
        self, start: int, length: int, planner: str = "milp"
    ) -> PatternResult:
        """A read while one disk is down (paper Section V.B).

        Lost requested elements are rebuilt from their cheapest parity
        chains; already-requested surviving elements are reused for
        free.  ``elements_returned`` is the paper's ``L'``.
        """
        failed = self.failed_disks()
        if len(failed) != 1:
            raise SimulationError(
                f"degraded_read expects exactly one failed disk, have {failed}"
            )
        failed_disk = failed[0]
        locations = self.addressing.locate_range(start, length)
        pattern_io = IOStats(self.num_disks)
        returned = 0
        for stripe, locs in self.addressing.by_stripe(locations).items():
            # Column that maps to the failed physical disk in this stripe.
            failed_col = next(
                c for c in range(self.code.cols)
                if self.addressing.disk_of(stripe, c) == failed_disk
            )
            requested = [loc.position for loc in locs]
            plan = plan_degraded_read(
                self.code, failed_col, requested, method=planner
            )
            returned += plan.elements_returned
            for cell in sorted(plan.fetched):
                disk = self.addressing.disk_of(stripe, cell[1])
                self._charge(pattern_io, disk, reads=1, writes=0)
        return PatternResult(
            io=pattern_io,
            seconds=self._pattern_seconds(pattern_io),
            elements_returned=returned,
        )

    # -- bookkeeping -----------------------------------------------------------------

    def reset_stats(self) -> None:
        self.stats.reset()
        for disk in self.disks:
            disk.reset_counters()
