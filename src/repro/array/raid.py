"""The RAID-6 volume: a price sheet over the compiled plans.

``RAID6Volume`` is the layer the experiments drive.  It resolves the
paper's logical access patterns onto stripes and prices each stripe
segment by the compiled plans :class:`~repro.array.filestore.FileStore`
runs: a small write by its ``update`` plan (the parity chains it
dirties, Section IV.5), a lost cell by its ``read`` plan (the cheapest
chains that rebuild it, Section V.B).  What the store does not model —
rotated addressing, the set of failed disks, the per-disk
:class:`IOStats` ledger and the latency model — lives here; the price
itself is the plan's.

I/O accounting follows standard read-modify-write small writes: a data
write reads the old data and writes the new; every dirtied parity is
read and rewritten.  The paper's Fig. 6(a) "total induced writes"
counts the write half (data + parity writes); the service-time model
(Fig. 6(c)) charges both halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..engine.compile import compile_plan
from ..exceptions import InvalidParameterError, SimulationError
from .addressing import VolumeAddressing
from .iostats import IOStats
from .latency import LatencyModel

if TYPE_CHECKING:  # imported lazily to avoid a codes<->array cycle
    from ..codes.base import ArrayCode
    from ..engine.plan import XorPlan


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
    """A multi-stripe RAID-6 volume priced by the compiled plans."""

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
        self.stats = IOStats(code.cols)
        self._failed: set[int] = set()

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
        others = sorted(self._failed - {disk})
        if len(others) >= 2:
            raise SimulationError(
                f"disks {others} already failed; a third failure exceeds RAID-6"
            )
        self._failed.add(disk)

    def heal_disk(self, disk: int) -> None:
        self._check_disk(disk)
        self._failed.discard(disk)

    def failed_disks(self) -> list[int]:
        return sorted(self._failed)

    def _check_disk(self, disk: int) -> None:
        if not 0 <= disk < self.num_disks:
            raise InvalidParameterError(f"disk {disk} outside 0..{self.num_disks - 1}")

    # -- request plumbing ----------------------------------------------------------

    def _charge(self, pattern_io: IOStats, disk: int, reads: int, writes: int) -> None:
        if disk in self._failed:
            raise SimulationError(f"I/O charged to failed disk {disk}")
        if reads:
            pattern_io.record_read(disk, reads)
            self.stats.record_read(disk, reads)
        if writes:
            pattern_io.record_write(disk, writes)
            self.stats.record_write(disk, writes)

    def _pattern_seconds(self, pattern_io: IOStats) -> float:
        return max(
            self.latency.serve(pattern_io.requests_on(d))
            for d in range(self.num_disks)
        )

    def _column_of(self, stripe: int, disk: int) -> int:
        """The column of ``stripe`` that lives on physical ``disk``."""
        return next(
            c for c in range(self.code.cols) if self.addressing.disk_of(stripe, c) == disk
        )

    def _read_plan(
        self,
        column: int,
        wanted: tuple[int, ...],
        free: tuple[int, ...] = (),
        planner: str = "greedy",
    ) -> "XorPlan":
        """The compiled ``read`` plan of the lost slots ``wanted`` with
        ``column`` down and the readable slots ``free`` fetched anyway."""
        cols = self.code.cols
        column_slots = tuple(range(column, self.code.rows * cols, cols))
        return compile_plan(
            self.code, "read", (column_slots, wanted, free), planner=planner
        )

    # -- write patterns ---------------------------------------------------------------

    def write(self, start: int, length: int) -> PatternResult:
        """Execute a partial-stripe write of continuous data elements.

        Each stripe segment is priced by its compiled ``update`` plan:
        every written cell and every parity in ``plan.outputs`` is one
        read-modify-write.  With one failed disk the write runs
        degraded, as :class:`~repro.array.filestore.FileStore` runs it:
        a written cell on the failed disk becomes a reconstruct-write
        (its old value is priced by its one-cell ``read`` plan, the
        delta flows into surviving parity), and a parity on the failed
        disk is skipped — it is rebuilt when the disk is replaced.
        """
        failed = self.failed_disks()
        if len(failed) > 1:
            raise SimulationError("writes with two failed disks are out of scope")
        failed_disk = failed[0] if failed else None
        cols = self.code.cols
        locations = self.addressing.locate_range(start, length)
        pattern_io = IOStats(self.num_disks)
        data_writes = 0
        parity_writes = 0
        for stripe, locs in self.addressing.by_stripe(locations).items():
            plan = compile_plan(self.code, "update", [loc.position for loc in locs])
            failed_col = (
                None if failed_disk is None else self._column_of(stripe, failed_disk)
            )
            extra_reads: set[int] = set()
            for loc in locs:
                if loc.disk == failed_disk:
                    r, c = loc.position
                    extra_reads.update(self._read_plan(c, (r * cols + c,)).reads)
                else:
                    self._charge(pattern_io, loc.disk, reads=1, writes=1)
                    data_writes += 1
            # Cells this pattern writes are already read by their RMW;
            # don't charge the reconstruction for them twice.
            for slot in sorted(extra_reads.difference(plan.pattern)):
                disk = self.addressing.disk_of(stripe, slot % cols)
                self._charge(pattern_io, disk, reads=1, writes=0)
            for slot in sorted(plan.outputs):
                if slot % cols == failed_col:
                    continue  # lost parity is rebuilt later, not written
                disk = self.addressing.disk_of(stripe, slot % cols)
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
        if self._failed:
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

        Per stripe, the requested cells on the failed disk are the
        compiled ``read`` plan's wanted cells and the other requested
        cells its free ones: the fetch is the free cells plus the plan's
        reads, and its size is the paper's ``L'`` (``elements_returned``).
        """
        failed = self.failed_disks()
        if len(failed) != 1:
            raise SimulationError(
                f"degraded_read expects exactly one failed disk, have {failed}"
            )
        failed_disk = failed[0]
        cols = self.code.cols
        locations = self.addressing.locate_range(start, length)
        pattern_io = IOStats(self.num_disks)
        returned = 0
        for stripe, locs in self.addressing.by_stripe(locations).items():
            failed_col = self._column_of(stripe, failed_disk)
            requested = [r * cols + c for r, c in (loc.position for loc in locs)]
            wanted = tuple(s for s in requested if s % cols == failed_col)
            free = tuple(s for s in requested if s % cols != failed_col)
            fetched = set(free)
            if wanted:
                fetched.update(self._read_plan(failed_col, wanted, free, planner).reads)
            returned += len(fetched)
            for slot in sorted(fetched):
                disk = self.addressing.disk_of(stripe, slot % cols)
                self._charge(pattern_io, disk, reads=1, writes=0)
        return PatternResult(
            io=pattern_io,
            seconds=self._pattern_seconds(pattern_io),
            elements_returned=returned,
        )

    # -- bookkeeping -----------------------------------------------------------------

    def reset_stats(self) -> None:
        self.stats.reset()
