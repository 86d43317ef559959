"""Stripe-by-stripe hot-spare rebuilds that survive injected faults.

:meth:`FileStore.rebuild` is the clean-room rebuild: Fig. 9's
``recover-single`` plan stripe by stripe, the column written back only
once it matches its checksums.  A real array rebuilds onto a hot spare
while the workload — and the fault process — keeps running.  The
:class:`RebuildOrchestrator` models that:

- stripes are rebuilt one at a time through the greedy minimal-I/O
  recovery planner (Fig. 9(a)'s hybrid chains), falling back to the
  self-healing ladder when a planned read hits a latent sector error
  or when a *second* disk crashes mid-rebuild;
- progress is checkpointed every ``checkpoint_every`` stripes, so a
  rebuild interrupted by an :class:`UnrecoverableFaultError` can
  :meth:`resume` without redoing finished stripes;
- every restored element is verified against its CRC32 sidecar before
  it is committed to the spare;
- the outcome is a structured, deterministic :class:`RebuildReport`
  with repaired-element counts, retries, escalations, and simulated
  seconds under the latency model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..array.latency import LatencyModel
from ..exceptions import (
    ChecksumMismatchError,
    DecodeError,
    InvalidParameterError,
    UnrecoverableFaultError,
)
from ..recovery.single import plan_single_disk_recovery
from .checksum import crc_of
from .healing import HealingStats, decode_resilient

if TYPE_CHECKING:
    from ..array.filestore import FileStore

Position = tuple[int, int]


@dataclass
class RebuildReport:
    """Structured outcome of one orchestrated rebuild.

    ``elements_repaired`` counts cells written back to the spare;
    ``chain_reads`` is the planned minimal-I/O read traffic,
    ``escalation_reads`` the extra traffic of full decodes.
    ``seconds`` prices reads across surviving disks in parallel, the
    spare's writes serially, plus any injector backoff.
    """

    code_name: str
    disk: int
    stripes_total: int
    stripes_done: int = 0
    elements_repaired: int = 0
    chain_reads: int = 0
    escalations: int = 0
    escalation_reads: int = 0
    latent_hits: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    seconds: float = 0.0
    checkpoints: list[int] = field(default_factory=list)
    completed: bool = False

    @property
    def total_reads(self) -> int:
        return self.chain_reads + self.escalation_reads

    def to_dict(self) -> dict:
        return {
            "code": self.code_name,
            "disk": self.disk,
            "stripes_total": self.stripes_total,
            "stripes_done": self.stripes_done,
            "elements_repaired": self.elements_repaired,
            "chain_reads": self.chain_reads,
            "escalations": self.escalations,
            "escalation_reads": self.escalation_reads,
            "latent_hits": self.latent_hits,
            "retries": self.retries,
            "backoff_seconds": round(self.backoff_seconds, 6),
            "seconds": round(self.seconds, 6),
            "checkpoints": list(self.checkpoints),
            "completed": self.completed,
        }


class RebuildOrchestrator:
    """Drives a hot-spare rebuild of one failed disk, fault-tolerantly."""

    def __init__(
        self,
        store: "FileStore",
        latency: LatencyModel | None = None,
        checkpoint_every: int = 8,
    ) -> None:
        if checkpoint_every <= 0:
            raise InvalidParameterError("checkpoint_every must be positive")
        self.store = store
        self.latency = latency or LatencyModel()
        self.checkpoint_every = checkpoint_every
        self.checkpoint: int | None = None
        self._report: RebuildReport | None = None

    # -- public API --------------------------------------------------------------

    def rebuild(self, disk: int) -> RebuildReport:
        """Rebuild ``disk`` from stripe 0; returns the report."""
        if disk not in self.store.failed_disks:
            raise InvalidParameterError(f"disk {disk} is not failed")
        self._report = RebuildReport(
            code_name=self.store.code.name,
            disk=disk,
            stripes_total=len(self.store.stripes),
        )
        self.checkpoint = 0
        return self._run(disk)

    def resume(self, disk: int) -> RebuildReport:
        """Continue an interrupted rebuild from the last checkpoint."""
        if self._report is None or self.checkpoint is None:
            raise InvalidParameterError("no interrupted rebuild to resume")
        if self._report.disk != disk:
            raise InvalidParameterError(
                f"checkpointed rebuild is for disk {self._report.disk}, not {disk}"
            )
        return self._run(disk)

    # -- the stripe loop -----------------------------------------------------------

    def _run(self, disk: int) -> RebuildReport:
        report = self._report
        assert report is not None and self.checkpoint is not None
        start = self.checkpoint
        for stripe_idx in range(start, len(self.store.stripes)):
            try:
                self._rebuild_stripe(stripe_idx, disk, report)
            except UnrecoverableFaultError:
                # Leave the checkpoint at the first unfinished stripe so
                # resume() retries it (e.g. after an operator scrub).
                self.checkpoint = stripe_idx
                self._finalize_time(report)
                raise
            report.stripes_done += 1
            if (stripe_idx + 1) % self.checkpoint_every == 0:
                report.checkpoints.append(stripe_idx + 1)
            self.checkpoint = stripe_idx + 1
        # All stripes restored: the disk rejoins the array.  A second
        # disk may have crashed mid-rebuild; it stays failed.
        self.store.failed_disks.discard(disk)
        report.completed = True
        self.checkpoint = None
        self._finalize_time(report)
        return report

    def _rebuild_stripe(
        self, stripe_idx: int, disk: int, report: RebuildReport
    ) -> None:
        code = self.store.code
        stripe = self.store.stripes[stripe_idx]
        lost = [(r, disk) for r in range(code.rows)]
        # Tick the injector clock: the fault process keeps running while
        # we rebuild, so a scheduled second crash or URE can land here.
        for cell in lost:
            self.store._element_io(stripe_idx, cell, "write")
        # Mid-rebuild crashes may have taken a second column down; the
        # cheap planner only handles the single-disk pattern.
        other_failures = self.store.failed_disks - {disk}
        unreadable = frozenset(stripe.latent_positions())
        restored: dict[Position, object] = {}
        if not other_failures:
            try:
                plan = plan_single_disk_recovery(
                    code, disk, method="greedy", unreadable=unreadable
                )
                if unreadable:
                    report.latent_hits += len(unreadable)
                for cell, chain in plan.choices.items():
                    others = [c for c in chain.equation_cells if c != cell]
                    restored[cell] = stripe.xor_of(others)
                report.chain_reads += plan.total_reads
            except DecodeError:
                restored = {}  # every chain of some cell is poisoned
        if not restored:
            # Escalate: the full decoder absorbs second crashes and
            # latent cells together (one-disk-plus-one-sector and the
            # genuine double-erasure cases).
            stats = HealingStats()
            work = decode_resilient(
                code, stripe, stats, engine=self.store.engine
            )
            if unreadable:
                report.latent_hits += len(unreadable)
            restored = {cell: work.get(cell) for cell in lost}
            report.escalations += 1
            report.escalation_reads += stats.reads
        for cell in lost:
            buf = restored[cell]
            if crc_of(buf) != self.store.sidecar.expected(stripe_idx, cell):
                raise ChecksumMismatchError(
                    f"rebuild of disk {disk}: stripe {stripe_idx} element "
                    f"{cell} fails its checksum — scrub, then resume"
                )
            stripe.set(cell, buf)
            report.elements_repaired += 1
        # Repairing through chains re-read latent cells' neighbours;
        # the latent cells themselves are healed by rewriting.
        for pos in stripe.latent_positions():
            if code.can_recover({pos} | set(stripe.erased_positions())):
                stats = HealingStats()
                work = decode_resilient(
                    code, stripe, stats, engine=self.store.engine
                )
                stripe.set(pos, work.get(pos))
                report.escalation_reads += stats.reads
                report.elements_repaired += 1

    # -- time model ---------------------------------------------------------------

    def _finalize_time(self, report: RebuildReport) -> None:
        """Price the rebuild: parallel survivor reads, serial writes."""
        code = self.store.code
        survivors = max(code.cols - 1 - len(self.store.failed_disks), 1)
        read_seconds = self.latency.serve(
            -(-report.total_reads // survivors)  # ceil-divide across disks
        )
        write_seconds = self.latency.serve(report.elements_repaired)
        injector = self.store.injector
        report.retries = injector.retries if injector is not None else 0
        report.backoff_seconds = (
            injector.backoff_seconds if injector is not None else 0.0
        )
        # Reads and the spare's writes overlap; the slower stream gates.
        report.seconds = max(read_seconds, write_seconds) + report.backoff_seconds
