"""Stripe-by-stripe hot-spare rebuilds that survive injected faults.

A real array rebuilds onto a hot spare while the workload — and the
fault process — keeps running.  The :class:`RebuildOrchestrator`
models that around the store's own per-stripe repair
(:meth:`FileStore._rebuild_stripe`, which :meth:`FileStore.rebuild`
loops): the same compiled ``read`` plan, rung-3 fallback and CRC32
gate restore each stripe whichever driver runs it.  The orchestrator
adds only:

- the injector's clock, ticked once per column cell before each
  stripe, so scheduled faults — a second crash, a URE — land
  mid-rebuild;
- checkpoints every ``checkpoint_every`` stripes, so a rebuild
  interrupted by an :class:`UnrecoverableFaultError` can
  :meth:`resume` without redoing finished stripes;
- a structured, deterministic :class:`RebuildReport`, filled from what
  each stripe's repair returns — its charge to the store's
  :class:`~repro.faults.healing.HealingStats`, as the checksum scrub
  reads it too — with simulated seconds under the latency model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..array.latency import LatencyModel
from ..exceptions import InvalidParameterError, UnrecoverableFaultError

if TYPE_CHECKING:
    from ..array.filestore import FileStore


@dataclass
class RebuildReport:
    """Structured outcome of one orchestrated rebuild.

    ``elements_repaired`` counts cells written back: the column's rows
    plus the latent cells healed on the way (``latent_hits``);
    ``chain_reads`` are the reads of stripes a compiled plan restored,
    ``escalations`` and ``escalation_reads`` the stripes that needed a
    full decode and theirs.
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
        plans: dict = {}
        for stripe_idx in range(start, len(self.store.stripes)):
            try:
                self._rebuild_stripe(stripe_idx, disk, report, plans)
            except UnrecoverableFaultError:
                # Leave the checkpoint at the first unfinished stripe so
                # resume() retries it (e.g. after an operator scrub).
                self.checkpoint = stripe_idx
                self._finalize_time(report, disk)
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
        self._finalize_time(report, disk)
        return report

    def _rebuild_stripe(
        self,
        stripe_idx: int,
        disk: int,
        report: RebuildReport,
        plans: dict,
    ) -> None:
        """One stripe through :meth:`FileStore._rebuild_stripe`, with
        the injector's clock ticked first and the report charged the
        reads the routine returns."""
        store = self.store
        rows = store.code.rows
        # Tick the injector clock: the fault process keeps running while
        # we rebuild, so a scheduled second crash or URE can land here.
        for r in range(rows):
            store._element_io(stripe_idx, (r, disk), "write")
        latent = len(store.stripes[stripe_idx].latent_positions())
        with store._exclusive("rebuild"):
            reads, escalated = store._rebuild_stripe(stripe_idx, disk, plans)
        if escalated:
            report.escalations += 1
            report.escalation_reads += reads
        else:
            report.chain_reads += reads
        report.latent_hits += latent
        report.elements_repaired += rows + latent

    # -- time model ---------------------------------------------------------------

    def _finalize_time(self, report: RebuildReport, disk: int) -> None:
        """Price the rebuild: parallel survivor reads, serial writes."""
        # ``disk`` is still in ``failed_disks`` when a stripe raised.
        survivors = max(self.store.code.cols - len(self.store.failed_disks | {disk}), 1)
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
