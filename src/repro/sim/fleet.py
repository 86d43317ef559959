"""The discrete-event fleet simulator.

One :class:`FleetSimulator` runs a fleet of independent RAID-6 arrays
of a single code over a simulated horizon, firing disk failures,
latent-sector-error arrivals, periodic scrubs, spare replenishments,
and repair completions from one deterministic event queue.

What makes this a *code* simulator rather than a generic RAID model is
the repair clock: rebuild durations are not a constant but come from
the code's own measured recovery behaviour
(:class:`CodeRepairProfile`) — the per-element read count of the
compiled single-disk recovery plan (Fig. 9(a)) and the chain depth of
the compiled double-failure plan (Fig. 9(b)).  HV Code's ``p - 2``
parity chains and four-way parallel double recovery therefore shorten
its simulated repair windows, which is precisely the mechanism by
which the paper argues reliability improves; the simulation turns that
mechanism into measured data-loss statistics.

State semantics mirror the Markov chain of
:mod:`repro.analysis.reliability` so the exponential-lifetime case
cross-validates the closed form:

- one repair is in flight per array and restores one disk;
- a second failure during a single-disk repair escalates the job to a
  (slower) double-failure repair;
- a third concurrent failure is data loss;
- a latent error on a survivor is absorbed while at most one disk is
  down, but is fatal while two are down (the URE-during-rebuild path
  the sector-error MTTDL extension models);
- after data loss the array is restored from backup (reset to
  healthy) and the clock keeps running, so loss events form a renewal
  process whose rate estimates ``1 / MTTDL``.

Repair bandwidth is shared fleet-wide: with more active rebuilds than
``repair_streams``, every in-flight rebuild progresses at the same
fractional rate (processor sharing).  Rate changes re-plan the
completion event of every active job; stale events are recognized by a
per-job generation counter and dropped — same lazy-invalidation
pattern as the CR-SIM event handlers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.reliability import rebuild_hours
from ..exceptions import SimulationError
from ..recovery.cost import expected_double_rounds, expected_recovery_reads_per_element
from ..utils import mean, resolve_rng
from .config import SimConfig
from .events import Event, EventKind, EventQueue
from .report import SimReport, build_report

#: Data-loss causes recorded on :class:`~repro.sim.report.SimReport`.
CAUSE_TRIPLE_FAILURE = "triple-disk-failure"
CAUSE_URE_DOUBLE = "ure-during-double-rebuild"


@dataclass(frozen=True)
class CodeRepairProfile:
    """Measured repair costs of one code — the simulator's clock.

    ``reads_per_lost_element`` and ``double_rounds`` are the code's
    repair price, read off its compiled recovery plans
    (:func:`repro.recovery.cost.repair_cost`).
    ``single_rebuild_hours`` is the full-bandwidth duration of a
    one-disk rebuild under the parallel-read model;
    ``double_rebuild_hours`` scales it by the chain-depth penalty on
    twice the volume (both via
    :func:`repro.analysis.reliability.rebuild_hours`).
    ``chain_repair_reads`` prices one scrub repair: the surviving cells
    of an average parity chain.
    """

    code_name: str
    reads_per_lost_element: float
    double_rounds: float
    single_rebuild_hours: float
    double_rebuild_hours: float
    chain_repair_reads: float

    @classmethod
    def measure(cls, config: SimConfig) -> "CodeRepairProfile":
        """Price the code's repairs once and freeze the derived durations."""
        code = config.make_code()
        reads = expected_recovery_reads_per_element(code)
        rounds = expected_double_rounds(code)
        single, double = rebuild_hours(
            code, config.reliability_parameters(), reads, rounds
        )
        return cls(
            code_name=code.name,
            reads_per_lost_element=reads,
            double_rounds=rounds,
            single_rebuild_hours=single,
            double_rebuild_hours=double,
            chain_repair_reads=mean(
                len(chain.equation_cells) - 1 for chain in code.chains
            ),
        )

    def to_dict(self) -> dict:
        return {
            "code_name": self.code_name,
            "reads_per_lost_element": self.reads_per_lost_element,
            "double_rounds": self.double_rounds,
            "single_rebuild_hours": self.single_rebuild_hours,
            "double_rebuild_hours": self.double_rebuild_hours,
            "chain_repair_reads": self.chain_repair_reads,
        }


class _RepairJob:
    """One in-flight rebuild (restores exactly one disk)."""

    __slots__ = ("array", "kind", "remaining_hours", "generation", "started_at")

    def __init__(self, array: int, kind: str, work_hours: float, now: float) -> None:
        self.array = array
        self.kind = kind  # "single" | "double"
        self.remaining_hours = work_hours
        # Completion-event token; assigned a globally unique value at
        # every (re)schedule.  A per-job counter would not do: a stale
        # event of a cancelled job could collide with a later job of
        # the same array whose counter reached the same value.
        self.generation = -1
        self.started_at = now


class _ArrayState:
    """Mutable per-array bookkeeping."""

    __slots__ = (
        "failed_disks",
        "disk_generation",
        "latent_counts",
        "job",
        "degraded_since",
        "waiting_for_spare",
        "spare_wait_since",
    )

    def __init__(self, num_disks: int) -> None:
        self.failed_disks: list[int] = []  # FIFO of down disks
        self.disk_generation = [0] * num_disks
        self.latent_counts = [0] * num_disks
        self.job: _RepairJob | None = None
        self.degraded_since: float | None = None
        self.waiting_for_spare = False
        self.spare_wait_since = 0.0

    def latent_outstanding(self) -> int:
        down = set(self.failed_disks)
        return sum(
            count
            for disk, count in enumerate(self.latent_counts)
            if disk not in down
        )


class FleetSimulator:
    """Drive one fleet of arrays of one code through the horizon.

    Single-shot: construct, :meth:`run`, read the report.  All
    randomness flows from ``config.seed`` through one generator, and
    event ties break by schedule order, so equal configs produce
    byte-identical reports.
    """

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.profile = CodeRepairProfile.measure(config)
        self._code = config.make_code()
        self._num_disks = self._code.cols
        self._ran = False

    # -- public API --------------------------------------------------------

    def run(self) -> SimReport:
        """Process every event inside the horizon and build the report."""
        if self._ran:
            raise SimulationError(
                "a FleetSimulator runs once; construct a fresh instance"
            )
        self._ran = True
        cfg = self.config
        self._rng = resolve_rng(cfg.seed)
        self._queue = EventQueue()
        self._clock = 0.0
        self._arrays = [_ArrayState(self._num_disks) for _ in range(cfg.fleet_size)]
        self._spares = cfg.spares  # None = unlimited
        self._spare_queue: list[int] = []  # arrays waiting for a spare
        self._active_jobs: dict[int, _RepairJob] = {}
        self._share_rate = 1.0
        self._share_since = 0.0
        self._next_token = 0  # unique repair-event generations

        # Counters and samples feeding the report.
        self._losses: list[dict] = []
        self._arrays_with_loss: set[int] = set()
        self._counts = {
            "disk_failures": 0,
            "repairs_single": 0,
            "repairs_double": 0,
            "repair_escalations": 0,
            "latent_arrivals": 0,
            "latent_cleared": 0,
            "scrubs": 0,
            "scrub_repair_reads": 0,
            "spares_consumed": 0,
        }
        self._rebuild_hours: dict[str, list[float]] = {"single": [], "double": []}
        self._spare_wait_hours: list[float] = []
        self._degraded_hours = 0.0

        for array in range(cfg.fleet_size):
            for disk in range(self._num_disks):
                self._schedule_disk(array, disk, born_at=0.0)
            if cfg.scrub_interval_hours is not None:
                # Stagger first scrubs across the interval so the fleet
                # does not scrub in lockstep.
                offset = cfg.scrub_interval_hours * (array + 1) / cfg.fleet_size
                self._queue.push(offset, EventKind.SCRUB, array=array)

        horizon = cfg.horizon_hours
        while self._queue and self._queue.peek_time() <= horizon:
            event = self._queue.pop()
            self._clock = event.time
            self._dispatch(event)

        # Close out degraded intervals at the horizon.
        for state in self._arrays:
            if state.degraded_since is not None:
                self._degraded_hours += horizon - state.degraded_since
                state.degraded_since = None

        return build_report(
            config=cfg,
            profile=self.profile,
            code=self._code,
            losses=self._losses,
            arrays_with_loss=len(self._arrays_with_loss),
            counts=dict(self._counts),
            rebuild_hours=self._rebuild_hours,
            spare_wait_hours=self._spare_wait_hours,
            degraded_hours=self._degraded_hours,
        )

    # -- scheduling helpers ------------------------------------------------

    def _schedule_disk(self, array: int, disk: int, born_at: float) -> None:
        """Draw the fresh disk's failure (and latent stream) events.

        Draw order is fixed — failure first, then the latent arrival —
        so the random stream is a pure function of the call sequence.
        """
        generation = self._arrays[array].disk_generation[disk]
        lifetime = self.config.lifetime.draw(self._rng)
        self._queue.push(
            born_at + lifetime,
            EventKind.DISK_FAILURE,
            array=array,
            disk=disk,
            generation=generation,
        )
        self._schedule_latent(array, disk, born_at, generation)

    def _schedule_latent(
        self, array: int, disk: int, now: float, generation: int
    ) -> None:
        rate = self.config.latent_error_rate_per_hour
        if rate <= 0:
            return
        gap = float(self._rng.exponential(1.0 / rate))
        self._queue.push(
            now + gap,
            EventKind.LATENT_ERROR,
            array=array,
            disk=disk,
            generation=generation,
        )

    # -- repair-bandwidth sharing ------------------------------------------

    def _advance_active_jobs(self, now: float) -> None:
        """Progress every in-flight rebuild to ``now`` at the shared rate."""
        elapsed = now - self._share_since
        if elapsed > 0:
            for job in self._active_jobs.values():
                job.remaining_hours = max(
                    0.0, job.remaining_hours - elapsed * self._share_rate
                )
        self._share_since = now

    def _reschedule_active_jobs(self, now: float) -> None:
        """Recompute the shared rate and re-plan completions as needed.

        When the rate is unchanged, already-scheduled completions stay
        valid (their absolute finish time is invariant under advancing
        ``remaining`` to ``now`` at that same rate), so only jobs that
        have never been scheduled get an event — without this, every
        membership change would re-plan the whole fleet's rebuilds.
        """
        streams = self.config.repair_streams
        active = len(self._active_jobs)
        if streams is None or active <= streams:
            new_rate = 1.0
        else:
            new_rate = streams / active
        rate_changed = new_rate != self._share_rate
        self._share_rate = new_rate
        for job in self._active_jobs.values():
            if not rate_changed and job.generation != -1:
                continue
            job.generation = self._next_token
            self._next_token += 1
            self._queue.push(
                now + job.remaining_hours / self._share_rate,
                EventKind.REPAIR_COMPLETE,
                array=job.array,
                generation=job.generation,
            )

    def _start_or_queue_repair(self, array: int, now: float) -> None:
        """Begin rebuilding one disk of ``array``, or wait for a spare."""
        state = self._arrays[array]
        if state.job is not None or not state.failed_disks:
            return
        if self._spares is not None and self._spares == 0:
            if not state.waiting_for_spare:
                state.waiting_for_spare = True
                state.spare_wait_since = now
                self._spare_queue.append(array)
            return
        if self._spares is not None:
            self._spares -= 1
            self._counts["spares_consumed"] += 1
            self._queue.push(
                now + self.config.spare_replenish_hours,
                EventKind.SPARE_REPLENISH,
            )
        self._begin_job(array, now)

    def _begin_job(self, array: int, now: float) -> None:
        """Create the repair job itself (spare already accounted for)."""
        state = self._arrays[array]
        kind = "single" if len(state.failed_disks) == 1 else "double"
        work = (
            self.profile.single_rebuild_hours
            if kind == "single"
            else self.profile.double_rebuild_hours
        )
        job = _RepairJob(array, kind, work, now)
        state.job = job
        self._advance_active_jobs(now)
        self._active_jobs[array] = job
        self._reschedule_active_jobs(now)

    def _cancel_repair(self, array: int, now: float) -> None:
        state = self._arrays[array]
        if state.job is None:
            return
        self._advance_active_jobs(now)
        del self._active_jobs[array]
        state.job = None
        self._reschedule_active_jobs(now)

    # -- event handlers ----------------------------------------------------

    def _dispatch(self, event: Event) -> None:
        if event.kind is EventKind.DISK_FAILURE:
            self._on_disk_failure(event)
        elif event.kind is EventKind.REPAIR_COMPLETE:
            self._on_repair_complete(event)
        elif event.kind is EventKind.LATENT_ERROR:
            self._on_latent_error(event)
        elif event.kind is EventKind.SCRUB:
            self._on_scrub(event)
        elif event.kind is EventKind.SPARE_REPLENISH:
            self._on_spare_replenish(event)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unhandled event kind {event.kind}")

    def _on_disk_failure(self, event: Event) -> None:
        state = self._arrays[event.array]
        if event.generation != state.disk_generation[event.disk]:
            return  # the disk was replaced; this lifetime is stale
        now = event.time
        state.disk_generation[event.disk] += 1  # retire the disk's streams
        state.latent_counts[event.disk] = 0  # its media dies with it
        state.failed_disks.append(event.disk)
        self._counts["disk_failures"] += 1
        if state.degraded_since is None:
            state.degraded_since = now

        failed = len(state.failed_disks)
        if failed >= 3:
            self._data_loss(event.array, now, CAUSE_TRIPLE_FAILURE)
            return
        if failed == 2 and state.latent_outstanding() > 0:
            # A survivor carries an unscrubbed latent error while both
            # parities' slack is gone: the rebuild cannot complete.
            self._data_loss(event.array, now, CAUSE_URE_DOUBLE)
            return
        if failed == 2 and state.job is not None:
            # Escalate the in-flight single rebuild to the double plan;
            # the spare already in the slot keeps serving this job.
            self._counts["repair_escalations"] += 1
            started = state.job.started_at
            self._cancel_repair(event.array, now)
            self._begin_job(event.array, now)
            state.job.started_at = started
            return
        self._start_or_queue_repair(event.array, now)

    def _on_repair_complete(self, event: Event) -> None:
        state = self._arrays[event.array]
        job = state.job
        if job is None or event.generation != job.generation:
            return  # re-planned or cancelled; a newer event exists
        now = event.time
        if not state.failed_disks:  # pragma: no cover - defensive
            raise SimulationError(
                f"repair completed on healthy array {event.array}"
            )
        self._advance_active_jobs(now)
        del self._active_jobs[event.array]
        state.job = None
        self._reschedule_active_jobs(now)

        disk = state.failed_disks.pop(0)
        state.latent_counts[disk] = 0
        self._schedule_disk(event.array, disk, born_at=now)
        self._counts[f"repairs_{job.kind}"] += 1
        self._rebuild_hours[job.kind].append(now - job.started_at)

        if state.failed_disks:
            self._start_or_queue_repair(event.array, now)
        elif state.degraded_since is not None:
            self._degraded_hours += now - state.degraded_since
            state.degraded_since = None

    def _on_latent_error(self, event: Event) -> None:
        state = self._arrays[event.array]
        if event.generation != state.disk_generation[event.disk]:
            return  # stream of a replaced disk
        now = event.time
        self._counts["latent_arrivals"] += 1
        if len(state.failed_disks) >= 2:
            self._data_loss(event.array, now, CAUSE_URE_DOUBLE)
            return
        state.latent_counts[event.disk] += 1
        self._schedule_latent(event.array, event.disk, now, event.generation)

    def _on_scrub(self, event: Event) -> None:
        state = self._arrays[event.array]
        now = event.time
        self._counts["scrubs"] += 1
        down = set(state.failed_disks)
        cleared = 0
        for disk in range(self._num_disks):
            if disk in down:
                continue
            cleared += state.latent_counts[disk]
            state.latent_counts[disk] = 0
        if cleared:
            # Each latent element is repaired through one parity chain,
            # reading the chain's surviving cells (the fleet-scale
            # abstraction of repro.faults.checksum.scrub_store).
            self._counts["latent_cleared"] += cleared
            self._counts["scrub_repair_reads"] += round(
                cleared * self.profile.chain_repair_reads
            )
        assert self.config.scrub_interval_hours is not None
        self._queue.push(
            now + self.config.scrub_interval_hours, EventKind.SCRUB, array=event.array
        )

    def _on_spare_replenish(self, event: Event) -> None:
        assert self._spares is not None
        self._spares += 1
        now = event.time
        while self._spares > 0 and self._spare_queue:
            array = self._spare_queue.pop(0)
            state = self._arrays[array]
            state.waiting_for_spare = False
            if state.job is not None or not state.failed_disks:
                continue  # reset by a data loss while waiting
            self._start_or_queue_repair(array, now)
            if state.job is not None:
                self._spare_wait_hours.append(now - state.spare_wait_since)

    # -- data loss ---------------------------------------------------------

    def _data_loss(self, array: int, now: float, cause: str) -> None:
        """Record the loss and restore the array from backup (reset)."""
        state = self._arrays[array]
        self._losses.append(
            {
                "time_hours": now,
                "array": array,
                "cause": cause,
                "failed_disks": len(state.failed_disks),
                "latent_outstanding": state.latent_outstanding(),
            }
        )
        self._arrays_with_loss.add(array)
        self._cancel_repair(array, now)
        if state.waiting_for_spare:
            state.waiting_for_spare = False
            self._spare_queue.remove(array)
        if state.degraded_since is not None:
            self._degraded_hours += now - state.degraded_since
            state.degraded_since = None
        state.failed_disks = []
        for disk in range(self._num_disks):
            state.disk_generation[disk] += 1
            state.latent_counts[disk] = 0
            self._schedule_disk(array, disk, born_at=now)


def simulate_fleet(config: SimConfig) -> SimReport:
    """Run one fleet simulation and return its report."""
    return FleetSimulator(config).run()
