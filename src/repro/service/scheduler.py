"""The request scheduler: a concurrent op stream over the shard pool.

Clients :meth:`~RequestScheduler.submit` ops into one bounded
admission queue; a pool of worker threads executes them against the
:class:`~repro.service.VolumePool`.  Three properties the serve-bench
(and the differential oracle test) depend on:

- **Per-shard FIFO.**  Internally the queue is a deque per shard and
  at most one worker serves a shard at a time, so ops on one shard
  execute in submission order while different shards proceed in
  parallel.  End state is therefore a pure function of the submitted
  stream — byte-identical to a single-threaded replay — no matter how
  many workers run or how the OS schedules them.
- **Backpressure.**  ``queue_depth`` bounds queued ops.  A blocking
  submit waits while the queue is full (counted in
  ``backpressure_waits``); a non-blocking one raises
  :class:`~repro.exceptions.BackpressureError` so callers can shed
  load.  A waiter is woken at a low-water mark, not on every pop: only
  a pop that leaves ``queued <= queue_depth // 2`` notifies, so a
  client blocked on a full queue wakes once per half-queue of pops and
  refills it in one burst (``queue_depth=1`` wakes on every pop, as
  the mark is 0).  A submitter waits only on a full queue, so pops
  follow until one reaches the mark, and each pop at or below it wakes
  one more waiter: several blocked submitters are all admitted, one
  per such pop.
- **Deadlines.**  An op may carry a relative deadline; a worker that
  reaches it past that instant completes it as ``expired`` without
  touching the store.  Expiry depends on real time, so it is reported
  in the timing half of :class:`~repro.service.ServiceStats`, never
  hashed — deterministic runs simply set no deadlines.

A worker that wins a shard **drains** it: it takes the shard's lock
once (FileStore is a single-writer object; see ``docs/SERVICE.md``)
and serves, in order, the ops that were queued on the shard when it
won — later arrivals wait for the shard's next round-robin turn.
A :meth:`~RequestScheduler.drain` caller does the same in a free
worker's place instead of sleeping, so a lone synchronous op (submit,
then ``drain()``) runs on the caller's thread with no hand-off to a
worker and back.  Workers and callers together drain at most
``workers`` shards at once.  Each op is still popped under the
scheduler's mutex as it starts, so ``queued <= queue_depth`` and
``inflight <= workers`` hold exactly, and a blocked submitter is
released by the pop that reaches the low-water mark, wherever in a
drain it falls.
Holding the shard lock is also what lets a rebuild op monopolize one
shard while every other shard keeps serving — the scheduler records
how many ops completed elsewhere during each rebuild as direct
evidence of that isolation.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from ..exceptions import (
    BackpressureError,
    InvalidParameterError,
    ServiceError,
)
from .pool import VolumePool
from .stats import ServiceStats, WorkerRecorder


@dataclass(frozen=True)
class Op:
    """One scheduled operation.

    ``read``/``write`` ops are byte-addressed against the global
    volume (and must stay inside one stripe); ``fail``/``rebuild``/
    ``flush`` ops address a shard directly.  ``deadline`` is relative
    seconds from submission; ``None`` (the default, and the only value
    deterministic runs use) never expires.
    """

    kind: str
    offset: int = 0
    size: int = 0
    payload: bytes | None = None
    shard: int | None = None
    disk: int | None = None
    deadline: float | None = None
    client: int = 0


@dataclass(frozen=True)
class OpResult:
    """Terminal record of one op (kept only when ``keep_results``)."""

    kind: str
    status: str
    shard: int
    seconds: float
    data: bytes | None = None
    error: str | None = None


#: What an op is retired with when its worker is unwound mid-op by
#: something that is not an ``Exception``.
_ABORTED = ("error", None, "worker stopped mid-op")


class RequestScheduler:
    """Bounded-queue, per-shard-FIFO thread-pool op scheduler."""

    def __init__(
        self,
        pool: VolumePool,
        *,
        workers: int = 2,
        queue_depth: int = 256,
        keep_results: bool = False,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError("workers must be >= 1")
        if queue_depth < 1:
            raise InvalidParameterError("queue_depth must be >= 1")
        self.pool = pool
        self.workers = workers
        self.queue_depth = queue_depth
        self.keep_results = keep_results
        # One mutex, three wait sets, so that a wake-up goes only to a
        # thread that can use it.
        self._lock = threading.RLock()
        #: idle workers; notified when a shard becomes serveable
        self._work_cv = threading.Condition(self._lock)
        #: submitters blocked on a full queue; notified by each pop
        #: that leaves ``queued`` at or below the low-water mark
        self._room_cv = threading.Condition(self._lock)
        self._low_water = queue_depth // 2
        #: ``drain()`` callers with no free worker's place to serve in;
        #: notified when nothing is queued or in flight
        self._idle_cv = threading.Condition(self._lock)
        #: per shard: ``(op, local offset, submitted at, deadline at)``
        self._queues: list[deque] = [deque() for _ in range(pool.num_shards)]
        self._busy = [False] * pool.num_shards
        self._queued = 0
        self._inflight = 0
        self._completed = 0
        self._backpressure_waits = 0
        self._rejected = 0
        self._rebuild_windows: list[dict] = []
        self._next_scan = 0
        self._closed = False
        self._started = False
        self._threads: list[threading.Thread] = []
        #: one per worker, then one per client thread that serves in
        #: ``drain()``, appended (under the mutex) on its first op
        self._recorders = [WorkerRecorder() for _ in range(workers)]
        self._caller = threading.local()
        self._results: list[OpResult] = []
        self._started_at = 0.0
        self.stats: ServiceStats | None = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "RequestScheduler":
        with self._lock:
            if self._started:
                raise ServiceError("scheduler already started")
            self._started = True
            self._started_at = time.perf_counter()
            for wid in range(self.workers):
                thread = threading.Thread(
                    target=self._worker,
                    args=(wid,),
                    name=f"serve-worker-{wid}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        return self

    def __enter__(self) -> "RequestScheduler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- submission --------------------------------------------------------------

    def submit(self, op: Op, *, block: bool = True) -> None:
        """Enqueue one op; blocks (or raises) when the queue is full."""
        shard, local = self._route(op)
        submitted_at = time.perf_counter()
        deadline_at = (
            submitted_at + op.deadline if op.deadline is not None else None
        )
        with self._lock:
            if self._closed or not self._started:
                raise ServiceError("submit outside the scheduler's lifetime")
            if self._queued >= self.queue_depth:
                if not block:
                    self._rejected += 1
                    raise BackpressureError(
                        f"admission queue at depth {self.queue_depth}"
                    )
                self._backpressure_waits += 1
                while self._queued >= self.queue_depth and not self._closed:
                    self._room_cv.wait()
                if self._closed:
                    raise ServiceError("scheduler closed while waiting")
            queue = self._queues[shard]
            queue.append((op, local, submitted_at, deadline_at))
            self._queued += 1
            if len(queue) == 1 and not self._busy[shard]:
                self._work_cv.notify()  # the shard just became serveable

    def _route(self, op: Op) -> tuple[int, int]:
        """``(shard, local offset)`` of an op: located once, here."""
        if op.kind == "write" and op.payload is None:
            raise ServiceError("write op needs a payload")
        if op.kind in ("fail", "rebuild") and op.disk is None:
            raise ServiceError(f"{op.kind} op needs an explicit disk")
        if op.kind in ("read", "write"):
            size = len(op.payload) if op.kind == "write" else op.size
            return self.pool.locate(op.offset, size)
        if op.kind in ("fail", "rebuild", "flush"):
            if op.shard is None:
                raise ServiceError(f"{op.kind} op needs an explicit shard")
            self.pool.lock(op.shard)  # validates the index
            return op.shard, 0
        raise ServiceError(f"unknown op kind {op.kind!r}")

    # -- completion --------------------------------------------------------------

    def drain(self) -> None:
        """Block until every submitted op has completed.

        The caller does not sleep while it may work: whenever a
        worker's place is free and a shard is serveable, it wins that
        shard and drains it on this thread, exactly as a worker would.
        """
        while True:
            with self._lock:
                shard = self._win_shard_locked()
                while shard is None:
                    if not (self._queued or self._inflight):
                        return
                    self._idle_cv.wait()
                    shard = self._win_shard_locked()
                rec = getattr(self._caller, "recorder", None)
                if rec is None:  # this thread's first served op
                    rec = self._caller.recorder = WorkerRecorder()
                    self._recorders.append(rec)
                budget = len(self._queues[shard])
                started = self._pop_locked(shard)
            self._drain(rec, shard, budget, started)

    def close(self) -> ServiceStats:
        """Drain, stop the workers, and build the final roll-up."""
        self.drain()
        with self._lock:
            if not self._closed:
                self._closed = True
                self._work_cv.notify_all()
                self._room_cv.notify_all()
        for thread in self._threads:
            thread.join()
        if self.stats is None:
            # A submit that raced the first drain may still be in flight
            # on its client's thread: fold only once inflight reaches 0.
            self.drain()
            wall = (
                time.perf_counter() - self._started_at if self._started else 0.0
            )
            # noqa-rationale: every worker has joined and nothing is in
            # flight or can be submitted; close() is a single-threaded
            # epilogue.
            self.stats = ServiceStats.from_recorders(  # noqa: R008 - workers joined
                self._recorders,
                io=self.pool.merged_stats(),
                wall_seconds=wall,
                backpressure_waits=self._backpressure_waits,
                rejected=self._rejected,
                rebuild_windows=self._rebuild_windows,
            )
            self.stats.check_consistency()
        return self.stats

    @property
    def results(self) -> list[OpResult]:
        if not self.keep_results:
            raise ServiceError("results were not kept; pass keep_results=True")
        with self._lock:
            return list(self._results)

    @property
    def completed(self) -> int:
        with self._lock:
            return self._completed

    # -- the worker loop: win a shard, drain what it holds ------------------------

    def _win_shard_locked(self) -> int | None:
        """Claim the next serveable shard, round-robin (mutex held), if
        a worker's place is free: workers and ``drain()`` callers
        together serve at most ``workers`` shards.

        A second serveable shard left behind is work for one more
        worker, so the wake-up is passed on while a place is left.
        """
        if self._inflight >= self.workers:
            return None
        shards = len(self._queues)
        won = None
        for step in range(shards):
            shard = (self._next_scan + step) % shards
            if self._queues[shard] and not self._busy[shard]:
                if won is not None:
                    if self._inflight + 1 < self.workers:
                        self._work_cv.notify()
                    break
                won = shard
        if won is not None:
            self._busy[won] = True
            self._next_scan = won + 1
        return won

    def _pop_locked(self, shard: int) -> tuple:
        """Start the shard's next op (mutex held): ``(queue entry,
        dequeued at, ops completed so far)``."""
        entry = self._queues[shard].popleft()
        self._queued -= 1
        self._inflight += 1
        if self._queued <= self._low_water:
            # Not on every pop: a submitter woken only once half the
            # queue has drained refills half of it per wake-up.
            self._room_cv.notify()
        return entry, time.perf_counter(), self._completed

    def _worker(self, wid: int) -> None:
        rec = self._recorders[wid]
        while True:
            with self._lock:
                shard = self._win_shard_locked()
                while shard is None:
                    if self._closed and not self._queued:
                        return
                    self._work_cv.wait()
                    shard = self._win_shard_locked()
                # The budget is what is queued *now*: later arrivals wait
                # for the shard's next round-robin turn, so more shards
                # than workers cannot starve behind a busy one.
                budget = len(self._queues[shard])
                started = self._pop_locked(shard)
            self._drain(rec, shard, budget, started)

    def _drain(
        self, rec: WorkerRecorder, shard: int, budget: int, started: tuple
    ) -> None:
        """Serve ``budget`` ops of a won shard, in order, under one
        hold of its lock; each op is popped under the mutex as it
        starts, so ``queued`` and ``inflight`` stay exact throughout.
        """
        shard_lock = self.pool.lock(shard)
        shard_lock.acquire_write()
        outcome = _ABORTED
        try:
            while True:
                op, local, _, deadline_at = started[0]
                outcome = self._execute(op, shard, local, deadline_at)
                budget -= 1
                if not budget:
                    break
                started = self._retire(rec, shard, started, outcome, more=True)
                outcome = _ABORTED
        finally:
            # Whatever unwinds a worker or a drain() caller, the lock,
            # the op in flight and the shard are released; budget is
            # left only when it was unwound.
            shard_lock.release_write()
            self._retire(
                rec, shard, started, outcome, more=False, unwound=budget > 0
            )

    def _execute(
        self, op: Op, shard: int, local: int, deadline_at: float | None
    ) -> tuple[str, bytes | None, str | None]:
        """Run one op (shard lock held): ``(status, data, error)``.

        Whatever the op raises is its outcome, not the worker's: a
        dead worker would leave its shard claimed and ``drain()``
        waiting forever.
        """
        if deadline_at is not None and time.perf_counter() > deadline_at:
            return "expired", None, None
        data: bytes | None = None
        try:
            if op.kind == "read":
                data = self.pool.read(shard, local, op.size)
                if not self.keep_results:
                    data = None  # a million read payloads must not accumulate
            elif op.kind == "write":
                self.pool.write(shard, local, op.payload)
            elif op.kind == "fail":
                self.pool.fail_disk(shard, op.disk)
            elif op.kind == "rebuild":
                self.pool.rebuild(shard, op.disk)
            elif op.kind == "flush":
                self.pool.flush(shard)
        except Exception as exc:
            return "error", None, f"{type(exc).__name__}: {exc}"
        return "ok", data, None

    def _retire(
        self, rec: WorkerRecorder, shard: int, started: tuple, outcome: tuple,
        *, more: bool, unwound: bool = False,
    ) -> tuple | None:
        """Record a finished op and, in one mutex hold, retire it and
        either start the shard's next op (``more``) or release the
        shard."""
        (op, _, submitted_at, _), dequeued_at, completed_before = started
        status, data, error = outcome
        seconds = time.perf_counter() - dequeued_at
        nbytes = len(op.payload) if op.kind == "write" else op.size
        rec.record(op.kind, status, seconds, nbytes, dequeued_at - submitted_at)
        if error is not None:
            rec.record_error(error)
        with self._lock:
            self._inflight -= 1
            self._completed += 1
            if op.kind == "rebuild":
                self._rebuild_windows.append(
                    {
                        "shard": shard,
                        "status": status,
                        "ops_completed_elsewhere": self._completed
                        - 1
                        - completed_before,
                    }
                )
            if self.keep_results:
                self._results.append(
                    OpResult(op.kind, status, shard, seconds, data, error)
                )
            if more:
                return self._pop_locked(shard)
            self._busy[shard] = False
            if unwound and self._queued:
                # A drainer that returns rescans for work itself; one
                # being unwound does not, so its place goes to a worker.
                self._work_cv.notify()
            if not (self._queued or self._inflight):
                self._idle_cv.notify_all()
            return None
