"""The shared-memory process-pool backend, arena edition.

numpy releases the GIL inside its kernels, but a single thread still
executes one kernel at a time, so the vector engine's ceiling is one
core's memory bandwidth.  This backend partitions a region across a
pool of **long-lived worker processes**, each owning a private command
pipe:

- regions live in :class:`~.arena.RegionArena` segments.  A target
  that is *already* arena-resident (e.g. a flush delta batch leased by
  :class:`~repro.array.filestore.FileStore`) executes with **zero**
  copies — workers attach to the segment by name, keep the attachment
  cached across calls, and mutate the region in place.  A plain numpy
  target borrows a pooled segment (one copy in, one copy out, both
  charged to ``IOStats.shm_copy_bytes``) instead of creating and
  unlinking a fresh segment per call;
- the *word axis* is split into contiguous chunks — XOR plans are
  pointwise in the word index, so any split along that axis is
  trivially independent and the result is byte-identical to serial
  execution no matter the worker count or scheduling order
  (deterministic work splitting, proven by the differential suite);
- each worker runs the fused tiled executor
  (:func:`~repro.engine.backends.fused.run_plan_region`) over its
  chunk with private scratch temporaries;
- an ``affinity`` hint rotates which worker slots serve a caller's
  chunks, so a service shard keeps hitting workers whose attachment
  caches already hold its segments.

A worker killed mid-plan cannot corrupt the result: the parent detects
the broken pipe, respawns the slot, and deterministically re-executes
the suspect chunks inline (plans never read an output cell before
writing it — the symbolic verifier's read-before-def discipline — so
re-running a partially-executed chunk converges to the same bytes).
Segment lifetime belongs to the arena's finalizers, so no ``/dev/shm``
entry outlives the creating process.

Tuning knobs resolve in priority order: :func:`configure_backend`
call > ``REPRO_PARALLEL_MIN_BYTES`` / ``REPRO_PARALLEL_WORKERS`` env
vars > the module defaults (:data:`MIN_PARALLEL_BYTES`, host CPU
count).  Regions below the threshold — where even one shm round trip
would dominate — execute inline through the fused backend instead.
"""

from __future__ import annotations

import atexit
import os
import threading
from multiprocessing import get_all_start_methods, get_context
from typing import TYPE_CHECKING, Any

import numpy as np

from ...exceptions import InvalidParameterError
from ..executor import _check_geometry, _clear_outputs, _word_view
from .arena import RegionArena, attach_segment, detach_all_segments, find_resident
from .base import KernelBackend, Target, charge_stats, split_targets
from .fused import FusedBackend, run_plan_region, tile_columns

if TYPE_CHECKING:
    from ...array.iostats import IOStats
    from ..plan import XorPlan

#: Below this many region bytes the shared-memory round trip costs
#: more than the kernels; the backend executes inline (fused) instead.
#: Default only — see :func:`configure_backend` / ``REPRO_PARALLEL_*``.
MIN_PARALLEL_BYTES = 1 << 20

#: Runtime overrides set by :func:`configure_backend` (None = unset).
_CONFIG: dict[str, int | None] = {"min_parallel_bytes": None, "workers": None}


def _env_int(name: str, minimum: int) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise InvalidParameterError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def configure_backend(
    *,
    min_parallel_bytes: int | None = None,
    workers: int | None = None,
    reset: bool = False,
) -> dict[str, int]:
    """Set (or with ``reset=True`` clear) the parallel backend's knobs.

    Returns the *effective* configuration after the call, with env vars
    and defaults applied.  Validation raises
    :class:`~repro.exceptions.InvalidParameterError` like every other
    seam in the package.
    """
    if reset:
        _CONFIG["min_parallel_bytes"] = None
        _CONFIG["workers"] = None
    if min_parallel_bytes is not None:
        if not isinstance(min_parallel_bytes, int) or min_parallel_bytes < 0:
            raise InvalidParameterError(
                f"min_parallel_bytes must be an int >= 0, got {min_parallel_bytes!r}"
            )
        _CONFIG["min_parallel_bytes"] = min_parallel_bytes
    if workers is not None:
        if not isinstance(workers, int) or workers < 1:
            raise InvalidParameterError(
                f"workers must be an int >= 1, got {workers!r}"
            )
        _CONFIG["workers"] = workers
    return {
        "min_parallel_bytes": min_parallel_bytes_effective(),
        "workers": default_workers(),
    }


def min_parallel_bytes_effective() -> int:
    """Inline threshold: configure_backend > env var > module default."""
    if _CONFIG["min_parallel_bytes"] is not None:
        return _CONFIG["min_parallel_bytes"]
    env = _env_int("REPRO_PARALLEL_MIN_BYTES", 0)
    if env is not None:
        return env
    return MIN_PARALLEL_BYTES


def default_workers() -> int:
    """Worker count: configure_backend > env var > host CPU count."""
    if _CONFIG["workers"] is not None:
        return _CONFIG["workers"]
    env = _env_int("REPRO_PARALLEL_WORKERS", 1)
    if env is not None:
        return env
    return max(os.cpu_count() or 1, 1)


def _start_method() -> str:
    return "fork" if "fork" in get_all_start_methods() else "spawn"


def _worker_main(conn: Any) -> None:
    """Command loop of one long-lived worker.

    Commands arrive on the private pipe; ``("exec", ...)`` attaches to
    the named arena segment (cached by generation), runs the fused
    region executor over one word-axis chunk in place, and replies with
    the chunk's tile count.  No region bytes ever cross the pipe.
    """
    try:
        while True:
            try:
                cmd = conn.recv()
            except (EOFError, OSError):
                break
            if cmd[0] == "stop":
                break
            (
                _,
                name,
                generation,
                offset,
                shape,
                dtype_str,
                steps,
                num_cells,
                num_temps,
                lo,
                hi,
                tile,
            ) = cmd
            shm = attach_segment(name, generation)
            buf = np.ndarray(
                shape, dtype=np.dtype(dtype_str), buffer=shm.buf, offset=offset
            )
            ntiles = run_plan_region(
                buf[..., lo:hi], steps, num_cells, num_temps, tile
            )
            conn.send(ntiles)
    finally:
        detach_all_segments()
        conn.close()


class _Worker:
    """One worker process plus its command pipe."""

    def __init__(self, ctx: Any) -> None:
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child,), daemon=True)
        self.proc.start()
        child.close()

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.proc.join(timeout=2)
        if self.proc.is_alive():  # pragma: no cover - stuck worker
            self.proc.terminate()
            self.proc.join(timeout=2)


class _WorkerPool:
    """A fixed set of worker slots dispatched over command pipes."""

    def __init__(self, size: int) -> None:
        self._ctx = get_context(_start_method())
        self.size = size
        self.workers = [_Worker(self._ctx) for _ in range(size)]

    def run(
        self, tasks: "list[tuple]", rotate: int = 0
    ) -> tuple[list[int | None], list[int]]:
        """Dispatch tasks round-robin from slot ``rotate``; returns
        ``(results, failed_task_indices)``.  A dead slot is respawned
        and its tasks reported failed, never silently dropped."""
        slots: list[list[int]] = [[] for _ in range(self.size)]
        for i in range(len(tasks)):
            slots[(i + rotate) % self.size].append(i)
        results: list[int | None] = [None] * len(tasks)
        failed: list[int] = []
        pending: list[tuple[int, list[int]]] = []
        for s, idxs in enumerate(slots):
            if not idxs:
                continue
            worker = self.workers[s]
            if not worker.proc.is_alive():
                failed.extend(idxs)
                self._respawn(s)
                continue
            try:
                for i in idxs:
                    worker.conn.send(("exec",) + tasks[i])
                pending.append((s, idxs))
            except (BrokenPipeError, OSError):
                failed.extend(idxs)
                self._respawn(s)
        for s, idxs in pending:
            worker = self.workers[s]
            try:
                for i in idxs:
                    results[i] = worker.conn.recv()
            except (EOFError, OSError):
                # Worker died mid-batch: results already received stand
                # (chunks are disjoint), the rest are suspect.
                failed.extend(i for i in idxs if results[i] is None)
                self._respawn(s)
        return results, failed

    def _respawn(self, slot: int) -> None:
        worker = self.workers[slot]
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=2)
        self.workers[slot] = _Worker(self._ctx)

    def shutdown(self, wait: bool = True) -> None:
        for worker in self.workers:
            worker.stop()
        self.workers = []


_POOL: _WorkerPool | None = None
_POOL_SIZE = 0
_POOL_LOCK = threading.Lock()


def _pool(workers: int) -> _WorkerPool:
    """The persistent pool, created lazily and grown on demand."""
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if _POOL is None or _POOL_SIZE < workers:
            if _POOL is not None:
                _POOL.shutdown(wait=True)
            _POOL = _WorkerPool(workers)
            _POOL_SIZE = workers
        return _POOL


def shutdown_parallel_pool() -> None:
    """Tear down the worker pool (safe to call when none exists)."""
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
            _POOL = None
            _POOL_SIZE = 0


atexit.register(shutdown_parallel_pool)


class ParallelBackend(KernelBackend):
    """Deterministic multi-core execution over resident shared memory."""

    name = "parallel"

    def __init__(self) -> None:
        self._inline = FusedBackend()
        #: Pooled segments for targets that are not already resident;
        #: also the arena FileStore borrows for flush delta batches.
        self.arena = RegionArena()

    def default_workers(self) -> int:
        return default_workers()

    def execute(
        self,
        plan: "XorPlan",
        target: Target,
        *,
        stats: "IOStats | None" = None,
        workers: int | None = None,
        affinity: int | None = None,
    ) -> None:
        workers = workers or self.default_workers()
        rotate = affinity or 0
        for piece in split_targets(target):
            _check_geometry(plan, piece)
            buf = _word_view(piece)
            words = buf.shape[-1]
            chunks = min(workers, words)
            if chunks <= 1 or buf.nbytes < min_parallel_bytes_effective():
                self._inline.execute(plan, piece, stats=stats)
                continue
            tile = tile_columns(buf.dtype, -(-words // chunks))
            bounds = [
                (i * words // chunks, (i + 1) * words // chunks)
                for i in range(chunks)
            ]
            resident = find_resident(buf)
            if resident is not None and resident[2] % buf.dtype.itemsize == 0:
                name, generation, offset = resident
                ntiles = self._run_chunks(
                    plan, buf, name, generation, offset, bounds, tile, rotate
                )
                if stats is not None:
                    stats.record_shm_copy(0)
            else:
                lease = self.arena.lease(buf.nbytes, stats=stats)
                try:
                    shared = lease.array(buf.shape, buf.dtype, zero=False)
                    np.copyto(shared, buf)
                    ntiles = self._run_chunks(
                        plan,
                        shared,
                        lease.name,
                        lease.generation,
                        0,
                        bounds,
                        tile,
                        rotate,
                    )
                    np.copyto(buf, shared)
                    if stats is not None:
                        stats.record_shm_copy(2 * buf.nbytes)
                    del shared
                finally:
                    lease.release()
            charge_stats(stats, plan, buf, plan.fused_kernel_calls * ntiles)
            _clear_outputs(plan, piece)

    def _run_chunks(
        self,
        plan: "XorPlan",
        shared: np.ndarray,
        name: str,
        generation: int,
        offset: int,
        bounds: "list[tuple[int, int]]",
        tile: int,
        rotate: int,
    ) -> int:
        """Fan chunk commands out to the pool; redo failed chunks inline."""
        tasks = [
            (
                name,
                generation,
                offset,
                shared.shape,
                shared.dtype.str,
                plan.steps,
                plan.num_cells,
                plan.num_temps,
                lo,
                hi,
                tile,
            )
            for lo, hi in bounds
        ]
        results, failed = _pool(len(bounds)).run(tasks, rotate=rotate)
        ntiles = sum(r for r in results if r is not None)
        for i in failed:
            lo, hi = bounds[i]
            ntiles += run_plan_region(
                shared[..., lo:hi],
                plan.steps,
                plan.num_cells,
                plan.num_temps,
                tile,
            )
        return ntiles
