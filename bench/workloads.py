"""The four workloads, one per boundary of the stack.

Each workload owns a seeded, fixed op list and replays the *same* list
every block; a block ends by putting the program back into the state it
started from (cache flushed, disks rebuilt), so the program's counters
must advance by exactly the same amount every block and any block is as
good a sample as any other.  All four are closed loops with one client
thread.  Why each exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``.

Common configuration: HV code at p = 11 (10 disks, 80 data elements per
stripe), ``engine="auto"``, journal and CRC sidecars at their defaults.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import engine
from repro.array.filestore import FileStore
from repro.array.iostats import IOStats
from repro.array.stripe import StripeBatch
from repro.codes.registry import get_code
from repro.service import Op, RequestScheduler, VolumePool

from .ops import (
    BenchOp,
    ByteModel,
    element_run_ops,
    ops_sha256,
    partial_write_mix,
    zipf_ops,
)

CODE, P = "HV", 11
ELEMENT_SIZE = 4096
ENGINE = "auto"
CACHE_STRIPES = 8


def _no_samples() -> np.ndarray:
    return np.empty(0)


def _clocks() -> np.ndarray:
    """Wall, process-CPU and calling-thread-CPU seconds, as one vector."""
    return np.array([time.perf_counter(), time.process_time(), time.thread_time()])


@dataclass
class Block:
    """What one replay of the op list measured (raw seconds)."""

    #: the throughput window
    seconds: float
    #: all the time the program was being driven (the window, plus the
    #: sync phase on serve-zipf)
    busy_s: float
    #: sum of the individually timed calls inside ``busy_s``; None where
    #: the client loop does not time its calls (serve-zipf's window)
    timed_s: float | None
    read_s: np.ndarray = field(default_factory=_no_samples)
    write_s: np.ndarray = field(default_factory=_no_samples)
    #: ops that errored, expired, or returned bytes the model disagrees with
    failed: int = 0
    rebuild_s: float = 0.0
    backpressure_waits: int = 0
    #: serve-zipf: CPU seconds of the whole process / of the client
    #: thread during ``busy_s``, and the share of the window the client
    #: spent off the CPU inside ``submit``/``drain``
    cpu_s: float | None = None
    client_cpu_s: float | None = None
    client_wait_share: float = 0.0
    #: the program's own pool-boundary service times (serve-zipf sync phase)
    service_read_s: np.ndarray = field(default_factory=_no_samples)
    service_write_s: np.ndarray = field(default_factory=_no_samples)


def store_counters(stores: list[FileStore]) -> dict[str, int]:
    """The program's public counters, summed over ``stores``."""
    out: Counter[str] = Counter()
    for store in stores:
        io, cache = store.stats, store.cache.stats()
        out.update(
            {
                "io.reads": io.total_reads,
                "io.writes": io.total_writes,
                "io.xor_words": io.xor_words,
                "io.kernel_invocations": io.kernel_invocations,
                "io.flush_batches": io.flush_batches,
                "io.flushed_elements": io.flushed_elements,
                "io.journal_records": io.journal_records,
                "io.journal_bytes": io.journal_bytes,
                "cache.hits": cache["hits"],
                "cache.misses": cache["misses"],
                "cache.evictions": cache["evictions"],
                "cache.flushes": cache["flushes"],
                "cache.flushed_elements": cache["flushed_elements"],
                "store.data_writes": store.data_writes,
                "store.parity_writes": store.parity_writes,
                "journal.truncations": store.journal.device.truncations,
                "healing.escalations": store.healing.escalations,
            }
        )
    return dict(out)


def plan_cache_counters() -> dict[str, int]:
    stats = engine.PLAN_CACHE.stats()
    return {f"plan_cache.{k}": stats[k] for k in ("hits", "misses", "evictions")}


def crc_failures(datas: list[bytes], expected: list[int]) -> int:
    return sum(zlib.crc32(d) != e for d, e in zip(datas, expected))


def volume_mismatches(read, model: ByteModel, chunk: int) -> int:
    """Read the whole volume back ``chunk`` bytes at a time; count the
    chunks that differ from the model."""
    view = memoryview(model.buf)
    return sum(
        read(off, chunk) != view[off : off + chunk]
        for off in range(0, len(model.buf), chunk)
    )


class Workload:
    """Shared shape: seeded ops in ``__init__``, program objects in
    :meth:`build`, one replay per :meth:`block`."""

    name = ""
    #: ops counted by ``ops_per_s`` / reads + writes issued, per block
    ops_per_block = 0
    issued_per_block = 0
    user_bytes_per_block = 0
    #: counter keys that legitimately vary between blocks
    inexact: frozenset[str] = frozenset()
    #: threads that run program code (the client, plus scheduler workers)
    threads = 1
    #: which loop of :class:`bench.calibrate.Calibrator` scores the blocks
    calibration = "mix"
    #: bytes the block's rebuilds restore (store-degraded)
    rebuilt_bytes = 0

    @property
    def work_per_block(self) -> int:
        """Every op a block executes: the denominator of the ``*_per_op``
        layer metrics (serve-zipf adds its sync phase)."""
        return self.ops_per_block

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def build(self) -> None:
        raise NotImplementedError

    def block(self) -> Block:
        raise NotImplementedError

    def counters(self) -> dict[str, int]:
        """Cumulative program counters; per-block deltas must repeat."""
        raise NotImplementedError

    def verify(self) -> int:
        """Final oracle pass; returns the number of mismatches."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Fixed facts of this instance for the host fingerprint."""
        return {"ops_sha256": self.ops_sha256}

    def boundaries(self) -> dict:
        """Rung name -> replay function of the boundary ladder, bottom
        to top; empty where the workload has only one boundary."""
        return {}


class StoreWorkload(Workload):
    """Shared by the two workloads that drive one ``FileStore`` directly."""

    stripes = 0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.code = get_code(CODE, P)
        self.elements = self.stripes * self.code.data_elements_per_stripe
        self.capacity = self.elements * ELEMENT_SIZE

    def _settle(self, ops: list[BenchOp], fill: list[BenchOp] = ()) -> None:
        """Build the model: ``fill`` lands once, ``ops`` repeat every block."""
        self.ops_sha256 = ops_sha256([*fill, *ops])
        self.model = ByteModel(self.capacity)
        for op in fill:
            self.model.apply(op)
        crcs = self.model.settle(ops)
        self.expected = [c for c in crcs if c is not None]

    def build(self) -> None:
        self.store = FileStore(
            self.code,
            element_size=ELEMENT_SIZE,
            engine=ENGINE,
            cache_stripes=CACHE_STRIPES,
        )
        self.store.reserve(self.stripes)

    def counters(self) -> dict[str, int]:
        return {**store_counters([self.store]), **plan_cache_counters()}

    def verify(self) -> int:
        return volume_mismatches(
            self.store.read, self.model, self.store.bytes_per_stripe
        )


def replay_timed(store: FileStore, ops: list[BenchOp], reads: list, writes: list, datas: list) -> None:
    """Run ``ops`` against ``store``, timing every call on its own."""
    now = time.perf_counter
    read, write = store.read, store.write
    for op in ops:
        if op.payload is None:
            start = now()
            data = read(op.offset, op.size)
            reads.append(now() - start)
            datas.append(data)
        else:
            start = now()
            write(op.offset, op.payload)
            writes.append(now() - start)


class StoreWrite(StoreWorkload):
    """The paper's partial-stripe-write mix over a volume far larger
    than the stripe cache and the plan cache."""

    name = "store-write"
    stripes = 256
    ops_per_block = issued_per_block = 1000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.ops = partial_write_mix(
            self.rng,
            self.ops_per_block,
            elements=self.elements,
            element_size=ELEMENT_SIZE,
            write_share=0.8,
        )
        self.user_bytes_per_block = sum(op.size for op in self.ops)
        self._settle(self.ops)

    def block(self) -> Block:
        reads: list[float] = []
        writes: list[float] = []
        datas: list[bytes] = []
        now = time.perf_counter
        start = now()
        replay_timed(self.store, self.ops, reads, writes, datas)
        flush_start = now()
        self.store.flush()
        end = now()
        return Block(
            seconds=end - start,
            busy_s=end - start,
            timed_s=sum(reads) + sum(writes) + (end - flush_start),
            read_s=np.array(reads),
            write_s=np.array(writes),
            failed=crc_failures(datas, self.expected),
        )


class StoreDegraded(StoreWorkload):
    """Fail a disk, read and write degraded, fail a second, read
    double-degraded, rebuild both — the FileStore used for recovery.

    A block does that five times over, each round with another pair of
    disks, so that every disk fails once and only the pairing is drawn
    from the seed: what a degraded read costs depends on which columns
    are gone, and one pair per run made the seed, not the program, the
    largest term in the run-to-run spread.
    """

    name = "store-degraded"
    stripes = 32
    rounds = 5
    reads_per_phase = 60
    degraded_writes = 20
    issued_per_block = rounds * (2 * reads_per_phase + degraded_writes)
    # each stripe a rebuild restores counts as one op
    ops_per_block = issued_per_block + rounds * 2 * stripes

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        shape = dict(
            stripes=self.stripes,
            stripe_elements=self.code.data_elements_per_stripe,
            element_size=ELEMENT_SIZE,
        )
        # Runs of 1..10 contiguous elements (Fig. 7), every length equally often.
        read_runs = list(range(1, 11)) * (self.reads_per_phase // 10)
        write_runs = list(range(1, 11)) * (self.degraded_writes // 10)
        self.fill = [BenchOp("write", 0, self.capacity, self.rng.bytes(self.capacity))]
        disks = self.rng.permutation(self.code.cols)[: 2 * self.rounds].tolist()
        #: per round: ((d1, d2), single-degraded reads + writes, double-degraded reads)
        self.plan = [
            (
                (disks[2 * r], disks[2 * r + 1]),
                element_run_ops(self.rng, False, read_runs, **shape)
                + element_run_ops(self.rng, True, write_runs, **shape),
                element_run_ops(self.rng, False, read_runs, **shape),
            )
            for r in range(self.rounds)
        ]
        ops = [op for _, single, double in self.plan for op in single + double]
        self.rebuilt_bytes = (
            self.rounds * 2 * self.stripes * self.code.rows * ELEMENT_SIZE
        )
        self.user_bytes_per_block = sum(op.size for op in ops) + self.rebuilt_bytes
        self._settle(ops, self.fill)

    def describe(self) -> dict:
        return {**super().describe(), "failed_disks": [pair for pair, _, _ in self.plan]}

    def build(self) -> None:
        super().build()
        (fill,) = self.fill
        self.store.write(fill.offset, fill.payload)
        self.store.flush()

    def block(self) -> Block:
        reads: list[float] = []
        writes: list[float] = []
        datas: list[bytes] = []
        store = self.store
        now = time.perf_counter
        structural = rebuild_s = 0.0
        start = now()
        for (d1, d2), single, double in self.plan:
            mark = now()
            store.fail_disk(d1)
            structural += now() - mark
            replay_timed(store, single, reads, writes, datas)
            mark = now()
            store.fail_disk(d2)
            structural += now() - mark
            replay_timed(store, double, reads, writes, datas)
            mark = now()
            store.rebuild(d1)
            store.rebuild(d2)
            rebuild_s += now() - mark
        end = now()
        return Block(
            seconds=end - start,
            busy_s=end - start,
            timed_s=sum(reads) + sum(writes) + structural + rebuild_s,
            read_s=np.array(reads),
            write_s=np.array(writes),
            failed=crc_failures(datas, self.expected),
            rebuild_s=rebuild_s,
        )

    def verify(self) -> int:
        return len(self.store.scrub()) + super().verify()


class ServeZipf(Workload):
    """The served number: a sharded pool behind the request scheduler."""

    name = "serve-zipf"
    stripes = 64
    shards = 2
    workers = 2
    threads = 1 + workers
    queue_depth = 128
    window_ops = 6000
    sync_ops = 600
    ops_per_block = window_ops
    issued_per_block = work_per_block = window_ops + sync_ops
    #: two shards share one process-wide plan LRU, and which shard
    #: reaches it first depends on thread timing
    inexact = frozenset(
        {"plan_cache.hits", "plan_cache.misses", "plan_cache.evictions"}
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        code = get_code(CODE, P)
        self.stripe_bytes = code.data_elements_per_stripe * ELEMENT_SIZE
        mix = dict(
            stripes=self.stripes,
            groups=self.shards,
            stripe_bytes=self.stripe_bytes,
            skew=1.2,
            write_share=0.5,
            max_bytes=4096,
        )
        #: the first ``window_ops`` are submitted as a window, the rest
        #: one at a time; one draw, so both phases share their hot stripes
        self.ops = zipf_ops(self.rng, self.window_ops + self.sync_ops, **mix)
        self.user_bytes_per_block = sum(
            op.size for op in self.ops[: self.window_ops]
        )
        self.ops_sha256 = ops_sha256(self.ops)
        self.model = ByteModel(self.stripes * self.stripe_bytes)
        self.crcs = self.model.settle(self.ops)

    def build(self) -> None:
        self.pool = VolumePool(
            CODE,
            P,
            num_stripes=self.stripes,
            element_size=ELEMENT_SIZE,
            num_shards=self.shards,
            policy="range",
            engine=ENGINE,
            cache_stripes=CACHE_STRIPES,
        )
        self.flushes = [Op("flush", shard=s) for s in range(self.shards)]
        #: each op as the scheduler's ``Op`` with its shard and local offset
        self.requests: list[tuple[Op, int, int]] = []
        for op in self.ops:
            shard, local = self.pool.locate(op.offset, op.size)
            if op.payload is None:
                request = Op("read", offset=op.offset, size=op.size)
            else:
                request = Op("write", offset=op.offset, payload=op.payload)
            self.requests.append((request, shard, local))

    def _scheduler(self) -> RequestScheduler:
        return RequestScheduler(
            self.pool,
            workers=self.workers,
            queue_depth=self.queue_depth,
            keep_results=True,
        )

    def _failures(self, sched: RequestScheduler, requests, crcs) -> int:
        """Match results to ops (per-shard FIFO) and check status and bytes."""
        queues: list[list[int]] = [[] for _ in range(self.shards)]
        for i, (_, shard, _) in enumerate(requests):
            queues[shard].append(i)
        cursors = [0] * self.shards
        failed = 0
        results = sched.results
        for result in results:
            if result.kind == "flush":
                failed += result.status != "ok"
                continue
            i = queues[result.shard][cursors[result.shard]]
            cursors[result.shard] += 1
            bad = result.status != "ok" or result.kind != requests[i][0].kind
            if not bad and result.kind == "read":
                bad = zlib.crc32(result.data) != crcs[i]
            failed += bad
        return failed + len(requests) + len(self.flushes) - len(results)

    def windowed(self, requests, crcs) -> tuple[np.ndarray, int, int]:
        """Blocking submits of all ``requests``, one flush per shard,
        drain.  Returns ``(clocks elapsed, backpressure waits, failures)``."""
        with self._scheduler() as sched:
            submit = sched.submit
            start = _clocks()
            for request, _, _ in requests:
                submit(request)
            for flush in self.flushes:
                submit(flush)
            sched.drain()
            elapsed = _clocks() - start
        failed = self._failures(sched, requests, crcs)
        return elapsed, sched.stats.backpressure_waits, failed

    def block(self) -> Block:
        split = self.window_ops
        window, waits, failed = self.windowed(self.requests[:split], self.crcs[:split])
        sync_requests = self.requests[split:]
        now = time.perf_counter
        reads: list[float] = []
        writes: list[float] = []
        with self._scheduler() as sched:
            submit, drain = sched.submit, sched.drain
            sync_start = _clocks()
            for request, _, _ in sync_requests:
                start = now()
                submit(request)
                drain()
                (reads if request.kind == "read" else writes).append(now() - start)
            for flush in self.flushes:
                submit(flush)
            drain()
            busy = window + (_clocks() - sync_start)
        failed += self._failures(sched, sync_requests, self.crcs[split:])
        service = sched.stats.latencies
        return Block(
            seconds=window[0],
            busy_s=busy[0],
            timed_s=None,
            read_s=np.array(reads),
            write_s=np.array(writes),
            failed=failed,
            backpressure_waits=waits,
            cpu_s=busy[1],
            client_cpu_s=busy[2],
            client_wait_share=1.0 - window[2] / window[0],
            service_read_s=np.array(service["read"]),
            service_write_s=np.array(service["write"]),
        )

    # -- the boundary ladder -----------------------------------------------------
    # Each rung replays the *whole* op list (window and sync ops alike, so
    # the volume stays at its fixed point) and returns the seconds it took.

    def model_boundary(self) -> float:
        apply = self.model.apply
        start = time.perf_counter()
        for op in self.ops:
            apply(op)
        return time.perf_counter() - start

    def store_boundary(self) -> float:
        stores = self.pool.shards
        start = time.perf_counter()
        for request, shard, local in self.requests:
            if request.payload is None:
                stores[shard].read(local, request.size)
            else:
                stores[shard].write(local, request.payload)
        for store in stores:
            store.flush()
        return time.perf_counter() - start

    def pool_boundary(self) -> float:
        """What a scheduler worker does per op, minus the scheduler."""
        pool = self.pool
        start = time.perf_counter()
        for request, shard, _ in self.requests:
            with pool.lock(shard).write_locked():
                if request.payload is None:
                    _, local = pool.locate(request.offset, request.size)
                    pool.read(shard, local, request.size)
                else:
                    _, local = pool.locate(request.offset, len(request.payload))
                    pool.write(shard, local, request.payload)
        for shard in range(self.shards):
            with pool.lock(shard).write_locked():
                pool.flush(shard)
        return time.perf_counter() - start

    def scheduler_boundary(self) -> float:
        return self.windowed(self.requests, self.crcs)[0][0]

    def boundaries(self) -> dict:
        return {
            "model": self.model_boundary,
            "store": self.store_boundary,
            "pool": self.pool_boundary,
            "scheduler": self.scheduler_boundary,
        }

    def counters(self) -> dict[str, int]:
        return {**store_counters(self.pool.shards), **plan_cache_counters()}

    def verify(self) -> int:
        def read(offset: int, size: int) -> bytes:
            shard, local = self.pool.locate(offset, size)
            return self.pool.read(shard, local, size)

        return volume_mismatches(read, self.model, self.stripe_bytes)


class EngineBatch(Workload):
    """The bottom boundary: compiled plans over a DRAM-resident batch."""

    name = "engine-batch"
    calibration = "stream"
    lanes = 8
    element_size = 64 * 1024
    calls = 80
    ops_per_block = issued_per_block = calls

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.code = get_code(CODE, P)
        d1, d2 = sorted(self.rng.choice(self.code.cols, size=2, replace=False))
        self.disks = (int(d1), int(d2))
        self.data_seed = int(self.rng.integers(1 << 62))
        self.ops_sha256 = hashlib.sha256(
            f"{self.calls} x encode/recover-double{self.disks} "
            f"over data seed {self.data_seed}".encode()
        ).hexdigest()
        self.user_bytes_per_block = (
            self.calls
            * self.lanes
            * self.code.data_elements_per_stripe
            * self.element_size
        )

    def describe(self) -> dict:
        return {**super().describe(), "failed_disks": list(self.disks)}

    def build(self) -> None:
        code = self.code
        self.io = IOStats(code.cols)
        self.elem_io = 0
        self.plans = [
            engine.compile_plan(code, "encode"),
            engine.compile_plan(code, "recover-double", self.disks),
        ]
        self.batch = StripeBatch(code.rows, code.cols, self.element_size, self.lanes)
        rng = np.random.default_rng(self.data_seed)
        for r, c in code.data_positions:
            self.batch.data[:, r, c] = rng.integers(
                0, 256, (self.lanes, self.element_size), dtype=np.uint8
            )
        engine.execute_plan(self.plans[0], self.batch, backend=ENGINE)
        self.originals = self.batch.data[:, :, list(self.disks)].copy()

    def block(self) -> Block:
        now = time.perf_counter
        batch, io = self.batch, self.io
        samples: tuple[list[float], list[float]] = ([], [])
        start = now()
        for call in range(self.calls):
            plan = self.plans[call & 1]
            call_start = now()
            engine.execute_plan(plan, batch, stats=io, backend=ENGINE)
            samples[call & 1].append(now() - call_start)
        seconds = now() - start
        self.elem_io += (self.calls // 2) * self.lanes * sum(
            len(plan.reads) + len(plan.outputs) for plan in self.plans
        )
        return Block(
            seconds=seconds,
            busy_s=seconds,
            timed_s=sum(samples[0]) + sum(samples[1]),
            read_s=np.array(samples[1]),  # recover-double
            write_s=np.array(samples[0]),  # encode
        )

    def counters(self) -> dict[str, int]:
        return {
            "io.reads": self.elem_io,
            "io.writes": 0,
            "io.xor_words": self.io.xor_words,
            "io.kernel_invocations": self.io.kernel_invocations,
            **plan_cache_counters(),
        }

    def verify(self) -> int:
        """Parity holds after an encode; a recover over zeroed columns
        brings back the original bytes."""
        encode, recover = self.plans
        engine.execute_plan(encode, self.batch, backend=ENGINE)
        failed = sum(not self.code.verify(s) for s in self.batch.stripes())
        self.batch.data[:, :, list(self.disks)] = 0
        engine.execute_plan(recover, self.batch, backend=ENGINE)
        restored = self.batch.data[:, :, list(self.disks)]
        return failed + int(not np.array_equal(restored, self.originals))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeZipf, StoreWrite, StoreDegraded, EngineBatch)
}
