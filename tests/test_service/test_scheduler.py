"""Tests for the concurrent RequestScheduler.

The heart of the suite is the differential oracle: per-shard FIFO
means a concurrent serve must land byte-identical state to a
single-threaded replay of the same trace, for any worker count.
"""

import threading
import time

import pytest

from repro.exceptions import (
    BackpressureError,
    InvalidParameterError,
    ServiceError,
)
from repro.service import Op, RequestScheduler, VolumePool
from repro.service.bench import _payload, _payload_block, _replay_single
from repro.workloads import service_trace


def make_pool(**kw):
    kw.setdefault("num_stripes", 8)
    kw.setdefault("element_size", 32)
    kw.setdefault("num_shards", 2)
    kw.setdefault("cache_stripes", 2)
    return VolumePool("HV", 5, **kw)


def serve(pool, trace, block, workers, **sched_kw):
    with RequestScheduler(pool, workers=workers, **sched_kw) as sched:
        for i, op in enumerate(trace):
            if op.kind == "write":
                sched.submit(
                    Op("write", offset=op.offset,
                       payload=_payload(block, i, op.size))
                )
            else:
                sched.submit(Op("read", offset=op.offset, size=op.size))
    return sched.stats


class TestDifferentialOracle:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_concurrent_serve_matches_single_threaded_replay(self, workers):
        pool = make_pool()
        trace = service_trace(8, pool.bytes_per_stripe, 800, seed=11)
        block = _payload_block(11)
        serve(pool, trace, block, workers)
        pool.flush_all()

        oracle = make_pool()
        _replay_single(oracle, trace, block)
        oracle.flush_all()

        assert pool.content_digest() == oracle.content_digest()

    def test_worker_count_does_not_change_state(self):
        digests = []
        for workers in (1, 2, 5):
            pool = make_pool()
            trace = service_trace(8, pool.bytes_per_stripe, 500, seed=7)
            block = _payload_block(7)
            serve(pool, trace, block, workers)
            pool.flush_all()
            digests.append(pool.content_digest())
        assert len(set(digests)) == 1

    def test_read_results_match_written_bytes(self):
        pool = make_pool()
        shard, _ = pool.locate(0, 4)
        with RequestScheduler(pool, workers=2, keep_results=True) as sched:
            sched.submit(Op("write", offset=0, payload=b"abcd"))
            sched.submit(Op("read", offset=0, size=4))
        reads = [r for r in sched.results if r.kind == "read"]
        assert reads[0].data == b"abcd"
        assert reads[0].status == "ok"


class TestLifecycleAndRouting:
    def test_validation(self):
        pool = make_pool()
        with pytest.raises(InvalidParameterError):
            RequestScheduler(pool, workers=0)
        with pytest.raises(InvalidParameterError):
            RequestScheduler(pool, queue_depth=0)

    def test_submit_outside_lifetime_rejected(self):
        pool = make_pool()
        sched = RequestScheduler(pool)
        with pytest.raises(ServiceError):
            sched.submit(Op("read", offset=0, size=1))
        sched.start()
        sched.close()
        with pytest.raises(ServiceError):
            sched.submit(Op("read", offset=0, size=1))

    def test_double_start_rejected(self):
        pool = make_pool()
        with RequestScheduler(pool) as sched:
            with pytest.raises(ServiceError):
                sched.start()

    def test_unknown_op_kind_rejected(self):
        pool = make_pool()
        with RequestScheduler(pool) as sched:
            with pytest.raises(ServiceError):
                sched.submit(Op("scrub"))

    def test_shard_ops_need_a_shard(self):
        pool = make_pool()
        with RequestScheduler(pool) as sched:
            with pytest.raises(ServiceError):
                sched.submit(Op("flush"))

    @pytest.mark.parametrize(
        "op",
        [
            Op("write", offset=0),
            Op("fail", shard=0),
            Op("rebuild", shard=0),
        ],
        ids=["write-without-payload", "fail-without-disk", "rebuild-without-disk"],
    )
    def test_malformed_op_rejected_at_submit(self, op):
        pool = make_pool()
        with RequestScheduler(pool) as sched:
            with pytest.raises(ServiceError):
                sched.submit(op)
        assert sched.stats.total_ops == 0  # nothing was queued

    def test_results_guarded_by_keep_results(self):
        pool = make_pool()
        with RequestScheduler(pool) as sched:
            sched.submit(Op("read", offset=0, size=1))
        with pytest.raises(ServiceError):
            sched.results

    def test_stats_consistency(self):
        pool = make_pool()
        with RequestScheduler(pool, workers=3) as sched:
            for i in range(40):
                sched.submit(Op("read", offset=(i % 8) * 4, size=2))
        stats = sched.stats
        assert stats.total_ops == 40
        assert stats.statuses["ok"] == 40
        stats.check_consistency()


class TestBackpressure:
    def test_nonblocking_submit_rejected_when_full(self):
        pool = make_pool()
        # Park shard 0 so its queue can only grow.
        pool.lock(0).acquire_write()
        with RequestScheduler(pool, workers=1, queue_depth=4) as sched:
            try:
                accepted = 0
                with pytest.raises(BackpressureError):
                    for _ in range(20):
                        sched.submit(
                            Op("read", offset=0, size=1), block=False
                        )
                        accepted += 1
                assert accepted >= 4  # the queue really was full
            finally:
                pool.lock(0).release_write()
        assert sched.stats.rejected >= 1

    def test_blocking_submit_waits_and_counts(self):
        pool = make_pool()
        pool.lock(0).acquire_write()
        pumped = threading.Event()
        with RequestScheduler(pool, workers=1, queue_depth=2) as sched:
            try:

                def pump():
                    for _ in range(6):
                        sched.submit(Op("read", offset=0, size=1))
                    pumped.set()

                t = threading.Thread(target=pump, daemon=True)
                t.start()
                # the pump must stall on the saturated queue...
                assert not pumped.wait(0.1)
            finally:
                pool.lock(0).release_write()
            assert pumped.wait(2.0)  # ...and finish once ops drain
            t.join()
        assert sched.stats.backpressure_waits >= 1
        assert sched.stats.statuses["ok"] == 6


class TestDeadlines:
    def test_stale_op_expires_without_touching_the_shard(self):
        pool = make_pool()
        pool.lock(0).acquire_write()
        held = True
        try:
            with RequestScheduler(pool, workers=2) as sched:
                # First op blocks on the held lock; the second sits
                # queued behind the busy shard past its deadline.
                sched.submit(Op("read", offset=0, size=1))
                sched.submit(
                    Op("write", offset=0, payload=b"x", deadline=0.01)
                )
                time.sleep(0.08)
                pool.lock(0).release_write()
                held = False
        except BaseException:
            if held:
                pool.lock(0).release_write()
            raise
        stats = sched.stats
        assert stats.statuses["expired"] == 1
        assert stats.statuses["ok"] == 1
        # the expired write never landed
        shard, local = pool.locate(0, 1)
        assert pool.read(shard, local, 1) == b"\x00"


class TestFaultOpsAndRebuildProgress:
    def test_op_error_is_recorded_not_raised(self):
        pool = make_pool()
        with RequestScheduler(pool, workers=1) as sched:
            sched.submit(Op("rebuild", shard=0, disk=0))  # disk not failed
        stats = sched.stats
        assert stats.statuses["error"] == 1
        assert "InvalidParameterError" in stats.errors[0]

    def test_other_shards_progress_during_rebuild(self):
        # Shard 0's rebuild is held open until the scheduler has counted
        # an op completed on shard 1, so this checks the overlap
        # accounting and not how long a rebuild happens to take.
        pool = make_pool(num_stripes=48, element_size=256, num_shards=2)
        bps = pool.bytes_per_stripe
        shard1_stripe = next(
            s for s in range(48) if pool.policy.shard_of(s, pool.num_stripes) == 1
        )
        store = pool.shards[0]
        rebuild = store.rebuild
        started = threading.Event()
        overlapped = []
        with RequestScheduler(pool, workers=2, queue_depth=600) as sched:

            def held_rebuild(disk):
                before = sched.completed
                started.set()
                deadline = time.monotonic() + 10.0
                while sched.completed == before and time.monotonic() < deadline:
                    time.sleep(0.001)
                overlapped.append(sched.completed > before)
                rebuild(disk)

            store.rebuild = held_rebuild
            sched.submit(Op("fail", shard=0, disk=0))
            sched.submit(Op("rebuild", shard=0, disk=0))
            # Only now queue shard 1's reads: none can finish before the
            # rebuild window opens.
            assert started.wait(10.0)
            for _ in range(500):
                sched.submit(
                    Op("read", offset=shard1_stripe * bps, size=8)
                )
        assert overlapped == [True]  # else the hold timed out
        stats = sched.stats
        windows = stats.rebuild_windows
        assert len(windows) == 1
        assert windows[0]["status"] == "ok"
        assert windows[0]["ops_completed_elsewhere"] > 0
        assert stats.statuses["ok"] == 502


JOIN = 10.0  # seconds any wait in these tests may take before it fails


def first_stripe_on(pool, shard):
    return next(
        s for s in range(pool.num_stripes)
        if pool.policy.shard_of(s, pool.num_stripes) == shard
    )


class Gate:
    """Holds a drain open: every read on ``shard`` announces itself
    and waits for a permit, until the gate is opened for good."""

    def __init__(self, pool, shard=0):
        self._arrivals = threading.Semaphore(0)
        self._permits = threading.Semaphore(0)
        self._open = False
        store = pool.shards[shard]
        read = store.read

        def gated(offset, size):
            if not self._open:
                self._arrivals.release()
                assert self._permits.acquire(timeout=JOIN)
            return read(offset, size)

        store.read = gated

    def wait_arrival(self):
        """Block until one more read is waiting at the gate."""
        assert self._arrivals.acquire(timeout=JOIN)

    def let_one_through(self):
        self._permits.release()

    def open(self):
        self._open = True
        self._permits.release()  # whoever is waiting right now


def close_within(sched, seconds=JOIN):
    """``close()`` on a helper thread, so a hang fails instead of hanging."""
    closer = threading.Thread(target=sched.close, daemon=True)
    closer.start()
    closer.join(seconds)
    assert not closer.is_alive(), "close() did not return"
    return sched.stats


class TestWorkerSurvivesAnyException:
    """A non-ReproError used to kill the worker with its shard claimed:
    ``drain()`` and ``close()`` then waited forever."""

    def test_drain_of_one(self):
        pool = make_pool()

        def broken(offset, data):
            raise RuntimeError("disk on fire")

        pool.shards[0].write = broken
        sched = RequestScheduler(pool, workers=1).start()
        sched.submit(Op("write", offset=0, payload=b"x"))
        # the shard stays serveable and the worker alive
        sched.submit(Op("read", offset=0, size=1))
        stats = close_within(sched)
        assert all(not t.is_alive() for t in sched._threads)
        assert stats.statuses == {"ok": 1, "expired": 0, "error": 1}
        assert stats.errors == ["RuntimeError: disk on fire"]

    def test_second_op_of_a_longer_drain(self):
        pool = make_pool()
        gate = Gate(pool)
        calls = []
        write = pool.shards[0].write

        def second_write_breaks(offset, data):
            calls.append(data)
            if len(calls) == 1:
                raise KeyError("not a ReproError")
            write(offset, data)

        pool.shards[0].write = second_write_breaks
        sched = RequestScheduler(pool, workers=1, keep_results=True).start()
        sched.submit(Op("read", offset=0, size=1))
        gate.wait_arrival()
        # queued behind the gated read: one drain serves all three
        sched.submit(Op("write", offset=0, payload=b"a"))
        sched.submit(Op("write", offset=0, payload=b"b"))
        sched.submit(Op("read", offset=0, size=1))
        gate.open()
        stats = close_within(sched)
        assert [r.status for r in sched.results] == ["ok", "error", "ok", "ok"]
        assert sched.results[-1].data == b"b"
        assert stats.errors == ["KeyError: 'not a ReproError'"]
        assert pool.lock(0).acquire_write() is None  # not left held
        pool.lock(0).release_write()


class TestCloseBeforeStart:
    def test_never_started_scheduler_reports_no_wall_time(self):
        stats = RequestScheduler(make_pool()).close()
        assert stats.wall_seconds == 0.0
        assert stats.ops_per_second == 0.0
        assert stats.total_ops == 0


class TestQueueWait:
    def test_every_completed_op_has_a_queue_wait(self):
        pool = make_pool()
        gate = Gate(pool)
        with RequestScheduler(pool, workers=2) as sched:
            sched.submit(Op("read", offset=0, size=1))
            gate.wait_arrival()
            for _ in range(5):
                sched.submit(Op("write", offset=0, payload=b"q"))
            time.sleep(0.02)  # the writes sit queued behind the gate
            gate.open()
        stats = sched.stats
        assert len(stats.queue_waits) == stats.total_ops == 6
        summary = stats.timing_dict()["queue_wait"]
        assert summary["count"] == 6
        assert summary["max_us"] >= 20_000  # the gated 20 ms are visible
        assert min(stats.queue_waits) >= 0.0
        # timing half only: the pinned smoke hash cannot see it
        assert "queue_wait" not in stats.deterministic_dict()


class TestDrain:
    """A worker that wins a shard serves what was queued on it at that
    moment under one hold of the shard's write lock."""

    def test_mixed_drain_matches_single_thread_replay(self):
        def ops(pool):
            bps = pool.bytes_per_stripe
            mine = first_stripe_on(pool, 0) * bps
            return [
                Op("read", offset=mine, size=4),
                Op("write", offset=mine + 3, payload=b"first"),
                Op("flush", shard=0),
                Op("fail", shard=0, disk=1),
                Op("write", offset=mine + 40, payload=b"degraded"),
                Op("read", offset=mine, size=64),
                Op("rebuild", shard=0, disk=1),
                Op("write", offset=mine + 5, payload=b"after"),
                Op("flush", shard=0),
            ]

        pool = make_pool()
        gate = Gate(pool)
        acquires = []
        lock = pool.lock(0)
        acquire = lock.acquire_write

        def counted():
            acquires.append(1)
            acquire()

        lock.acquire_write = counted
        with RequestScheduler(pool, workers=1, keep_results=True) as sched:
            stream = ops(pool)
            sched.submit(stream[0])
            gate.wait_arrival()
            for op in stream[1:]:
                sched.submit(op)
            gate.open()
        assert [r.kind for r in sched.results] == [op.kind for op in stream]
        assert all(r.status == "ok" for r in sched.results)
        # one hold for the gated read (a drain of one), one for the rest
        assert len(acquires) == 2

        oracle = make_pool()
        with RequestScheduler(oracle, workers=1) as replay:
            for op in ops(oracle):
                replay.submit(op)
                replay.drain()  # one op per drain: the per-op path
        assert pool.content_digest() == oracle.content_digest()
        assert (
            sched.stats.deterministic_dict() == replay.stats.deterministic_dict()
        )

    def test_low_water_releases_a_blocked_submitter(self):
        depth = 3  # low-water mark 1
        pool = make_pool()
        gate = Gate(pool)
        stripe0 = first_stripe_on(pool, 0) * pool.bytes_per_stripe
        sched = RequestScheduler(pool, workers=1, queue_depth=depth).start()
        sched.submit(Op("read", offset=stripe0, size=1))
        gate.wait_arrival()  # a drain of one, held open
        for _ in range(depth):
            sched.submit(Op("read", offset=stripe0, size=1))
        with pytest.raises(BackpressureError):
            sched.submit(Op("read", offset=stripe0, size=1), block=False)

        seen = []

        def look():
            with sched._lock:
                seen.append(
                    (sched._queued, sched._inflight, sched._backpressure_waits)
                )

        admitted = threading.Event()
        write = pool.shards[0].write

        def observing_write(offset, data):
            look()  # inside the last drain
            write(offset, data)

        pool.shards[0].write = observing_write

        def blocked():
            sched.submit(Op("write", offset=stripe0, payload=b"w"))
            admitted.set()

        submitter = threading.Thread(target=blocked, daemon=True)
        submitter.start()
        deadline = time.monotonic() + JOIN
        while time.monotonic() < deadline:
            with sched._lock:
                if sched._backpressure_waits:
                    break
            time.sleep(0.001)
        look()
        assert seen[-1] == (depth, 1, 1)  # the submitter waits at a full queue
        # End the drain of one: the next drain pops its first read and
        # leaves 2 queued, above the mark, so the submitter sleeps on.
        gate.let_one_through()
        gate.wait_arrival()
        assert not admitted.wait(0.1), "a pop above the mark released it"
        look()
        assert seen[-1] == (depth - 1, 1, 1)
        # The next pop leaves 1 queued, at the mark: that one admits it.
        gate.let_one_through()
        gate.wait_arrival()
        assert admitted.wait(JOIN), "the low-water pop did not release it"
        look()
        gate.open()
        submitter.join(JOIN)
        stats = close_within(sched)
        assert stats.statuses["ok"] == depth + 2
        assert stats.backpressure_waits == 1
        assert all(q <= depth and i <= 1 and w == 1 for q, i, w in seen)
        assert seen[-1] == (0, 1, 1)  # the write, last of the third drain

    @pytest.mark.parametrize("depth", [3, 8])
    def test_blocked_submits_refill_half_the_queue(self, depth):
        """Each wait starts at a full queue and ends at or below the
        mark, so a lone client admits ``depth - depth // 2`` ops per
        wait, however the threads are scheduled."""
        ops = 120
        pool = make_pool()
        read = pool.shards[0].read

        def slow_read(offset, size):
            time.sleep(0.0002)  # a worker slower than its client
            return read(offset, size)

        pool.shards[0].read = slow_read
        stripe0 = first_stripe_on(pool, 0) * pool.bytes_per_stripe
        sched = RequestScheduler(pool, workers=1, queue_depth=depth).start()
        for _ in range(ops):
            sched.submit(Op("read", offset=stripe0, size=1))
        stats = close_within(sched)
        assert stats.statuses["ok"] == ops
        assert 1 <= stats.backpressure_waits <= 1 + max(0, ops - depth) // (
            depth - depth // 2
        )

    def test_every_blocked_submitter_is_admitted(self):
        clients, per_client, depth = 4, 40, 4
        pool = make_pool()
        bps = pool.bytes_per_stripe
        served = []
        write = {s: pool.shards[s].write for s in range(pool.num_shards)}

        def recording(shard):
            def slow_write(offset, data):
                time.sleep(0.0001)  # keep the queue full
                served.append((shard, data))
                write[shard](offset, data)

            return slow_write

        for s in range(pool.num_shards):
            pool.shards[s].write = recording(s)
        sched = RequestScheduler(pool, workers=1, queue_depth=depth).start()

        def client(c):
            for i in range(per_client):
                sched.submit(
                    Op("write", offset=((c + i) % pool.num_stripes) * bps + c,
                       payload=b"%d:%03d" % (c, i), client=c)
                )

        threads = [
            threading.Thread(target=client, args=(c,), daemon=True)
            for c in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(JOIN)
        assert not any(t.is_alive() for t in threads), "a submitter stayed blocked"
        stats = close_within(sched)
        stats.check_consistency()
        assert stats.statuses["ok"] == clients * per_client
        assert stats.backpressure_waits >= 1
        tags = [data for _, data in served]
        assert sorted(tags) == sorted(
            b"%d:%03d" % (c, i) for c in range(clients) for i in range(per_client)
        )  # every op served exactly once
        for shard in range(pool.num_shards):
            for c in range(clients):
                mine = [
                    data for s, data in served
                    if s == shard and data.startswith(b"%d:" % c)
                ]
                assert mine == sorted(mine)  # each client's order, per shard

    def test_late_arrival_waits_for_the_other_shards(self):
        pool = make_pool(num_stripes=9, num_shards=3)
        bps = pool.bytes_per_stripe
        at = [first_stripe_on(pool, s) * bps for s in range(3)]
        gate = Gate(pool)
        with RequestScheduler(pool, workers=1, keep_results=True) as sched:
            sched.submit(Op("read", offset=at[0], size=1))
            gate.wait_arrival()
            # queued while shard 0 drains: two on the other shards
            # first, then one more on shard 0 itself
            sched.submit(Op("write", offset=at[1], payload=b"1"))
            sched.submit(Op("write", offset=at[2], payload=b"2"))
            sched.submit(Op("write", offset=at[0], payload=b"0"))
            gate.open()
        assert [r.shard for r in sched.results] == [0, 1, 2, 0]

    def test_deadline_passing_mid_drain_expires_only_that_op(self):
        pool = make_pool()
        stripe0 = first_stripe_on(pool, 0) * pool.bytes_per_stripe
        gate = Gate(pool)
        with RequestScheduler(pool, workers=1, keep_results=True) as sched:
            sched.submit(Op("read", offset=stripe0, size=1))
            gate.wait_arrival()
            sched.submit(Op("write", offset=stripe0, payload=b"kept"))
            sched.submit(Op("read", offset=stripe0, size=4))  # holds the drain
            sched.submit(
                Op("write", offset=stripe0, payload=b"late", deadline=0.05)
            )
            sched.submit(Op("read", offset=stripe0, size=4))
            gate.let_one_through()  # ends the drain of one; the next takes all four
            gate.wait_arrival()  # its second op, the read, is gated
            time.sleep(0.1)  # the deadline passes *inside* the drain
            gate.open()
        assert [r.status for r in sched.results] == [
            "ok", "ok", "ok", "expired", "ok",
        ]
        assert sched.results[-1].data == b"kept"

    def test_rebuild_inside_a_drain_counts_ops_elsewhere(self):
        pool = make_pool()
        bps = pool.bytes_per_stripe
        at = [first_stripe_on(pool, s) * bps for s in range(2)]
        gate = Gate(pool)
        rebuild = pool.shards[0].rebuild
        rebuilding, served_elsewhere = threading.Event(), threading.Event()

        def held_rebuild(disk):
            rebuilding.set()
            assert served_elsewhere.wait(JOIN)
            rebuild(disk)

        pool.shards[0].rebuild = held_rebuild
        with RequestScheduler(pool, workers=2) as sched:
            sched.submit(Op("read", offset=at[0], size=1))
            gate.wait_arrival()
            sched.submit(Op("fail", shard=0, disk=0))
            sched.submit(Op("rebuild", shard=0, disk=0))
            sched.submit(Op("read", offset=at[0], size=1))
            gate.open()
            assert rebuilding.wait(JOIN)
            for _ in range(7):
                sched.submit(Op("write", offset=at[1], payload=b"elsewhere"))
            deadline = time.monotonic() + JOIN
            while sched.completed < 9 and time.monotonic() < deadline:
                time.sleep(0.001)  # gated read + fail + the seven writes
            served_elsewhere.set()
        (window,) = sched.stats.rebuild_windows
        assert window == {
            "shard": 0, "status": "ok", "ops_completed_elsewhere": 7,
        }

    def test_invariants_hold_under_thread_churn(self):
        """More workers than cores, a 10 µs switch interval: a lost
        update to ``queued``/``inflight`` or a broken per-shard order
        would show as a bound breach, a hang or a digest mismatch."""
        import sys

        depth, workers = 8, 6
        pool = make_pool(num_stripes=12, num_shards=4)
        trace = service_trace(12, pool.bytes_per_stripe, 1500, seed=3)
        block = _payload_block(3)
        breaches = []
        stop = threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sched = RequestScheduler(
                pool, workers=workers, queue_depth=depth
            ).start()

            def watch():
                while not stop.is_set():
                    with sched._lock:
                        q, i = sched._queued, sched._inflight
                        busy = sum(sched._busy)
                    if not (0 <= q <= depth and 0 <= i <= workers and i <= busy):
                        breaches.append((q, i, busy))

            watcher = threading.Thread(target=watch, daemon=True)
            watcher.start()
            for i, op in enumerate(trace):
                if op.kind == "write":
                    sched.submit(
                        Op("write", offset=op.offset,
                           payload=_payload(block, i, op.size))
                    )
                else:
                    sched.submit(Op("read", offset=op.offset, size=op.size))
            stats = close_within(sched, 60.0)
            stop.set()
            watcher.join(JOIN)
        finally:
            sys.setswitchinterval(interval)
        assert breaches == []
        assert stats.statuses["ok"] == len(trace)
        pool.flush_all()
        oracle = make_pool(num_stripes=12, num_shards=4)
        _replay_single(oracle, trace, block)
        oracle.flush_all()
        assert pool.content_digest() == oracle.content_digest()
