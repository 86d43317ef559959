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
        except BaseException:
            if pool.lock(0).write_held:
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
            s for s in range(48) if pool.shard_of_stripe(s) == 1
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
