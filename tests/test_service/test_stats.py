"""Property tests: stats roll-ups are lossless, commutative folds.

The service reports one merged ledger no matter how ops were split
across shards and workers — these tests pin that contract for both
:meth:`IOStats.merge` (per-shard ledgers) and
:meth:`ServiceStats.from_recorders` (per-worker ledgers).
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.array.iostats import IOStats
from repro.exceptions import InvalidParameterError
from repro.service import (
    OP_KINDS,
    OP_STATUSES,
    ServiceStats,
    WorkerRecorder,
    latency_summary,
)

NUM_DISKS = 6

#: One recorded I/O event: (kind, disk, count).
io_events = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(0, NUM_DISKS - 1),
        st.integers(0, 5),
    ),
    max_size=60,
)

#: One completed service op: (kind, status, latency-µs, nbytes).
service_ops = st.lists(
    st.tuples(
        st.sampled_from(OP_KINDS),
        st.sampled_from(OP_STATUSES),
        st.integers(1, 10_000),
        st.integers(0, 4096),
    ),
    max_size=60,
)


def apply_events(stats, events):
    for kind, disk, count in events:
        if kind == "read":
            stats.record_read(disk, count)
        else:
            stats.record_write(disk, count)


def ledger_tuple(stats):
    return (
        tuple(stats.reads),
        tuple(stats.writes),
        stats.xor_words,
        stats.kernel_invocations,
        stats.flush_batches,
        stats.flushed_elements,
        stats.journal_records,
        stats.journal_bytes,
    )


class TestIOStatsMerged:
    @settings(max_examples=60, deadline=None)
    @given(events=io_events, split_seed=st.integers(0, 2**16))
    def test_merge_of_splits_equals_whole(self, events, split_seed):
        """Partition a stream arbitrarily; the merged ledger is the whole."""
        whole = IOStats(NUM_DISKS)
        apply_events(whole, events)
        parts = [IOStats(NUM_DISKS) for _ in range(4)]
        for i, event in enumerate(events):
            apply_events(parts[(i * split_seed) % 4], [event])
        merged = IOStats.merged(NUM_DISKS, parts)
        assert ledger_tuple(merged) == ledger_tuple(whole)

    @settings(max_examples=40, deadline=None)
    @given(events=io_events)
    def test_merge_is_commutative(self, events):
        parts = [IOStats(NUM_DISKS) for _ in range(3)]
        for i, event in enumerate(events):
            apply_events(parts[i % 3], [event])
        forward = IOStats.merged(NUM_DISKS, parts)
        backward = IOStats.merged(NUM_DISKS, list(reversed(parts)))
        assert ledger_tuple(forward) == ledger_tuple(backward)

    def test_merged_folds_compute_and_journal_counters(self):
        a = IOStats(NUM_DISKS)
        a.record_xor(100, 2)
        a.record_journal(64, 1)
        b = IOStats(NUM_DISKS)
        b.record_xor(50, 1)
        b.record_flush(8, 2)
        merged = IOStats.merged(NUM_DISKS, [a, b])
        assert merged.xor_words == 150
        assert merged.kernel_invocations == 3
        assert merged.flush_batches == 2
        assert merged.journal_records == 1

    def test_width_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            IOStats.merged(NUM_DISKS, [IOStats(NUM_DISKS + 1)])


def rollup_key(stats):
    """Everything deterministic about a roll-up, latencies as multisets."""
    return (
        stats.counts,
        stats.statuses,
        stats.bytes_read,
        stats.bytes_written,
        sorted(stats.errors),
        {k: Counter(v) for k, v in stats.latencies.items()},
    )


class TestServiceStatsRollup:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=service_ops,
        split_seed=st.integers(0, 2**16),
        num_workers=st.integers(1, 5),
    )
    def test_rollup_independent_of_worker_assignment(
        self, ops, split_seed, num_workers
    ):
        """Which worker served an op never changes the roll-up."""
        one = WorkerRecorder()
        many = [WorkerRecorder() for _ in range(num_workers)]
        for i, (kind, status, micros, nbytes) in enumerate(ops):
            seconds = micros * 1e-6
            one.record(kind, status, seconds, nbytes)
            many[(i * split_seed) % num_workers].record(
                kind, status, seconds, nbytes
            )
        assert rollup_key(
            ServiceStats.from_recorders([one])
        ) == rollup_key(ServiceStats.from_recorders(many))

    @settings(max_examples=40, deadline=None)
    @given(ops=service_ops)
    def test_rollup_commutative(self, ops):
        recs = [WorkerRecorder() for _ in range(3)]
        for i, (kind, status, micros, nbytes) in enumerate(ops):
            recs[i % 3].record(kind, status, micros * 1e-6, nbytes)
        assert rollup_key(
            ServiceStats.from_recorders(recs)
        ) == rollup_key(ServiceStats.from_recorders(list(reversed(recs))))

    @settings(max_examples=40, deadline=None)
    @given(ops=service_ops, num_workers=st.integers(1, 5))
    def test_queue_waits_are_one_per_completed_op(self, ops, num_workers):
        """Whatever the split, the roll-up holds exactly one queue wait
        per op, and summarises them in the timing half only."""
        recs = [WorkerRecorder() for _ in range(num_workers)]
        for i, (kind, status, micros, nbytes) in enumerate(ops):
            recs[i % num_workers].record(
                kind, status, micros * 1e-6, nbytes, queue_wait=i * 1e-6
            )
        stats = ServiceStats.from_recorders(recs)
        assert len(stats.queue_waits) == stats.total_ops == len(ops)
        assert Counter(stats.queue_waits) == Counter(
            i * 1e-6 for i in range(len(ops))
        )
        assert stats.timing_dict()["queue_wait"]["count"] == len(ops)
        assert "queue_wait" not in stats.deterministic_dict()

    def test_bytes_counted_only_for_ok_ops(self):
        rec = WorkerRecorder()
        rec.record("read", "ok", 1e-5, 100)
        rec.record("read", "expired", 1e-5, 100)
        rec.record("write", "ok", 1e-5, 30)
        rec.record("write", "error", 1e-5, 30)
        rec.record_error("boom")
        stats = ServiceStats.from_recorders([rec])
        assert stats.bytes_read == 100
        assert stats.bytes_written == 30
        assert stats.errors == ["boom"]

    def test_consistency_check(self):
        stats = ServiceStats(counts={"read": 2}, statuses={"ok": 1})
        with pytest.raises(InvalidParameterError):
            stats.check_consistency()

    def test_dict_split_is_disjoint(self):
        rec = WorkerRecorder()
        rec.record("write", "ok", 2e-5, 64)
        stats = ServiceStats.from_recorders([rec], wall_seconds=1.0)
        det, timing = stats.deterministic_dict(), stats.timing_dict()
        # nothing timing-dependent leaks into the hashable half
        assert "latency" not in det
        assert "wall_seconds" not in det
        assert "ops_per_second" not in det
        assert det["counts"]["write"] == 1
        assert timing["ops_per_second"] == 1.0
        assert timing["latency"]["write"]["count"] == 1


class TestLatencySummary:
    def test_empty(self):
        assert latency_summary([]) == {"count": 0}

    def test_percentiles_ordered(self):
        samples = [i * 1e-6 for i in range(1, 1001)]
        summary = latency_summary(samples)
        assert summary["count"] == 1000
        assert (
            summary["p50_us"]
            <= summary["p99_us"]
            <= summary["p999_us"]
            <= summary["max_us"]
        )
        assert summary["max_us"] == pytest.approx(1000.0)
