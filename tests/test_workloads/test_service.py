"""Tests for the many-client Zipf service-trace generator."""

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.workloads import ClientOp, ServiceTrace, service_trace


class TestValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(WorkloadError):
            service_trace(0, 512, 10)
        with pytest.raises(WorkloadError):
            service_trace(8, 0, 10)
        with pytest.raises(WorkloadError):
            service_trace(8, 512, 0)
        with pytest.raises(WorkloadError):
            service_trace(8, 512, 10, num_clients=0)

    def test_rejects_bad_fractions_and_skew(self):
        with pytest.raises(WorkloadError):
            service_trace(8, 512, 10, write_fraction=1.5)
        with pytest.raises(WorkloadError):
            service_trace(8, 512, 10, zipf_skew=1.0)

    def test_rejects_oversized_ops(self):
        with pytest.raises(WorkloadError):
            service_trace(8, 512, 10, max_op_bytes=513)
        with pytest.raises(WorkloadError):
            service_trace(8, 512, 10, max_op_bytes=0)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(WorkloadError):
            ServiceTrace(
                "bad",
                {},
                np.zeros(3, dtype=np.int64),
                np.zeros(2, dtype=bool),
                np.zeros(3, dtype=np.int64),
                np.zeros(3, dtype=np.int64),
            )


class TestGeneration:
    def test_every_op_stays_inside_one_stripe(self):
        trace = service_trace(16, 512, 5000, max_op_bytes=512, seed=3)
        starts = trace.offsets // 512
        ends = (trace.offsets + trace.sizes - 1) // 512
        assert np.array_equal(starts, ends)
        assert trace.offsets.min() >= 0
        assert int((trace.offsets + trace.sizes).max()) <= 16 * 512

    def test_client_ids_and_kinds(self):
        trace = service_trace(
            8, 512, 2000, num_clients=7, write_fraction=0.5, seed=1
        )
        assert trace.clients.min() >= 0
        assert trace.clients.max() < 7
        assert 0 < trace.num_writes < 2000

    def test_write_fraction_extremes(self):
        all_writes = service_trace(8, 512, 300, write_fraction=1.0, seed=0)
        all_reads = service_trace(8, 512, 300, write_fraction=0.0, seed=0)
        assert all_writes.num_writes == 300
        assert all_reads.num_writes == 0

    def test_zipf_skew_concentrates_traffic(self):
        """Higher skew puts more of the stream on the hottest stripe."""
        mild = service_trace(64, 512, 20000, zipf_skew=1.1, seed=5)
        steep = service_trace(64, 512, 20000, zipf_skew=2.5, seed=5)

        def hottest_share(trace):
            stripes = trace.offsets // 512
            return np.bincount(stripes, minlength=64).max() / len(trace)

        assert hottest_share(steep) > hottest_share(mild)

    def test_op_view_and_iteration(self):
        trace = service_trace(8, 512, 50, seed=9)
        first = trace.op(0)
        assert isinstance(first, ClientOp)
        assert first.kind in ("read", "write")
        ops = list(trace)
        assert len(ops) == 50
        assert ops[0] == first
        assert trace.total_bytes == int(trace.sizes.sum())


class TestDeterminism:
    def test_same_seed_same_hash(self):
        a = service_trace(16, 1024, 1000, seed=42)
        b = service_trace(16, 1024, 1000, seed=42)
        assert a.trace_hash == b.trace_hash
        assert np.array_equal(a.offsets, b.offsets)

    def test_different_seed_different_hash(self):
        a = service_trace(16, 1024, 1000, seed=42)
        b = service_trace(16, 1024, 1000, seed=43)
        assert a.trace_hash != b.trace_hash

    def test_parameters_feed_the_hash(self):
        a = service_trace(16, 1024, 1000, seed=42)
        b = service_trace(16, 1024, 1000, num_clients=65, seed=42)
        assert a.trace_hash != b.trace_hash

    def test_hot_stripe_is_permuted(self):
        """The hottest stripe is not always stripe 0."""
        hot = set()
        for seed in range(6):
            trace = service_trace(64, 512, 5000, zipf_skew=2.0, seed=seed)
            stripes = trace.offsets // 512
            hot.add(int(np.bincount(stripes, minlength=64).argmax()))
        assert len(hot) > 1
