"""Tests for the synthetic workload generators."""

import pytest

from repro.exceptions import WorkloadError
from repro.workloads.synthetic import sequential_write_trace, zipf_write_trace


class TestSequential:
    def test_segments_are_contiguous(self):
        trace = sequential_write_trace(1000, segment_length=50)
        for a, b in zip(trace.patterns, trace.patterns[1:]):
            assert b.start in (a.end, 0)

    def test_fits_volume(self):
        trace = sequential_write_trace(1000, segment_length=64, num_segments=40)
        assert all(p.end <= 1000 for p in trace)

    def test_default_sweeps_volume_once(self):
        trace = sequential_write_trace(1000, segment_length=100)
        assert trace.total_elements_written == 1000

    def test_validation(self):
        with pytest.raises(WorkloadError):
            sequential_write_trace(10, segment_length=11)
        with pytest.raises(WorkloadError):
            sequential_write_trace(10, segment_length=0)


class TestZipf:
    def test_skew_concentrates_on_few_stripes(self):
        trace = zipf_write_trace(
            1200, stripe_elements=120, num_patterns=600, skew=2.0, seed=0
        )
        per_stripe = {}
        for p in trace.patterns:
            per_stripe[p.start // 120] = per_stripe.get(p.start // 120, 0) + 1
        top = max(per_stripe.values())
        assert top >= 0.4 * len(trace)

    def test_less_skew_spreads_more(self):
        hot = zipf_write_trace(1200, 120, 600, skew=3.0, seed=1)
        mild = zipf_write_trace(1200, 120, 600, skew=1.1, seed=1)

        def top_share(trace):
            counts = {}
            for p in trace.patterns:
                counts[p.start // 120] = counts.get(p.start // 120, 0) + 1
            return max(counts.values()) / len(trace)

        assert top_share(hot) > top_share(mild)

    def test_patterns_stay_in_stripe(self):
        trace = zipf_write_trace(1200, 120, 300, length=15, seed=2)
        for p in trace.patterns:
            assert p.start // 120 == (p.end - 1) // 120

    def test_validation(self):
        with pytest.raises(WorkloadError):
            zipf_write_trace(1200, 120, skew=1.0)
        with pytest.raises(WorkloadError):
            zipf_write_trace(1200, 120, length=121)
        with pytest.raises(WorkloadError):
            zipf_write_trace(100, 120)
