"""Tests for write-trace generators."""

import pytest

from repro.exceptions import WorkloadError
from repro.workloads.traces import (
    PAPER_TABLE_II,
    WritePattern,
    WriteTrace,
    paper_random_trace,
    uniform_write_trace,
)


class TestWritePattern:
    def test_end(self):
        assert WritePattern(5, 3).end == 8

    def test_validation(self):
        with pytest.raises(WorkloadError):
            WritePattern(-1, 2)
        with pytest.raises(WorkloadError):
            WritePattern(0, 0)
        with pytest.raises(WorkloadError):
            WritePattern(0, 1, frequency=0)


class TestUniformTrace:
    def test_name_matches_paper(self):
        trace = uniform_write_trace(10, 600, 50)
        assert trace.name == "uniform_w_10"

    def test_pattern_count_and_length(self):
        trace = uniform_write_trace(30, 600, 200, seed=1)
        assert len(trace) == 200
        assert all(p.length == 30 for p in trace)

    def test_fits_in_volume(self):
        trace = uniform_write_trace(10, 100, 500, seed=2)
        assert trace.max_end <= 100

    def test_deterministic_by_seed(self):
        a = uniform_write_trace(10, 600, 50, seed=3)
        b = uniform_write_trace(10, 600, 50, seed=3)
        assert a.patterns == b.patterns

    def test_different_seeds_differ(self):
        a = uniform_write_trace(10, 600, 50, seed=3)
        b = uniform_write_trace(10, 600, 50, seed=4)
        assert a.patterns != b.patterns

    def test_length_exceeding_volume_rejected(self):
        with pytest.raises(WorkloadError):
            uniform_write_trace(101, 100, 10)


class TestPaperTrace:
    def test_all_25_patterns(self):
        trace = paper_random_trace()
        assert len(trace) == 25

    def test_first_pattern_verbatim(self):
        # "(28,34,66) means the write operation will start from the
        # 28th data element" — 1-based, so 0-based start 27.
        first = paper_random_trace().patterns[0]
        assert (first.start, first.length, first.frequency) == (27, 34, 66)

    def test_total_operations(self):
        trace = paper_random_trace()
        assert sum(p.frequency for p in trace) == sum(f for _, _, f in PAPER_TABLE_II)

    def test_fits_in_default_volume(self):
        from repro.experiments.fig6_partial_writes import DEFAULT_VOLUME_ELEMENTS

        assert paper_random_trace().max_end <= DEFAULT_VOLUME_ELEMENTS


class TestRandomTrace:
    def test_totals(self):
        trace = WriteTrace(
            "t", (WritePattern(0, 2, 3), WritePattern(5, 4, 1))
        )
        assert trace.total_elements_written == 2 * 3 + 4
