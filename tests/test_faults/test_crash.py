"""The kill-anywhere crash harness and the pinned crash-bench.

The acceptance property for the crash-consistent write path: for every
instrumented crash point and every registered code, crash -> reopen ->
``recover()`` produces a byte-identical store image vs the
write-through oracle.  The exhaustive form runs per code class via the
``code_class`` fixture — a flushed trace, the error exit's rollback,
and a trace across a journal compaction; the hypothesis form samples
(code, seed, exit, boundary) on top of that.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CrashError, HVCode
from repro.array.filestore import FileStore
from repro.exceptions import CertificationError, InvalidParameterError
from repro.faults import (
    CrashingStore,
    CrashMatrixResult,
    crash_matrix,
    run_crash_scenario,
    seeded_write_trace,
)
from repro.faults.crash import INTENT_SITES
from repro.faults.crash_bench import (
    CRASH_SMOKE_HASH,
    check_smoke_hash,
    render_report,
    report_hash,
    run_crash_bench,
)


class TestCrashingStore:
    def make(self, crash_at=None):
        store = FileStore(HVCode(5), element_size=16, cache_stripes=2)
        return CrashingStore(store, crash_at=crash_at)

    def test_counts_boundaries_without_crashing(self):
        wrapper = self.make()
        wrapper.write(0, b"abc")
        wrapper.flush()
        assert wrapper.crashed_at is None
        assert wrapper.boundaries == len(wrapper.trace) > 0
        # a cached single-element write frames an intent, lands data,
        # then the flush lands parity and frames a commit
        assert wrapper.trace[0] == "journal-intent-mid"
        assert "data-write" in wrapper.trace
        assert "flush-start" in wrapper.trace
        assert "parity-write" in wrapper.trace
        assert wrapper.trace[-1] == "journal-commit"

    def test_crash_at_raises_at_the_scheduled_boundary(self):
        clean = self.make()
        clean.write(0, b"abc")
        clean.flush()
        for index in range(clean.boundaries):
            wrapper = self.make(crash_at=index)
            with pytest.raises(CrashError, match=f"boundary {index}"):
                wrapper.write(0, b"abc")
                wrapper.flush()
            assert wrapper.crashed_at == (index, clean.trace[index])

    def test_delegates_to_wrapped_store(self):
        wrapper = self.make()
        wrapper.write(0, b"xyz")
        assert wrapper.read(0, 3) == b"xyz"
        assert wrapper.code.name == "HV"

    def test_exit_never_auto_flushes(self):
        wrapper = self.make()
        with wrapper as w:
            w.write(0, b"abc")
        assert len(wrapper.store.cache) == 1  # still dirty


class TestSeededWriteTrace:
    def test_deterministic(self):
        code = HVCode(5)
        assert seeded_write_trace(code, 16, 8, seed=3) == seeded_write_trace(
            code, 16, 8, seed=3
        )
        assert seeded_write_trace(code, 16, 8, seed=3) != seeded_write_trace(
            code, 16, 8, seed=4
        )

    def test_ops_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            seeded_write_trace(HVCode(5), 16, 0)

    def test_each_op_stays_inside_one_element(self):
        for offset, payload in seeded_write_trace(HVCode(5), 16, 50, seed=1):
            assert len(payload) >= 1
            assert (offset % 16) + len(payload) <= 16


class TestCrashScenario:
    def test_clean_run_is_its_own_oracle(self):
        code = HVCode(5)
        trace = seeded_write_trace(code, 16, 6, seed=0)
        result = run_crash_scenario(code, trace, None)
        assert not result.crashed
        assert result.site is None
        assert result.durable_writes == len(trace)
        assert result.ok

    def test_intent_site_crash_loses_the_inflight_write(self):
        # Boundary 0 is the first write's own intent half-frame: its
        # data never landed, so the oracle applies zero writes.
        code = HVCode(5)
        trace = seeded_write_trace(code, 16, 4, seed=0)
        result = run_crash_scenario(code, trace, 0)
        assert result.crashed
        assert result.site in INTENT_SITES
        assert result.durable_writes == 0
        assert result.ok

    def test_error_exit_keeps_only_committed_writes(self):
        # The trace ends in discard_dirty instead of a flush: what
        # survives is what evictions had already committed.
        code = HVCode(5)
        trace = seeded_write_trace(code, 16, 6, seed=0)
        result = run_crash_scenario(code, trace, None, rollback=True)
        assert not result.crashed and result.ok
        assert 0 < result.durable_writes < len(trace)
        assert result.sites[-1] == "rollback-write"
        assert result.report.records_scanned == 0  # the rollback checkpointed

    def test_rollback_is_undone_stripe_by_stripe(self):
        # Two dirty stripes at the error exit.  Killed between the two
        # DISCARD frames, the first stripe is rolled back and the
        # second keeps every landed write; the oracle follows.
        code = HVCode(5)
        trace = seeded_write_trace(code, 16, 6, seed=0)
        clean = run_crash_scenario(code, trace, None, rollback=True)
        first, second = (
            i for i, site in enumerate(clean.sites) if site == "journal-discard"
        )
        kept = [
            run_crash_scenario(code, trace, at, rollback=True)
            for at in (first - 1, first, second)
        ]
        assert all(result.ok for result in kept)
        assert [result.report.discards for result in kept] == [0, 1, 2]
        assert (
            len(trace)
            == kept[0].durable_writes
            > kept[1].durable_writes
            > kept[2].durable_writes
            == clean.durable_writes
        )


def _exhaustive_matrix(code_cls):
    code = code_cls(5)
    return code, crash_matrix(code, ops=6, seed=0)


class TestCrashMatrix:
    """The acceptance differential, exhaustively, per registered code."""

    def test_every_boundary_recovers(self, code_class):
        code, matrix = _exhaustive_matrix(code_class)
        assert matrix.code == code.name
        assert matrix.boundaries > 0
        assert len(matrix.scenarios) == matrix.boundaries
        failures = [s for s in matrix.scenarios if not s.ok]
        assert matrix.all_ok, (
            f"{code.name}: {len(failures)} boundaries failed recovery, "
            f"first at crash_at={failures[0].crash_at} site={failures[0].site}"
        )

    def test_histogram_and_dict_shape(self):
        _, matrix = _exhaustive_matrix(HVCode)
        hist = matrix.site_histogram()
        assert sum(hist.values()) == matrix.boundaries
        assert set(hist) >= {
            "journal-intent-mid",
            "data-write",
            "parity-write",
            # the error exit ...
            "journal-discard-mid",
            "journal-discard",
            "rollback-write",
            # ... and a compaction, cut before, at and after the trim
            "journal-compact-mid",
            "journal-compact",
            "journal-trim",
        }
        payload = matrix.to_dict()
        assert payload["all_ok"] is True
        assert payload["failures"] == []
        assert payload["boundaries"] == matrix.boundaries
        assert payload["torn_records"] > 0  # half-frame cuts leave torn tails

    def test_all_ok_is_false_on_a_failed_scenario(self):
        _, matrix = _exhaustive_matrix(HVCode)
        broken = matrix.scenarios[0]
        broken.byte_identical = False
        assert not matrix.all_ok
        assert matrix.to_dict()["failures"] == [
            {"crash_at": broken.crash_at, "site": broken.site}
        ]


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_crash_recovery_differential_property(data):
    """Sampled form of the acceptance property: any code, any seed,
    either exit, any boundary -> recovery matches the write-through
    oracle."""
    from repro.codes.registry import available_codes, get_code

    name = data.draw(st.sampled_from(sorted(available_codes())), label="code")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    code = get_code(name, 5)
    rollback = data.draw(st.booleans(), label="rollback")
    trace = seeded_write_trace(code, 16, 4, seed=seed)
    clean = run_crash_scenario(code, trace, None, rollback=rollback)
    assert clean.ok
    crash_at = data.draw(
        st.integers(0, clean.boundaries - 1), label="crash_at"
    )
    result = run_crash_scenario(code, trace, crash_at, rollback=rollback)
    assert result.crashed
    assert result.ok, (
        f"{name} seed={seed} rollback={rollback} crash_at={crash_at} "
        f"site={result.site}: "
        f"byte_identical={result.byte_identical} "
        f"parity={result.parity_consistent} crc={result.checksums_clean}"
    )


class TestCrashBench:
    def test_smoke_payload_matches_pin(self):
        payload = run_crash_bench(smoke=True)
        assert payload["all_ok"]
        assert payload["report_hash"] == CRASH_SMOKE_HASH
        check_smoke_hash(payload)  # must not raise

    def test_payload_is_deterministic(self):
        a = run_crash_bench(codes=["HV"], p=5, ops=4)
        b = run_crash_bench(codes=["HV"], p=5, ops=4)
        assert a == b
        assert a["report_hash"] == report_hash(b)

    def test_hash_ignores_embedded_hash_but_not_counts(self):
        payload = run_crash_bench(codes=["HV"], p=5, ops=4)
        assert report_hash(payload) == payload["report_hash"]
        drifted = dict(payload, total_scenarios=payload["total_scenarios"] + 1)
        assert report_hash(drifted) != payload["report_hash"]

    def test_check_smoke_hash_raises_on_drift(self):
        payload = run_crash_bench(codes=["HV"], p=5, ops=4)
        assert payload["report_hash"] != CRASH_SMOKE_HASH
        with pytest.raises(CertificationError, match="drifted"):
            check_smoke_hash(payload)

    def test_render_report(self):
        payload = run_crash_bench(codes=["HV"], p=5, ops=4)
        text = render_report(payload)
        assert "crash matrix: 1 code(s) at p=5" in text
        assert "all recovered" in text
        assert payload["report_hash"] in text


class TestCrashAcrossBackends:
    """Crash-consistency is a property of the journal, not the engine:
    recovery must be byte-identical whichever backend executed the
    parity math before the crash."""

    @pytest.mark.parametrize("engine", ["fused", "native"])
    def test_sampled_boundaries_recover_byte_identically(self, engine):
        from repro.engine.backends import available_backends

        if engine not in available_backends():
            pytest.skip(f"{engine} backend unavailable on this host")
        code = HVCode(7)
        trace = seeded_write_trace(code, element_size=16, ops=6, seed=3)
        clean = run_crash_scenario(code, trace, None, engine=engine)
        assert clean.ok and clean.boundaries > 0
        samples = sorted(
            {
                max(1, (clean.boundaries * pct) // 100)
                for pct in (25, 50, 75)
            }
        )
        for crash_at in samples:
            result = run_crash_scenario(code, trace, crash_at, engine=engine)
            assert result.ok, (
                f"engine={engine} diverged after crash at boundary "
                f"{crash_at}/{clean.boundaries}"
            )
