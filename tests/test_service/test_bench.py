"""Tests for the serve-bench harness and its pinned smoke hash."""

import pytest

from repro.exceptions import CertificationError
from repro.service.bench import (
    SERVE_SMOKE_HASH,
    _strip_timing,
    check_smoke_hash,
    render_serve_report,
    run_serve_bench,
    serve_report_hash,
)

#: One tiny configuration shared by the non-smoke tests.
TINY = dict(
    num_stripes=8,
    num_shards=2,
    workers=2,
    ops=400,
    element_size=64,
    cache_stripes=2,
    queue_depth=32,
)


@pytest.fixture(scope="module")
def tiny_payload():
    return run_serve_bench(["HV"], 5, **TINY)


class TestHarness:
    def test_oracle_and_rebuild_verdicts(self, tiny_payload):
        (entry,) = tiny_payload["codes"]
        det = entry["deterministic"]
        assert det["oracle_match"] is True
        assert det["oracle_ledger_match"] is True
        assert det["rebuild_matches_healthy"] is True
        assert det["ok"] is True
        assert tiny_payload["all_ok"] is True

    def test_op_accounting(self, tiny_payload):
        (entry,) = tiny_payload["codes"]
        healthy = entry["deterministic"]["healthy"]
        assert sum(healthy["counts"].values()) == 400
        assert healthy["counts"]["fail"] == 0
        rebuild = entry["deterministic"]["rebuild_phase"]
        assert rebuild["counts"]["fail"] == 1
        assert rebuild["counts"]["rebuild"] == 1
        assert sum(rebuild["counts"].values()) == 402

    def test_timing_half_reports_latency_and_throughput(self, tiny_payload):
        (entry,) = tiny_payload["codes"]
        timing = entry["timing"]["healthy"]
        assert timing["ops_per_second"] > 0
        for kind in ("read", "write"):
            summary = timing["latency"][kind]
            assert summary["p50_us"] <= summary["p99_us"]
        assert len(entry["timing"]["rebuild_overlap"]) == 1

    def test_render(self, tiny_payload):
        text = render_serve_report(tiny_payload)
        assert "serve-bench" in text
        assert "HV" in text
        assert "report hash" in text
        assert "-> ok" in text


class TestReportHash:
    def test_hash_ignores_timing_subtrees(self, tiny_payload):
        import copy

        tampered = copy.deepcopy(tiny_payload)
        tampered["codes"][0]["timing"]["healthy"]["ops_per_second"] = 1e9
        assert serve_report_hash(tampered) == tiny_payload["report_hash"]

    def test_hash_sees_deterministic_drift(self, tiny_payload):
        import copy

        tampered = copy.deepcopy(tiny_payload)
        tampered["codes"][0]["deterministic"]["digest_healthy"] = "f00d"
        assert serve_report_hash(tampered) != tiny_payload["report_hash"]

    def test_strip_timing_recurses(self):
        nested = {
            "a": {"timing": {"x": 1}, "keep": 2},
            "b": [{"timing": 1, "c": 3}],
            "report_hash": "zz",
        }
        assert _strip_timing(nested) == {
            "a": {"keep": 2},
            "b": [{"c": 3}],
        }


class TestSmokePin:
    def test_smoke_matches_pin(self):
        payload = run_serve_bench(smoke=True)
        assert payload["all_ok"] is True
        assert payload["report_hash"] == SERVE_SMOKE_HASH
        check_smoke_hash(payload)  # must not raise

    def test_drift_detected(self):
        with pytest.raises(CertificationError):
            check_smoke_hash({"report_hash": "deadbeef"})


class TestEngineSelection:
    def test_engine_is_invisible_to_the_report_hash(self, tiny_payload):
        """The engine *name* is stripped with the timing subtree.  What
        a backend does reach the hash is its compute ledger — XOR-word
        and kernel counts are backend-specific — so another backend
        serves the same bytes, digests and disk I/O, and ``--smoke``
        pins one engine."""
        assert tiny_payload["timing"]["engine"] == "fused"
        renamed = dict(tiny_payload, timing={"engine": "auto"})
        assert serve_report_hash(renamed) == tiny_payload["report_hash"]

        other = run_serve_bench(["HV"], 5, engine="auto", **TINY)
        assert other["all_ok"] is True

        def without_compute(value):
            if isinstance(value, dict):
                return {
                    k: without_compute(v)
                    for k, v in value.items()
                    if k not in ("xor_words", "kernel_invocations")
                }
            if isinstance(value, list):
                return [without_compute(v) for v in value]
            return value

        assert without_compute(_strip_timing(other)) == without_compute(
            _strip_timing(tiny_payload)
        )

    def test_unknown_engine_rejected(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            run_serve_bench(["HV"], 5, engine="abacus", **TINY)
