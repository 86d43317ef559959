"""Each workload passes its oracle, and a run prints what BENCHMARK.json names."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from bench import harness
from bench.calibrate import Calibrator
from bench.trace import LAYERS, TraceTotals
from bench.workloads import WORKLOADS, Block


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_blocks_pass_the_oracle_and_repeat_their_counters(name):
    workload = WORKLOADS[name](seed=3)
    workload.build()
    workload.block()  # warm-up: zeros -> fixed point
    timeline = harness.Timeline(workload, Calibrator(workload.calibration))
    timeline.run_block()
    timeline.run_block()
    assert [b.failed for b in timeline.blocks] == [0, 0]
    assert timeline.counter_drift() == []
    assert workload.verify() == 0
    assert all(b.seconds > 0 and b.busy_s >= b.seconds for b in timeline.blocks)
    metrics = harness.end_to_end_metrics(timeline, setup_s=1.0)
    assert set(metrics) == {m["name"] for m in harness.SPEC["end_to_end"]}
    assert all(v > 0 for v in metrics.values())


def test_a_wrong_byte_is_counted(monkeypatch):
    workload = WORKLOADS["store-write"](seed=3)
    workload.build()
    workload.block()
    workload.model.buf[12345] ^= 0xFF
    assert workload.verify() == 1
    workload.expected[0] ^= 1
    assert workload.block().failed == 1


def _run(capsys, monkeypatch, trace_path):
    monkeypatch.setattr(harness, "MIN_BLOCKS", 2)
    code = harness.run("engine-batch", 1, 0.0, trace_path)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[0])["host"], json.loads(lines[-1])


def test_plain_run_prints_every_end_to_end_metric(capsys, monkeypatch):
    code, host, result = _run(capsys, monkeypatch, None)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = {m["name"]: m["unit"] for m in harness.SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for key in ("cpu_count", "pinned_cpu", "python", "numpy", "compiler", "backend",
                "blocks", "seed", "ops_sha256"):
        assert key in host


def test_traced_run_prints_every_per_layer_metric(capsys, monkeypatch, tmp_path):
    trace = tmp_path / "trace.json"
    code, host, result = _run(capsys, monkeypatch, str(trace))
    assert code == 0 and result["correct"]
    spec = {m["name"]: m["unit"] for m in harness.SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    events = json.loads(trace.read_text())["traceEvents"]
    assert len(events) == host["trace_spans"] > 0
    assert result["metrics"]["backend.self_us_per_op"]["value"] > 0
    assert result["metrics"]["scheduler.self_us_per_op"]["value"] == 0


def test_layers_and_client_loop_sum_to_the_block_on_three_threads():
    # Two plain and two traced blocks of 100 ops, each 1.0 s of process
    # CPU (so the shims cost nothing).  The spans saw 0.5 s below the
    # scheduler and 0.1 s of the client thread inside submit/drain; the
    # client thread used 0.3 s, 0.15 s of it inside its parentless spans.
    workload = SimpleNamespace(
        threads=3, work_per_block=100, ops_per_block=100, issued_per_block=100,
        user_bytes_per_block=1000, rebuilt_bytes=0,
    )
    samples = np.array([1e-3, 2e-3])
    block = Block(
        seconds=1.0, busy_s=1.2, timed_s=None, read_s=samples, write_s=samples,
        cpu_s=1.0, client_cpu_s=0.3, service_read_s=samples, service_write_s=samples,
    )
    ns = 10**9
    trace = TraceTotals(
        by_name={},
        by_layer={
            "scheduler": (200, 15 * ns // 100, ns // 10, 100),
            "pool": (100, 5 * ns // 100, 5 * ns // 100, 0),
            "filestore": (100, 45 * ns // 100, 4 * ns // 10, 100),
            "journal": (100, 5 * ns // 100, 5 * ns // 100, 0),
        },
        own_top=(200, 15 * ns // 100),
    )
    timeline = SimpleNamespace(
        workload=workload,
        blocks=[block] * 4,
        deltas=[{"io.reads": 10, "io.writes": 10}] * 4,
        traces=[None, trace, None, trace],
        speeds=lambda: [1.0] * 4,
    )
    out = harness.layer_metrics(timeline, ladder={})
    per_op = {name: out[f"{name}.self_us_per_op"] for name in LAYERS}
    block_us_per_op = 1e6 * 1.0 / 100
    assert out["trace.client_loop_us_per_op"] == pytest.approx(1e6 * 0.15 / 100)
    # the scheduler keeps its own spans' 0.1 s and takes the worker loop's 0.25 s
    assert per_op["scheduler"] == pytest.approx(1e6 * 0.35 / 100)
    assert sum(per_op.values()) + out["trace.client_loop_us_per_op"] == pytest.approx(
        block_us_per_op
    )
    assert out["filestore.self_share"] == pytest.approx(0.4)


def test_repro_overrides_are_refused(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    with pytest.raises(SystemExit):
        harness.refuse_overrides()
