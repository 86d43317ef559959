"""The run protocol: one pinned process, calibrated blocks, named metrics.

A run is: set-up -> one untimed warm-up block -> timed blocks of the
workload's fixed op list until ``--seconds`` have passed.  Around every
block the harness collects garbage and times the calibration loop; every
timing metric is computed on ``wall time x host_speed`` (see
:mod:`bench.calibrate`).  A traced run alternates plain and shimmed
blocks and reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from repro.engine import resolve_backend, shutdown_backends

from . import ROOT, START
from .calibrate import Calibrator, host_speeds, percentile, pooled
from .trace import LAYERS, Tracer, TraceTotals, inner_share, stack_targets
from .workloads import ENGINE, WORKLOADS, Block, Workload

#: Fewest timed blocks a run reports on, however short ``--seconds`` is.
MIN_BLOCKS = 8
#: Share of a traced serve-zipf run's time spent on the boundary ladder.
LADDER_SHARE = 0.3
#: The ladder's rungs, bottom to top.
RUNGS = ("model", "store", "pool", "scheduler")

with open(ROOT / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


# -- host ---------------------------------------------------------------------------


def refuse_overrides() -> None:
    """``REPRO_*`` variables silently change the engine under test."""
    found = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if found:
        sys.exit(f"bench: unset {', '.join(found)} — REPRO_* overrides change the engine")


def pin_to_one_cpu() -> int:
    """Pin this process (and the threads it starts) to its lowest allowed CPU.

    One CPU on purpose: what is timed on serve-zipf is then the
    program's hand-off cost, not where the kernel placed the workers.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def single_malloc_arena() -> bool:
    """Keep glibc from giving every new thread its own malloc arena.

    serve-zipf starts fresh worker threads every block; which arena each
    one lands in decides how fragmented the heap gets, and ``ru_maxrss``
    of six identical runs read 185-226 MB, against 182-194 MB over eight
    seeds with one arena.  Under the interpreter lock a second arena buys
    nothing, so the harness asks for one.  Returns False where
    ``mallopt`` is not glibc's.
    """
    m_arena_max = -8
    try:
        return bool(ctypes.CDLL(None).mallopt(m_arena_max, 1))
    except (OSError, AttributeError):
        return False


def compiler_version() -> str:
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            out = subprocess.run([path, "--version"], capture_output=True, text=True)
            return out.stdout.splitlines()[0] if out.stdout else path
    return "none"


def prepare_host() -> dict:
    """Env hygiene before anything is imported into the measurement."""
    refuse_overrides()
    return {
        "cpu_count": os.cpu_count(),
        "pinned_cpu": pin_to_one_cpu(),
        "single_malloc_arena": single_malloc_arena(),
    }


def fingerprint(workload: Workload, backend_name: str, host: dict, **extra) -> dict:
    return {
        "workload": workload.name,
        "seed": workload.seed,
        **host,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiler": compiler_version(),
        "machine": platform.machine(),
        "backend": backend_name,
        "calibration": workload.calibration,
        **workload.describe(),
        **extra,
    }


def leaked_arena_segments() -> list[str]:
    return glob.glob(f"/dev/shm/repro-arena-{os.getpid()}-*")


# -- the block loop -----------------------------------------------------------------


class Timeline:
    """Blocks in run order with the calibrations around them and the
    program-counter delta of each."""

    def __init__(self, workload: Workload, calibrator: Calibrator) -> None:
        self.workload = workload
        self.calibrator = calibrator
        gc.collect()
        self.calibrations = [calibrator()]
        self.blocks: list[Block] = []
        self.deltas: list[dict[str, int]] = []
        self.traces: list[TraceTotals | None] = []
        self._counters = workload.counters()

    def run_block(self, tracer: Tracer | None = None) -> None:
        if tracer is None:
            block, trace = self.workload.block(), None
        else:
            with tracer:
                before = tracer.snapshot()
                block = self.workload.block()
                trace = tracer.snapshot().minus(before)
        gc.collect()
        self.calibrations.append(self.calibrator())
        after = self.workload.counters()
        self.deltas.append({k: after[k] - self._counters[k] for k in after})
        self._counters = after
        self.blocks.append(block)
        self.traces.append(trace)

    def speeds(self) -> list[float]:
        return host_speeds(self.calibrations, self.calibrator.ref_s)

    def counter_drift(self) -> list[str]:
        """Counters whose per-block delta differs from the first block's."""
        exact = [k for k in self.deltas[0] if k not in self.workload.inexact]
        return sorted(
            {k for d in self.deltas[1:] for k in exact if d[k] != self.deltas[0][k]}
        )


def set_up(cls: type[Workload], seed: int) -> tuple[Workload, float]:
    """Build and warm the workload; returns it and ``setup_s``.

    ``setup_s`` is the time from process start to the first timed block:
    imports, backend resolution and its native compile, op generation,
    construction, ``reserve`` and the warm-up block, once and cold, so
    that work a later change moves into construction shows.  It is
    normalised by ``mix`` calibrations taken before and after the build
    (set-up is interpreter-bound on every workload); their own time is
    left out.  The warm-up block takes the volume from zeros to the op
    list's fixed point, so its reads are not the ones the model expects
    and its verdict is dropped.
    """
    resolve_backend(ENGINE)  # first use compiles the native kernel
    imported_s = time.perf_counter() - START
    calibrator = Calibrator("mix")
    calibrations = [calibrator() for _ in range(3)]
    gc.collect()
    start = time.perf_counter()
    workload = cls(seed)
    workload.build()
    workload.block()
    built_s = time.perf_counter() - start
    calibrations += [calibrator() for _ in range(3)]
    speed = calibrator.ref_s / statistics.median(calibrations)
    return workload, (imported_s + built_s) * speed


# -- metrics ------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def throughput_metrics(workload: Workload, blocks: list[Block], speeds: list[float] | None) -> dict:
    """ops/s, MB/s and latency percentiles; raw when ``speeds`` is None."""
    scale = speeds if speeds is not None else [1.0] * len(blocks)
    seconds = [b.seconds * k for b, k in zip(blocks, scale)]
    reads = pooled([b.read_s for b in blocks], speeds)
    writes = pooled([b.write_s for b in blocks], speeds)
    return {
        "ops_per_s": statistics.median(workload.ops_per_block / s for s in seconds),
        "user_mb_per_s": statistics.median(
            workload.user_bytes_per_block / 1e6 / s for s in seconds
        ),
        "read_p50_us": percentile(reads, 50) * 1e6,
        "write_p50_us": percentile(writes, 50) * 1e6,
        "read_p99_us": percentile(reads, 99) * 1e6,
        "write_p99_us": percentile(writes, 99) * 1e6,
    }


def harness_metrics(workload: Workload, blocks: list[Block], speeds: list[float]) -> dict:
    """What the harness says about itself: the host's speed, the raw
    twins of the normalised timings, and the tails that are too noisy
    to be end-to-end metrics."""
    normal = throughput_metrics(workload, blocks, speeds)
    raw = throughput_metrics(workload, blocks, None)
    q1, _, q3 = statistics.quantiles(speeds, n=4)
    return {
        "host.speed_median": statistics.median(speeds),
        "host.speed_iqr": q3 - q1,
        "host.blocks_timed": len(blocks),
        "raw.ops_per_s": raw["ops_per_s"],
        "raw.read_p50_us": raw["read_p50_us"],
        "raw.write_p50_us": raw["write_p50_us"],
        "read_p99_us": normal["read_p99_us"],
        "write_p99_us": normal["write_p99_us"],
    }


def counter_metrics(workload: Workload, deltas: list[dict[str, int]]) -> dict:
    """The per-layer metrics that are pure program counters."""
    total = {k: sum(d.get(k, 0) for d in deltas) for k in deltas[0]}
    get = lambda key: total.get(key, 0)  # noqa: E731
    ops = workload.work_per_block * len(deltas)
    user_bytes = workload.user_bytes_per_block * len(deltas)
    xor_bytes = get("io.xor_words") * 8
    return {
        "elem_io_per_op": _ratio(
            get("io.reads") + get("io.writes"),
            workload.issued_per_block * len(deltas),
        ),
        "filestore.flushes_per_kop": 1e3 * _ratio(get("cache.flushes"), ops),
        "filestore.parity_writes_per_data_write": _ratio(
            get("store.parity_writes"), get("store.data_writes")
        ),
        "stripe_cache.hit_rate": _ratio(
            get("cache.hits"), get("cache.hits") + get("cache.misses")
        ),
        "stripe_cache.evictions_per_kop": 1e3 * _ratio(get("cache.evictions"), ops),
        "stripe_cache.elements_per_flush": _ratio(
            get("cache.flushed_elements"), get("cache.flushes")
        ),
        "journal.records_per_op": _ratio(get("io.journal_records"), ops),
        "journal.bytes_per_user_byte": _ratio(get("io.journal_bytes"), user_bytes),
        "plan_cache.hit_rate": _ratio(
            get("plan_cache.hits"), get("plan_cache.hits") + get("plan_cache.misses")
        ),
        "plan_cache.misses_per_kop": 1e3 * _ratio(get("plan_cache.misses"), ops),
        "kernel.xor_bytes_per_user_byte": _ratio(xor_bytes, user_bytes),
        "kernel.invocations_per_op": _ratio(get("io.kernel_invocations"), ops),
    }


def end_to_end_metrics(timeline: Timeline, setup_s: float) -> dict:
    workload = timeline.workload
    timing = throughput_metrics(workload, timeline.blocks, timeline.speeds())
    return {
        "setup_s": setup_s,
        "ops_per_s": timing["ops_per_s"],
        "user_mb_per_s": timing["user_mb_per_s"],
        "read_p50_us": timing["read_p50_us"],
        "write_p50_us": timing["write_p50_us"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "elem_io_per_op": counter_metrics(workload, timeline.deltas)["elem_io_per_op"],
    }


def layer_metrics(timeline: Timeline, ladder: dict[str, float]) -> dict:
    """Every per-layer metric, from a timeline of alternating plain and
    traced blocks.

    Self times are CPU seconds, normalised per block.  A traced block
    runs slower than a plain one by the cost of its shims; that excess,
    measured here as the gap between the two kinds of block and spread
    evenly over the spans that caused it, is taken back out: a span
    loses the part of a shim's cost that falls inside its own interval
    (:func:`bench.trace.inner_share`), its parent the rest.
    """
    workload = timeline.workload
    speeds = timeline.speeds()
    rows = list(zip(timeline.blocks, speeds, timeline.deltas, timeline.traces))
    plain = [(b, k) for b, k, _, t in rows if t is None]
    traced = [(b, k, d, t) for b, k, d, t in rows if t is not None]
    plain_blocks = [b for b, _ in plain]
    plain_speeds = [k for _, k in plain]
    ops = workload.work_per_block * len(traced)

    def summed(value) -> float:
        """Sum of ``value(block, trace)`` over traced blocks, normalised."""
        return sum(value(b, t) * k for b, k, _, t in traced)

    def calls(name: str) -> int:
        return sum(t.calls(name) for *_, t in traced)

    def busy(b: Block) -> float:
        return b.busy_s if b.cpu_s is None else b.cpu_s

    plain_busy = statistics.median(busy(b) * k for b, k in plain)
    traced_busy = statistics.median(busy(b) * k for b, k, _, _ in traced)
    spans = sum(t.spans() for *_, t in traced)
    shim_s = max(0.0, traced_busy - plain_busy) * len(traced) / max(1, spans)
    inside = inner_share()

    layer_calls: dict[str, int] = {}
    self_raw: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for name in LAYERS:
        count = sum(t.layer(name)[0] for *_, t in traced)
        children = sum(t.layer(name)[2] for *_, t in traced)
        layer_calls[name] = count
        self_raw[name] = summed(lambda b, t, name=name: t.layer(name)[1])
        self_s[name] = max(
            0.0, self_raw[name] - shim_s * (inside * count + (1 - inside) * children)
        )
    # The client loop's own time: what the block spent outside the calls
    # it timed (or, where it times none, outside its parentless spans).
    if workload.threads == 1:
        loop_s = summed(lambda b, t: b.busy_s - b.timed_s)
        accounted = sum(self_raw.values()) + loop_s
    else:
        top_calls = sum(t.own_top[0] for *_, t in traced)
        loop_raw = summed(lambda b, t: b.client_cpu_s - t.own_top[1] / 1e9)
        loop_s = max(0.0, loop_raw - shim_s * (1 - inside) * top_calls)
        accounted = sum(self_raw.values()) + loop_raw
        # One CPU, closed loop: the CPU time the process spends outside
        # the layers below the scheduler and the client loop is the
        # scheduler's — ``submit``/``drain`` on the client thread, which
        # the spans saw, and the worker loop, queues, condition variable
        # and thread hand-offs, which no public entry point covers.  So
        # the layers and the client loop sum to the plain block.
        below = sum(v for name, v in self_s.items() if name != "scheduler")
        self_s["scheduler"] = max(0.0, plain_busy * len(traced) - below - loop_s)

    service = pooled(
        [np.concatenate([b.service_read_s, b.service_write_s]) for b in plain_blocks],
        plain_speeds,
    )
    rtt = pooled(
        [np.concatenate([b.read_s, b.write_s]) for b in plain_blocks], plain_speeds
    )
    misses = sum(d.get("plan_cache.misses", 0) for _, _, d, _ in traced)
    rebuilds = [b.rebuild_s * k for b, k in plain if b.rebuild_s]
    xor_bytes = 8 * sum(d.get("io.xor_words", 0) for _, _, d, _ in traced)
    backend_raw_s = sum(t.layer("backend")[1] for *_, t in traced)

    out = counter_metrics(workload, [d for _, _, d, _ in traced])
    del out["elem_io_per_op"]
    out.update({f"{name}.self_us_per_op": 1e6 * _ratio(self_s[name], ops) for name in LAYERS})
    out.update(
        {
            "locks.acquires_per_op": _ratio(layer_calls["locks"], ops),
            "scheduler.submit_wait_share": statistics.median(
                b.client_wait_share for b in plain_blocks
            ),
            "scheduler.backpressure_waits_per_kop": 1e3
            * _ratio(
                sum(b.backpressure_waits for b in plain_blocks),
                workload.ops_per_block * len(plain),
            ),
            "scheduler.sync_rtt_overhead_us": 1e6
            * (percentile(rtt, 50) - percentile(service, 50))
            if len(service)
            else 0.0,
            "filestore.self_share": _ratio(self_s["filestore"], plain_busy * len(traced)),
            "filestore.flush_us_per_flush": 1e6
            * _ratio(
                summed(lambda b, t: t.total_s("FileStore.flush")),
                calls("FileStore.flush"),
            ),
            "filestore.rebuild_mb_per_s": _ratio(
                workload.rebuilt_bytes / 1e6,
                statistics.median(rebuilds) if rebuilds else 0.0,
            ),
            "journal.peak_bytes": max(
                (t.peaks.get("ParityIntentJournal.checkpoint", 0) for *_, t in traced),
                default=0,
            ),
            "checksum.calls_per_op": _ratio(layer_calls["checksum"], ops),
            "compile.us_per_miss": 1e6 * _ratio(self_s["compile"], misses),
            "backend.calls_per_op": _ratio(layer_calls["backend"], ops),
            "backend.us_per_call": 1e6 * _ratio(self_s["backend"], layer_calls["backend"]),
            "kernel.gb_per_s": _ratio(xor_bytes / 1e9, backend_raw_s),
            "decode.calls_per_op": _ratio(calls("ArrayCode.decode"), ops),
            "decode.stripe_copies_per_op": _ratio(calls("Stripe.copy"), ops),
            **harness_metrics(workload, plain_blocks, plain_speeds),
            "trace.overhead_share": traced_busy / plain_busy - 1.0,
            "trace.shim_us_per_span": 1e6 * shim_s,
            "trace.client_loop_us_per_op": 1e6 * _ratio(loop_s, ops),
            # Uncorrected self times plus the client loop, against the
            # traced blocks themselves: the span arithmetic must add up
            # (on serve-zipf what is missing is the scheduler's own
            # threads, which no shim sees).
            "trace.accounted_share": _ratio(accounted, summed(lambda b, t: busy(b))),
            **{f"ladder.{rung}_us_per_op": ladder.get(rung, 0.0) for rung in RUNGS},
        }
    )
    return out


def run_ladder(workload: Workload, calibrator: Calibrator, seconds: float) -> dict[str, float]:
    """Replay the op list at each boundary in turn, round-robin, until
    ``seconds`` have passed; normalised microseconds per op per rung."""
    rungs = workload.boundaries()
    gc.collect()
    calibrations = [calibrator()]
    raw: list[float] = []
    deadline = time.perf_counter() + seconds
    while not raw or time.perf_counter() < deadline:
        for replay in rungs.values():
            raw.append(replay())
            gc.collect()
            calibrations.append(calibrator())
    normal = [s * k for s, k in zip(raw, host_speeds(calibrations, calibrator.ref_s))]
    per_op = 1e6 / workload.issued_per_block
    return {
        rung: per_op * statistics.median(normal[i :: len(rungs)])
        for i, rung in enumerate(rungs)
    }


# -- entry points -------------------------------------------------------------------


def report(header: dict, metrics: dict, names: list[str], attempted: int, failed: int) -> int:
    """Print the fingerprint, every metric by name with its unit, and the
    result object as the last line.  Returns the exit code."""
    print(json.dumps({"host": header}))
    for name, value in metrics.items():
        print(f"{name:44s} {value:16.6f} {UNITS.get(name, '')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": UNITS[name]} for name in names
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run(name: str, seed: int, seconds: float, trace_path: str | None) -> int:
    host = prepare_host()
    extra: dict = {}
    workload, setup_s = set_up(WORKLOADS[name], seed)
    backend = resolve_backend(ENGINE)
    timeline = Timeline(workload, Calibrator(workload.calibration))
    ladder: dict[str, float] = {}

    start = time.perf_counter()
    if trace_path is None:
        while len(timeline.blocks) < MIN_BLOCKS or time.perf_counter() - start < seconds:
            timeline.run_block()
    else:
        has_ladder = bool(workload.boundaries())
        budget = seconds * (1.0 - LADDER_SHARE) if has_ladder else seconds
        tracer = Tracer(stack_targets(backend))
        while len(timeline.blocks) < 4 or time.perf_counter() - start < budget:
            timeline.run_block()
            timeline.run_block(tracer)
        if has_ladder:
            ladder = run_ladder(workload, timeline.calibrator, seconds - budget)
        os.makedirs(os.path.dirname(os.path.abspath(trace_path)), exist_ok=True)
        extra["trace_file"] = trace_path
        extra["trace_spans"] = tracer.write_chrome_trace(trace_path)

    failed = sum(b.failed for b in timeline.blocks)
    drift = timeline.counter_drift()
    if drift:
        print(f"bench: per-block counters did not repeat: {drift}", file=sys.stderr)
        failed += len(drift)
    failed += workload.verify()
    blocks = len(timeline.blocks)
    plain_blocks = [b for b, t in zip(timeline.blocks, timeline.traces) if t is None]
    extra["read_samples"] = sum(len(b.read_s) for b in plain_blocks)
    extra["write_samples"] = sum(len(b.write_s) for b in plain_blocks)
    if trace_path is None:
        metrics = end_to_end_metrics(timeline, setup_s)
        names = [m["name"] for m in SPEC["end_to_end"]]
        shown = {
            **metrics,
            **harness_metrics(workload, timeline.blocks, timeline.speeds()),
            **counter_metrics(workload, timeline.deltas),
        }
    else:
        metrics = shown = layer_metrics(timeline, ladder)
        names = [m["name"] for m in SPEC["per_layer"]]

    shutdown_backends()
    leaked = leaked_arena_segments()
    if leaked:
        print(f"bench: shared-memory segments survived shutdown: {leaked}", file=sys.stderr)
        failed += len(leaked)
    header = fingerprint(workload, backend.name, host, blocks=blocks, seconds=seconds, **extra)
    return report(header, shown, names, workload.issued_per_block * blocks, failed)


def ladder(seed: int, seconds: float) -> int:
    """``python3 -m bench ladder``: the shim-free attribution on its own."""
    host = prepare_host()
    workload, _ = set_up(WORKLOADS["serve-zipf"], seed)
    result = run_ladder(workload, Calibrator(workload.calibration), seconds)
    failed = workload.verify()
    header = fingerprint(workload, resolve_backend(ENGINE).name, host, seconds=seconds)
    shutdown_backends()
    metrics = {f"ladder.{rung}_us_per_op": value for rung, value in result.items()}
    return report(header, metrics, list(metrics), workload.issued_per_block, failed)
