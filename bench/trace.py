"""Timing shims installed from outside, and the span arithmetic.

A traced run replaces the layers' public entry points by attribute
assignment — on every name a caller actually resolves, since several
are imported at module scope or re-exported — with a wrapper that
records one span per call: name, start, end, parent span and thread.
Nothing under ``src/`` changes and :meth:`Tracer.remove` puts the very
same objects back.

A layer's **self time** is the duration of its spans minus the part
their child spans cover.  It is accumulated as spans close (per thread,
merged when read), so it is exact however many spans are kept for the
Chrome trace file.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field

#: Spans kept for the Chrome trace; later ones still count in the totals.
MAX_KEPT_SPANS = 250_000

#: The layers of the stack, top to bottom; every target names one.
LAYERS = (
    "scheduler", "locks", "pool", "filestore", "stripe_cache", "journal",
    "checksum", "compile", "executor", "backend", "decode",
)


@dataclass(frozen=True)
class Target:
    """One function to shim, with every ``(owner, attribute)`` it is
    reachable through."""

    layer: str
    name: str
    sites: tuple[tuple[object, str], ...]
    #: optional ``probe(*args) -> int`` sampled on entry; the tracer keeps
    #: the largest value seen (a gauge read where the work happens)
    probe: Callable[..., int] | None = None


def stack_targets(backend) -> list[Target]:
    """The public entry points of every layer of the stack.

    ``backend`` is the resolved kernel backend (its class carries the
    lowest boundary the benchmark can see from Python).
    """
    import repro.array.filestore as filestore_mod
    import repro.engine as engine_pkg
    import repro.engine.compile as compile_mod
    import repro.engine.executor as executor_mod
    import repro.faults.healing as healing_mod
    from repro.array.filestore import FileStore
    from repro.array.stripe import Stripe
    from repro.array.stripe_cache import StripeCache
    from repro.codes.base import ArrayCode
    from repro.faults.checksum import ChecksumSidecar
    from repro.journal import ParityIntentJournal
    from repro.service import RequestScheduler, ShardLock, VolumePool

    def methods(layer: str, cls: type, *names: str) -> list[Target]:
        return [
            Target(layer, f"{cls.__name__}.{n}", ((cls, n),)) for n in names
        ]

    def defining_class(cls: type, name: str) -> type:
        return next(c for c in cls.__mro__ if name in vars(c))

    backend_cls = type(backend)
    targets = [
        *methods("scheduler", RequestScheduler, "submit", "drain"),
        *methods("locks", ShardLock, "acquire_write"),
        *methods("pool", VolumePool, "locate", "read", "write", "flush"),
        *methods(
            "filestore", FileStore, "read", "write", "flush", "fail_disk", "rebuild"
        ),
        *methods("stripe_cache", StripeCache, "entry", "evict_over_capacity"),
        *methods("journal", ParityIntentJournal, "log_intent", "log_commit"),
        # A checkpoint truncates the device, so its size on entry is a
        # local maximum of the journal's footprint.
        Target(
            "journal",
            "ParityIntentJournal.checkpoint",
            ((ParityIntentJournal, "checkpoint"),),
            probe=lambda journal: len(journal.device),
        ),
        *methods("checksum", ChecksumSidecar, "record", "record_stripe"),
        Target(
            "compile",
            "compile_plan",
            ((compile_mod, "compile_plan"), (engine_pkg, "compile_plan")),
        ),
        Target(
            "compile",
            "choose_update_strategy",
            (
                (compile_mod, "choose_update_strategy"),
                (engine_pkg, "choose_update_strategy"),
            ),
        ),
        Target(
            "executor",
            "execute_plan",
            ((executor_mod, "execute_plan"), (engine_pkg, "execute_plan")),
        ),
        Target(
            "executor",
            "apply_update",
            ((executor_mod, "apply_update"), (engine_pkg, "apply_update")),
        ),
        *(
            Target("backend", f"backend.{n}", ((defining_class(backend_cls, n), n),))
            for n in ("execute", "execute_update")
            if hasattr(backend_cls, n)
        ),
        *methods("decode", ArrayCode, "encode", "decode"),
        Target(
            "decode",
            "decode_resilient",
            ((healing_mod, "decode_resilient"), (filestore_mod, "decode_resilient")),
        ),
        Target(
            "decode",
            "recover_element",
            ((healing_mod, "recover_element"), (filestore_mod, "recover_element")),
        ),
        *methods("decode", Stripe, "copy"),
    ]
    return targets


class _ThreadState:
    """One thread's open-span stack and its closed-span totals.

    Only the owning thread mutates an instance, so no lock is needed;
    :meth:`Tracer.snapshot` merges them when the threads are quiet.
    """

    def __init__(self) -> None:
        #: ``[span id, ns covered by children, children]`` per open span
        self.stack: list[list[int]] = []
        #: per target index: ``[calls, inclusive ns, self ns, children]``
        self.totals: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        #: parentless spans on this thread: ``[calls, inclusive ns]``
        self.top = [0, 0]
        #: per target index: largest probe value seen
        self.peaks: dict[int, int] = {}


class Tracer:
    """Installs the shims, collects spans, and reports per-layer time.

    Spans are timed on the **thread CPU clock**: with several threads
    sharing one CPU and one interpreter lock, a wall-clock span also
    covers whatever ran while its thread was switched out (measured:
    +45 % on serve-zipf).  Wall-clock start and end are recorded beside
    it for the trace file.
    """

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []
        self._states: dict[int, _ThreadState] = {}
        self._ids = itertools.count(1)
        #: kept spans: (target index, wall start ns, wall end ns, id,
        #: parent id, thread)
        self.spans: list[tuple[int, int, int, int, int, int]] = []

    # -- install / remove ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for index, target in enumerate(self.targets):
            owner, attr = target.sites[0]
            original = vars(owner)[attr]
            shim = self._shim(original, index)
            if target.probe is not None:
                shim = self._probed(shim, index, target.probe)
            for owner, attr in target.sites:
                if vars(owner)[attr] is not original:
                    raise RuntimeError(
                        f"{target.name}: {owner!r}.{attr} is not the same "
                        "function as its first site"
                    )
                self._saved.append((owner, attr, original))
                setattr(owner, attr, shim)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.remove()

    def _state(self) -> _ThreadState:
        tid = threading.get_ident()
        state = self._states.get(tid)
        if state is None:
            state = self._states[tid] = _ThreadState()
        return state

    def _shim(self, fn, index: int):
        cpu = time.thread_time_ns
        wall = time.perf_counter_ns
        states = self._states
        ids = self._ids
        spans = self.spans
        get_ident = threading.get_ident

        def shim(*args, **kwargs):
            tid = get_ident()
            state = states.get(tid)
            if state is None:
                state = states[tid] = _ThreadState()
            stack = state.stack
            frame = [next(ids), 0, 0]
            stack.append(frame)
            wall_start = wall()
            start = cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = cpu() - start
                wall_end = wall()
                stack.pop()
                totals = state.totals[index]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                totals[3] += frame[2]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent[2] += 1
                    parent_id = parent[0]
                else:
                    state.top[0] += 1
                    state.top[1] += duration
                    parent_id = 0
                if len(spans) < MAX_KEPT_SPANS:
                    spans.append((index, wall_start, wall_end, frame[0], parent_id, tid))

        shim.__wrapped__ = fn
        return shim

    def _probed(self, shim, index: int, probe):
        get_state = self._state

        def probed(*args, **kwargs):
            value = probe(*args, **kwargs)
            peaks = get_state().peaks
            if value > peaks.get(index, 0):
                peaks[index] = value
            return shim(*args, **kwargs)

        return probed

    # -- reading ---------------------------------------------------------------

    def snapshot(self) -> "TraceTotals":
        """Totals so far, merged over every thread that ran a shim."""
        merged: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        peaks: dict[str, int] = {}
        for state in list(self._states.values()):
            for index, row in list(state.totals.items()):
                for k in range(4):
                    merged[index][k] += row[k]
            for index, value in state.peaks.items():
                name = self.targets[index].name
                peaks[name] = max(peaks.get(name, 0), value)
        by_name = {self.targets[i].name: tuple(row) for i, row in merged.items()}
        by_layer: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        for i, row in merged.items():
            for k in range(4):
                by_layer[self.targets[i].layer][k] += row[k]
        return TraceTotals(
            by_name,
            {k: tuple(v) for k, v in by_layer.items()},
            tuple(self._state().top),
            peaks,
        )

    def write_chrome_trace(self, path) -> int:
        """Write the kept spans as Chrome-trace JSON; returns how many."""
        events = chrome_events(
            self.spans,
            [t.name for t in self.targets],
            [t.layer for t in self.targets],
        )
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)
        return len(events)


def inner_share(calls: int = 2000) -> float:
    """The share of one shim's cost that falls *inside* its own span.

    Timed on a no-op method: what the span records for it is the cost
    between the two CPU clock reads; the rest of the slowdown lands in
    whoever called.  A tight loop understates the absolute cost of a
    shim in real use by about half (cold caches, real arguments), so
    only this ratio is taken from it — the cost itself is measured per
    run, as the slowdown of traced blocks against plain ones.
    """

    class Probe:
        def method(self, a, b, c=None) -> None:
            pass

    tracer = Tracer([])
    tracer.spans = [()] * MAX_KEPT_SPANS  # full: keep nothing
    probe = Probe()
    cpu = time.thread_time_ns
    timings = []
    for shimmed in (False, True):
        if shimmed:
            Probe.method = tracer._shim(Probe.method, 0)
        start = cpu()
        for _ in range(calls):
            probe.method(1, 2, c=3)
        timings.append(cpu() - start)
    inside = tracer._state().totals[0][1]
    return min(1.0, inside / max(1, timings[1] - timings[0]))


_ZERO = (0, 0, 0, 0)


@dataclass(frozen=True)
class TraceTotals:
    """``(calls, inclusive ns, self ns, direct children)`` per span name
    and per layer, on the thread CPU clock, shim cost still included."""

    by_name: dict[str, tuple[int, int, int, int]]
    by_layer: dict[str, tuple[int, int, int, int]]
    #: the snapshotting thread's parentless spans: ``(calls, inclusive ns)``
    own_top: tuple[int, int]
    #: largest probe value per span name since the tracer was created
    peaks: dict[str, int] = field(default_factory=dict)

    def minus(self, earlier: "TraceTotals") -> "TraceTotals":
        def diff(now, then):
            return {
                k: tuple(a - b for a, b in zip(v, then.get(k, _ZERO)))
                for k, v in now.items()
            }

        return TraceTotals(
            diff(self.by_name, earlier.by_name),
            diff(self.by_layer, earlier.by_layer),
            tuple(a - b for a, b in zip(self.own_top, earlier.own_top)),
            self.peaks,
        )

    def calls(self, name: str) -> int:
        return self.by_name.get(name, _ZERO)[0]

    def total_s(self, name: str) -> float:
        return self.by_name.get(name, _ZERO)[1] / 1e9

    def spans(self) -> int:
        return sum(row[0] for row in self.by_layer.values())

    def layer(self, layer: str) -> tuple[int, float, int]:
        """``(calls, self seconds, direct children)`` of one layer."""
        calls, _, self_ns, children = self.by_layer.get(layer, _ZERO)
        return calls, self_ns / 1e9, children


def self_times(spans: list[tuple[int, int, int, int, int, int]]) -> dict[int, int]:
    """Self nanoseconds per span id, from a finished span list: each
    span's duration minus the durations of the spans naming it as parent.

    The kept spans carry wall-clock times, so this is the wall-clock
    twin of the CPU-clock self times the shims accumulate; the trace
    file shows it per span.
    """
    own = {span_id: end - start for _, start, end, span_id, _, _ in spans}
    for _, start, end, _, parent, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def chrome_events(spans, names: list[str], layers: list[str]) -> list[dict]:
    """Complete (``ph: X``) events, timestamps in microseconds from the
    first span; ``args`` carries the span and parent ids and the span's
    wall-clock self time."""
    if not spans:
        return []
    origin = min(start for _, start, *_ in spans)
    own = self_times(spans)
    return [
        {
            "name": names[index],
            "cat": layers[index],
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": (start - origin) / 1e3,
            "dur": (end - start) / 1e3,
            "args": {"id": span_id, "parent": parent, "self_us": own[span_id] / 1e3},
        }
        for index, start, end, span_id, parent, tid in spans
    ]
