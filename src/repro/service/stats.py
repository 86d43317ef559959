"""Service-level accounting: per-worker recorders and the roll-up.

Latency and throughput are recorded per serving role — each worker
thread owns a :class:`WorkerRecorder`, and the client threads that
serve ops inside ``drain()`` share one, each written under the
scheduler's mutex as it retires an op — and folded into one
:class:`ServiceStats` when the scheduler closes.
The fold is a commutative, lossless sum (the same contract as
:meth:`repro.array.iostats.IOStats.merge`, property-tested alongside
it), so the roll-up is independent of which worker served which op.

:class:`ServiceStats` splits its report in two:

- :meth:`deterministic_dict` — op counts, bytes, outcome tallies, and
  the merged I/O ledger.  Per-shard execution is FIFO, so these are a
  pure function of the trace and the sharding policy: they feed the
  serve-bench's pinnable op-mix hash.
- :meth:`timing_dict` — wall clock, throughput, per-kind service
  latency percentiles (p50/p99/p999) and, beside them, the time ops
  spent queued before service.  Real measurements, never hashed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..array.iostats import IOStats
from ..exceptions import InvalidParameterError

#: Op kinds the scheduler executes (reads split by health at report
#: time is deliberately avoided: a degraded read *is* a read op whose
#: shard happens to be degraded, and the I/O ledger prices it).
OP_KINDS = ("read", "write", "fail", "rebuild", "flush")

#: Terminal statuses an op can complete with.
OP_STATUSES = ("ok", "expired", "error")


class WorkerRecorder:
    """One serving role's ledger: a worker's, or the ``drain()`` callers'.

    The scheduler writes an instance only under its mutex, in the hold
    that retires an op, and merges the recorders once every worker has
    joined and nothing is in flight.  The R008 waivers below mark that
    contract: the mutex is held by the caller, not taken here.
    """

    def __init__(self) -> None:
        self.counts = {kind: 0 for kind in OP_KINDS}
        self.statuses = {status: 0 for status in OP_STATUSES}
        self.bytes_read = 0
        self.bytes_written = 0
        self.latencies: dict[str, list[float]] = {kind: [] for kind in OP_KINDS}
        #: seconds each op sat queued, submit to dequeue (one per op)
        self.queue_waits: list[float] = []
        self.errors: list[str] = []

    def record(
        self,
        kind: str,
        status: str,
        seconds: float,
        nbytes: int = 0,
        queue_wait: float = 0.0,
    ) -> None:
        """Charge one completed op to this worker's ledger.

        ``seconds`` is service time (dequeue to completion, the wait
        for the shard's lock included); ``queue_wait`` is what the op
        spent queued before that.
        """
        self.counts[kind] += 1  # noqa: R008 - caller holds the mutex
        self.statuses[status] += 1  # noqa: R008 - caller holds the mutex
        if status == "ok":
            if kind == "read":
                self.bytes_read += nbytes  # noqa: R008 - caller holds the mutex
            elif kind == "write":
                self.bytes_written += nbytes  # noqa: R008 - caller holds the mutex
        self.latencies[kind].append(seconds)  # noqa: R008 - caller holds the mutex
        self.queue_waits.append(queue_wait)  # noqa: R008 - caller holds the mutex

    def record_error(self, message: str) -> None:
        self.errors.append(message)  # noqa: R008 - caller holds the mutex


def latency_summary(seconds: list[float]) -> dict:
    """p50/p99/p999/mean/max of a latency sample, in microseconds."""
    if not seconds:
        return {"count": 0}
    arr = np.asarray(seconds, dtype=float) * 1e6
    p50, p99, p999 = np.percentile(arr, (50.0, 99.0, 99.9))
    return {
        "count": int(arr.size),
        "p50_us": float(p50),
        "p99_us": float(p99),
        "p999_us": float(p999),
        "mean_us": float(arr.mean()),
        "max_us": float(arr.max()),
    }


@dataclass
class ServiceStats:
    """The scheduler's aggregated view of one serving run."""

    #: completed ops per kind (all statuses).
    counts: dict = field(default_factory=dict)
    #: completed ops per terminal status.
    statuses: dict = field(default_factory=dict)
    bytes_read: int = 0
    bytes_written: int = 0
    #: blocking submits that had to wait on a saturated queue.
    backpressure_waits: int = 0
    #: non-blocking submits rejected by backpressure.
    rejected: int = 0
    #: per-rebuild instrumentation: ops completed on *other* shards
    #: while the rebuild held its shard's lock.
    rebuild_windows: list = field(default_factory=list)
    #: the pool-wide merged I/O ledger.
    io: IOStats | None = None
    #: first few error messages, for reports.
    errors: list = field(default_factory=list)
    #: latency samples per kind (seconds); summarized on demand.
    latencies: dict = field(default_factory=dict)
    #: queue-wait samples (seconds), one per completed op of any kind.
    queue_waits: list = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def total_ops(self) -> int:
        return sum(self.counts.values())

    @property
    def ops_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_ops / self.wall_seconds

    @classmethod
    def from_recorders(
        cls,
        recorders: "list[WorkerRecorder]",
        *,
        io: IOStats | None = None,
        wall_seconds: float = 0.0,
        backpressure_waits: int = 0,
        rejected: int = 0,
        rebuild_windows: list | None = None,
    ) -> "ServiceStats":
        """Fold per-worker ledgers into one roll-up (order-independent)."""
        counts = {kind: 0 for kind in OP_KINDS}
        statuses = {status: 0 for status in OP_STATUSES}
        latencies: dict[str, list[float]] = {kind: [] for kind in OP_KINDS}
        stats = cls(
            counts=counts,
            statuses=statuses,
            io=io,
            wall_seconds=wall_seconds,
            backpressure_waits=backpressure_waits,
            rejected=rejected,
            rebuild_windows=list(rebuild_windows or []),
        )
        for rec in recorders:
            for kind in OP_KINDS:
                counts[kind] += rec.counts[kind]
                latencies[kind].extend(rec.latencies[kind])
            for status in OP_STATUSES:
                statuses[status] += rec.statuses[status]
            stats.bytes_read += rec.bytes_read
            stats.bytes_written += rec.bytes_written
            stats.queue_waits.extend(rec.queue_waits)
            stats.errors.extend(rec.errors)
        stats.latencies = latencies
        return stats

    def deterministic_dict(self) -> dict:
        """The hashable half: counts, bytes, and the I/O ledger.

        Excludes everything timing-dependent — latencies, throughput,
        backpressure waits, expired-deadline tallies, and the
        rebuild-overlap instrumentation — so the serve-bench hash is
        stable across machines, worker counts, and scheduler timing.
        """
        out = {
            "counts": {k: self.counts.get(k, 0) for k in OP_KINDS},
            "ok": self.statuses.get("ok", 0),
            "errors": self.statuses.get("error", 0),
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }
        if self.io is not None:
            out["io"] = {
                "reads": list(self.io.reads),
                "writes": list(self.io.writes),
                "xor_words": self.io.xor_words,
                "kernel_invocations": self.io.kernel_invocations,
                "flush_batches": self.io.flush_batches,
                "flushed_elements": self.io.flushed_elements,
                "journal_records": self.io.journal_records,
                "journal_bytes": self.io.journal_bytes,
            }
        return out

    def timing_dict(self) -> dict:
        """The measured half: wall clock, throughput, percentiles."""
        return {
            "wall_seconds": self.wall_seconds,
            "ops_per_second": self.ops_per_second,
            "expired": self.statuses.get("expired", 0),
            "backpressure_waits": self.backpressure_waits,
            "rejected": self.rejected,
            "rebuild_windows": list(self.rebuild_windows),
            "queue_wait": latency_summary(self.queue_waits),
            "latency": {
                kind: latency_summary(samples)
                for kind, samples in sorted(self.latencies.items())
                if samples
            },
        }

    def to_dict(self) -> dict:
        return {
            "deterministic": self.deterministic_dict(),
            "timing": self.timing_dict(),
        }

    def check_consistency(self) -> None:
        """Internal invariant: statuses and kinds tally the same ops."""
        if sum(self.counts.values()) != sum(self.statuses.values()):
            raise InvalidParameterError(
                "status tallies disagree with kind tallies"
            )
