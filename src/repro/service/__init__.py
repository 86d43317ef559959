"""repro.service: a sharded, concurrent volume service.

This package turns the single-volume :class:`~repro.array.filestore.FileStore`
into a served system: a :class:`VolumePool` shards one flat stripe
space across many independent stores (pluggable
:class:`ShardingPolicy` — contiguous ranges or a splitmix64 hash),
guards each shard with its store's own reentrant lock (seen as a
:class:`ShardLock`), and a :class:`RequestScheduler` executes a
many-client op stream on a worker pool with bounded-queue
backpressure and per-op deadlines.

The load-bearing invariant is **per-shard FIFO**: ops on one shard
execute in submission order, one at a time, while different shards
proceed in parallel.  The served end state is therefore byte-identical
to a single-threaded replay of the same trace — the differential
oracle the serve-bench (``repro serve-bench``) certifies, alongside a
pinnable deterministic op-mix hash and measured (never hashed)
latency percentiles and throughput.

Concurrency discipline inside this package is checked by lint rule
R008: shared mutable state is only touched under the owning lock.
See ``docs/SERVICE.md`` for the full design.
"""

from .bench import (
    SERVE_SMOKE_HASH,
    check_smoke_hash,
    render_serve_report,
    run_serve_bench,
    serve_report_hash,
)
from .locks import ShardLock
from .pool import VolumePool
from .scheduler import Op, OpResult, RequestScheduler
from .sharding import (
    POLICIES,
    HashSharding,
    RangeSharding,
    ShardingPolicy,
    build_shard_map,
    make_policy,
)
from .stats import (
    OP_KINDS,
    OP_STATUSES,
    ServiceStats,
    WorkerRecorder,
    latency_summary,
)

__all__ = [
    "OP_KINDS",
    "OP_STATUSES",
    "POLICIES",
    "SERVE_SMOKE_HASH",
    "HashSharding",
    "Op",
    "OpResult",
    "RangeSharding",
    "RequestScheduler",
    "ServiceStats",
    "ShardLock",
    "ShardingPolicy",
    "VolumePool",
    "WorkerRecorder",
    "build_shard_map",
    "check_smoke_hash",
    "latency_summary",
    "make_policy",
    "render_serve_report",
    "run_serve_bench",
    "serve_report_hash",
]
