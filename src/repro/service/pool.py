"""The sharded volume pool: many FileStores behind one byte space.

A :class:`VolumePool` splits a fixed stripe space across ``num_shards``
independent :class:`~repro.array.filestore.FileStore` volumes using a
:class:`~repro.service.sharding.ShardingPolicy`; each shard's lock is
its store's own ``lock``, seen through a
:class:`~repro.service.locks.ShardLock`.  The pool itself holds no
mutable state after construction — every byte lives in some shard's
store, every synchronization decision lives in that shard's lock —
which is what makes flushes, journal checkpoints, and rebuilds on one
shard invisible to the others.

The pool's op methods do **not** acquire locks: the scheduler (or any
direct caller) brackets each call in ``pool.lock(shard)``, which keeps
lock scope visible at the call site and lets the scheduler hold one
acquisition across many ops.  Only the pool-wide sweeps (``flush_all``
and the snapshots) take each shard's lock themselves.

Ops are byte-addressed against the *global* volume and must fall
within a single stripe (the service trace generator guarantees this),
so each op routes to exactly one shard.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from ..array.filestore import FileStore
from ..array.iostats import IOStats
from ..array.stripe import ERASED
from ..exceptions import InvalidParameterError, ServiceError
from .locks import ShardLock
from .sharding import ShardingPolicy, build_shard_map, make_policy

if TYPE_CHECKING:
    from ..codes.base import ArrayCode


class VolumePool:
    """A fixed-size volume sharded over independent FileStores.

    ``engine=`` accepts any kernel-backend name from
    :data:`repro.engine.ENGINE_CHOICES` (``fused``, the default,
    ``native``, ``auto``, or the pure-Python reference path) and
    applies it to every shard's store, so encode, flush, and rebuild
    work inside the shard workers all run on the selected backend.
    """

    def __init__(
        self,
        code_name: str,
        p: int,
        *,
        num_stripes: int,
        element_size: int = 4096,
        num_shards: int = 4,
        policy: "str | ShardingPolicy" = "range",
        engine: str = "fused",
        cache_stripes: int = 0,
        journal: bool | None = None,
    ) -> None:
        # Deferred: the registry pulls in every code class, and importing
        # it at module scope closes a codes -> service cycle.
        from ..codes.registry import get_code

        if num_stripes < num_shards:
            raise InvalidParameterError(
                f"{num_stripes} stripe(s) cannot populate {num_shards} shards"
            )
        self.code_name = code_name
        self.p = p
        self.policy = make_policy(policy, num_shards)
        self.num_stripes = num_stripes
        self.element_size = element_size
        self._shard_of, self._local_of, counts = build_shard_map(
            self.policy, num_stripes
        )
        #: each shard gets its *own* code instance: ArrayCode caches
        #: layout tables lazily, and per-shard instances keep that
        #: warm-up inside the shard's lock instead of racing across it.
        self.shards: list[FileStore] = []
        self.locks: list[ShardLock] = []
        for count in counts:
            code: "ArrayCode" = get_code(code_name, p)
            store = FileStore(
                code,
                element_size=element_size,
                engine=engine,
                cache_stripes=cache_stripes,
                journal=journal,
            )
            store.reserve(count)
            self.shards.append(store)
            self.locks.append(ShardLock(store.lock))
        self.bytes_per_stripe = self.shards[0].bytes_per_stripe

    # -- geometry ----------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def capacity(self) -> int:
        """Total addressable bytes across all shards."""
        return self.num_stripes * self.bytes_per_stripe

    def lock(self, shard: int) -> ShardLock:
        return self.locks[self._check_shard(shard)]

    def locate(self, offset: int, size: int) -> tuple[int, int]:
        """Route a global byte range to ``(shard, local offset)``.

        The range must fall inside one stripe — the addressing contract
        that makes every op single-shard (and single-lock).
        """
        if offset < 0 or size < 1:
            raise InvalidParameterError("offset must be >= 0 and size >= 1")
        if offset + size > self.capacity:
            raise InvalidParameterError(
                f"range [{offset}, {offset + size}) beyond "
                f"capacity {self.capacity}"
            )
        stripe_idx, within = divmod(offset, self.bytes_per_stripe)
        if within + size > self.bytes_per_stripe:
            raise ServiceError(
                f"op [{offset}, {offset + size}) spans stripes "
                f"{stripe_idx} and {stripe_idx + 1}; service ops must "
                "stay inside one stripe"
            )
        shard = int(self._shard_of[stripe_idx])
        local = int(self._local_of[stripe_idx])
        return shard, local * self.bytes_per_stripe + within

    def _check_shard(self, shard: int) -> int:
        if not 0 <= shard < self.num_shards:
            raise InvalidParameterError(
                f"shard {shard} outside 0..{self.num_shards - 1}"
            )
        return shard

    # -- ops (caller holds the shard's lock) -------------------------------------

    def read(self, shard: int, local_offset: int, size: int) -> bytes:
        return self.shards[self._check_shard(shard)].read(local_offset, size)

    def write(self, shard: int, local_offset: int, data: bytes) -> None:
        self.shards[self._check_shard(shard)].write(local_offset, data)

    def flush(self, shard: int) -> int:
        return self.shards[self._check_shard(shard)].flush()

    def fail_disk(self, shard: int, disk: int) -> None:
        self.shards[self._check_shard(shard)].fail_disk(disk)

    def rebuild(self, shard: int, disk: int) -> None:
        self.shards[self._check_shard(shard)].rebuild(disk)

    def flush_all(self) -> int:
        """Flush every shard (each under its own lock)."""
        flushed = 0
        for shard, store in enumerate(self.shards):
            with self.locks[shard].write_locked():
                flushed += store.flush()
        return flushed

    # -- snapshots (each shard under its store's lock) ---------------------------

    def merged_stats(self) -> IOStats:
        """The pool-wide I/O ledger: every shard's counters, summed.

        Takes each shard's lock in turn — a live sample during a run
        sees each shard at *some* consistent point without stalling ops
        on the others.
        """
        parts = []
        for store in self.shards:
            with store.lock:
                parts.append(store.stats.copy())
        return IOStats.merged(self.shards[0].code.cols, parts)

    def content_digest(self) -> str:
        """SHA-256 over every stripe buffer in global stripe order.

        Flush first: the digest covers parity bytes, and deferred
        deltas would make two logically-identical pools hash apart.
        Erasure state is folded in so a degraded pool never collides
        with a healthy one.
        """
        h = hashlib.sha256()
        for idx in range(self.num_stripes):
            shard = int(self._shard_of[idx])
            local = int(self._local_of[idx])
            store = self.shards[shard]
            with store.lock:
                stripe = store.stripes[local]
                h.update(stripe.data.tobytes())
                h.update((stripe.state == ERASED).tobytes())
        for store in self.shards:
            h.update(bytes(sorted(store.failed_disks)))
        return h.hexdigest()

    def __repr__(self) -> str:
        return (
            f"VolumePool({self.code_name}@p={self.p}, "
            f"shards={self.num_shards}, stripes={self.num_stripes}, "
            f"policy={self.policy.name})"
        )
