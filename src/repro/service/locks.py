"""The per-shard lock.

Every shard of a :class:`~repro.service.VolumePool` is guarded by one
lock, and it is the shard's own store's: :attr:`FileStore.lock
<repro.array.filestore.FileStore.lock>`, a reentrant lock.  A
:class:`ShardLock` is a view over it, so a caller that serializes on a
shard and the store's structural-op tripwire use the same object.

Any operation that drives the shard's store holds it (discipline
enforced by lint rule R008, documented in ``docs/SERVICE.md``).  The
store is a single-writer object: even logically read-only ops mutate
its I/O ledger and may trigger healing or a cache flush, so op
execution is exclusive *within* a shard; the service's unit of
parallelism is the shard, not the op.  Reentrancy lets a rebuild that
flushes on the same thread proceed.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..exceptions import ServiceError


class ShardLock:
    """Exclusive, reentrant access to one shard, through its store's lock."""

    def __init__(self, lock) -> None:
        self._lock = lock

    def acquire_write(self) -> None:
        self._lock.acquire()

    def release_write(self) -> None:
        try:
            self._lock.release()
        except RuntimeError as exc:
            raise ServiceError(
                "release_write by a thread that does not hold the lock"
            ) from exc

    @contextmanager
    def write_locked(self):
        """Exclusive context: ops, flushes, rebuilds, recovery."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()
