"""Tests for ShardLock, the view over a store's reentrant lock."""

import threading

from repro.exceptions import ServiceError
from repro.service import ShardLock


def run_thread(fn):
    t = threading.Thread(target=fn, daemon=True)
    t.start()
    return t


def free_elsewhere(inner) -> bool:
    """Whether another thread could take ``inner`` right now."""
    got = []

    def probe():
        if inner.acquire(blocking=False):
            got.append(True)
            inner.release()

    run_thread(probe).join()
    return bool(got)


class TestWriteMode:
    def test_reentrant_for_owner(self):
        inner = threading.RLock()
        lock = ShardLock(inner)
        with lock.write_locked():
            with lock.write_locked():
                assert not free_elsewhere(inner)
            assert not free_elsewhere(inner)  # still held once
        assert free_elsewhere(inner)

    def test_excludes_other_writers(self):
        lock = ShardLock(threading.RLock())
        acquired = threading.Event()
        lock.acquire_write()
        t = run_thread(lambda: (lock.acquire_write(), acquired.set()))
        assert not acquired.wait(0.05)  # blocked behind the holder
        lock.release_write()
        assert acquired.wait(1.0)
        t.join()

    def test_release_by_stranger_rejected(self):
        lock = ShardLock(threading.RLock())
        lock.acquire_write()
        err = []

        def stranger():
            try:
                lock.release_write()
            except ServiceError as exc:
                err.append(exc)

        run_thread(stranger).join()
        assert err
        lock.release_write()
