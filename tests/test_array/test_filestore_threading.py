"""The structural-op exclusivity contract (FileStore._exclusive).

A FileStore is a single-writer object: two threads interleaving
``flush``/``recover``/``fail_disk``/``rebuild`` on one store would
corrupt parity silently.  Callers serialize on the store's one lock,
which the service layer's ShardLock is a view of; the store must
*detect* the contract being broken (ConcurrentMutationError) — a
second thread entering a structural op while another holds that lock —
while keeping two legal shapes
working: same-thread reentrancy (``fail_disk`` flushes internally) and
full parallelism across *different* stores (shards must not serialize
against each other through any hidden global).
"""

import threading

import pytest

from repro.array.filestore import FileStore
from repro.codes.registry import get_code
from repro.exceptions import ConcurrentMutationError
from repro.service import VolumePool


def dirty_store(**kw):
    kw.setdefault("element_size", 32)
    kw.setdefault("cache_stripes", 4)
    store = FileStore(get_code("HV", 5), **kw)
    store.write(0, b"dirty bytes")
    assert store.cache is not None and len(store.cache)
    return store


class ParkedFlush:
    """Drives a store's flush into a controllable wait at flush-start."""

    def __init__(self, store):
        self.store = store
        self.entered = threading.Event()
        self.release = threading.Event()
        self.error = None
        store.crash_hook = self._hook
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _hook(self, site):
        if site == "flush-start":
            self.entered.set()
            assert self.release.wait(5.0)

    def _run(self):
        try:
            self.store.flush()
        except BaseException as exc:  # surfaced by the test thread
            self.error = exc

    def __enter__(self):
        self.thread.start()
        assert self.entered.wait(5.0)  # flush now holds the op lock
        return self

    def __exit__(self, *exc):
        self.release.set()
        self.thread.join(timeout=5.0)
        self.store.crash_hook = None
        assert self.error is None


class TestSameThreadReentrancy:
    def test_fail_disk_flushes_reentrantly(self):
        """fail_disk -> flush on one thread must not trip the guard."""
        store = dirty_store()
        store.fail_disk(0)  # flushes internally, then erases
        assert len(store.cache) == 0
        assert store.failed_disks == {0}

    def test_rebuild_flushes_reentrantly(self):
        store = dirty_store()
        store.fail_disk(0)
        store.write(0, b"degraded write")  # re-dirty while degraded
        store.rebuild(0)
        assert store.failed_disks == set()
        assert store.read(0, 14) == b"degraded write"


class TestCrossThreadInterleaveDetected:
    def test_fail_disk_during_anothers_flush(self):
        store = dirty_store()
        with ParkedFlush(store):
            with pytest.raises(ConcurrentMutationError):
                store.fail_disk(0)
        # once the flush finishes the op is legal again
        store.fail_disk(0)
        assert store.failed_disks == {0}

    def test_flush_during_anothers_flush(self):
        store = dirty_store()
        with ParkedFlush(store):
            with pytest.raises(ConcurrentMutationError):
                store.flush()

    def test_recover_during_anothers_flush(self):
        store = dirty_store()
        assert store.journal is not None
        with ParkedFlush(store):
            with pytest.raises(ConcurrentMutationError):
                store.recover()

    def test_scrub_while_another_thread_holds_the_lock(self):
        """A write-through store's flush returns before the tripwire, so
        the scrub takes it itself; refused, it leaves the stripe's bytes
        and state untouched."""
        store = FileStore(get_code("HV", 5), element_size=32)
        store.write(0, bytes(range(64)))
        stripe = store.stripes[0]
        stripe.flip_bits((0, 0), 0, 0x01)
        data, state = stripe.data.copy(), stripe.state.copy()
        held, release = threading.Event(), threading.Event()

        def hold():
            with store.lock:
                held.set()
                release.wait(5.0)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        try:
            assert held.wait(5.0)
            for repair in (True, False):
                with pytest.raises(ConcurrentMutationError):
                    store.scrub_checksums(repair=repair)
        finally:
            release.set()
            holder.join(timeout=5.0)
        assert (stripe.data == data).all() and (stripe.state == state).all()
        assert store.scrub_checksums().flips_detected == [(0, (0, 0))]
        assert store.scrub_checksums(repair=False).clean

    def test_parity_scrub_while_another_thread_holds_the_lock(self):
        """``scrub()`` is a structural op too: a write-through store's
        flush returns before the tripwire, so the verify loop would run
        unguarded beside the holder; refused, it touches nothing."""
        store = FileStore(get_code("HV", 5), element_size=32)
        store.write(0, bytes(range(64)))
        stripe = store.stripes[0]
        stripe.data[0, 0, 0] ^= 0x01  # a torn stripe for the verify to find
        data, state = stripe.data.copy(), stripe.state.copy()
        held, release = threading.Event(), threading.Event()

        def hold():
            with store.lock:
                held.set()
                release.wait(5.0)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        try:
            assert held.wait(5.0)
            with pytest.raises(ConcurrentMutationError):
                store.scrub()
        finally:
            release.set()
            holder.join(timeout=5.0)
        assert not holder.is_alive()
        assert (stripe.data == data).all() and (stripe.state == state).all()
        assert store.scrub() == [0]

    def test_flush_that_skips_a_held_shard_lock(self):
        """The shard lock is the store's lock: bypassing it is caught
        even when the holder is not inside a structural op."""
        pool = VolumePool(
            "HV", 5, num_stripes=1, element_size=32, num_shards=1,
            cache_stripes=4,
        )
        pool.write(0, 0, b"dirty bytes")
        store = pool.shards[0]
        errors = []

        def bypass():
            try:
                store.flush()
            except ConcurrentMutationError as exc:
                errors.append(exc)

        sampled = threading.Event()
        sampler = threading.Thread(
            target=lambda: (pool.merged_stats(), sampled.set()), daemon=True
        )
        with pool.lock(0).write_locked():
            thread = threading.Thread(target=bypass, daemon=True)
            thread.start()
            thread.join(timeout=5.0)
            assert len(errors) == 1
            assert len(store.cache)  # the bypassing flush never ran
            sampler.start()
            assert not sampled.wait(0.05)  # the snapshot waits for the holder
        assert sampled.wait(5.0)
        sampler.join(timeout=5.0)


class TestDifferentStoresRunInParallel:
    def test_two_shards_flush_concurrently(self):
        """Both flushes must be *inside* flush at the same instant.

        The rendezvous only passes when the two threads reach
        flush-start together — if stores serialized against each other
        through any shared guard, the second thread would never arrive
        and the barrier would time out.
        """
        stores = [dirty_store(), dirty_store()]
        rendezvous = threading.Barrier(2, timeout=5.0)
        errors = []

        def hook(site):
            if site == "flush-start":
                rendezvous.wait()

        def run(store):
            try:
                store.crash_hook = hook
                store.flush()
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(s,), daemon=True)
            for s in stores
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert not errors
        assert all(len(s.cache) == 0 for s in stores)
