"""The state-keyed memo of what a degraded op needs.

``FileStore`` keeps, per stripe loss state, what a read window (plan,
lost positions, disks charged), a degraded write's recovery of a lost
slot and a rebuild's repair need (``FileStore._memo``).  Its key is the
whole input — the stripe's ``state`` bytes and what is asked of it — so
no entry can go stale.  These tests change a stripe's state between two
identical reads in every way a store can (a cell turning latent, a
second disk failing, a rebuild, a write that heals a latent cell, the
flush a read of a dirty cached stripe runs first) and hold every read
to a ``bytearray`` model.  A latent cell's bytes are scribbled over, so
a stale entry that read it as healthy would return them.  The memo
stays within its bound, outlives the plan cache, and is filled safely
by concurrent readers.
"""

import sys
import threading

import numpy as np

import repro.array.filestore as filestore_mod
from repro.array.filestore import FileStore
from repro.codes.registry import get_code
from repro.engine import PLAN_CACHE

ELEMENT = 16
STRIPES = 3


def filled(cache_stripes: int = 0, p: int = 5) -> tuple[FileStore, bytearray]:
    code = get_code("HV", p)
    store = FileStore(code, element_size=ELEMENT, engine="auto", cache_stripes=cache_stripes)
    store.reserve(STRIPES)
    model = bytearray(np.random.default_rng(3).bytes(store.capacity))
    store.write(0, bytes(model))
    store.flush()
    return store, model


def check(store: FileStore, model: bytearray, offset: int, size: int) -> None:
    assert store.read(offset, size) == model[offset : offset + size]


def scribble(store: FileStore, stripe_idx: int, pos: tuple[int, int]) -> None:
    """Make ``pos`` latent and its kept bytes garbage: only a read that
    knows the cell is lost returns the right ones."""
    stripe = store.stripes[stripe_idx]
    stripe.mark_latent(pos)
    stripe.data[pos] ^= 0xA5


def window_key(store: FileStore, stripe_idx: int, first: int, last: int) -> tuple:
    return (store.stripes[stripe_idx].state.tobytes(), first, last)


class TestEveryStateChangeIsANewKey:
    def test_the_same_read_follows_each_change_between_two_calls(self):
        store, model = filled()
        code = store.code
        idx, first, last = 1, 2, 7  # data elements 2..6 of stripe 1
        offset = idx * store.bytes_per_stripe + first * ELEMENT + 3
        size = (last - first) * ELEMENT - 6
        window = code.data_positions[first:last]
        d1 = window[1][1]
        store.fail_disk(d1)
        check(store, model, offset, size)
        assert window_key(store, idx, first, last) in store._degraded
        # a readable cell of the window turns latent
        latent = next(pos for pos in window if pos[1] != d1)
        scribble(store, idx, latent)
        check(store, model, offset, size)
        assert window_key(store, idx, first, last) in store._degraded
        # a write over it heals it
        at = idx * store.bytes_per_stripe + code.data_positions.index(latent) * ELEMENT
        model[at : at + ELEMENT] = bytes(range(ELEMENT))
        store.write(at, bytes(range(ELEMENT)))
        assert not store.stripes[idx].latent_positions()
        check(store, model, offset, size)
        # a second disk fails
        d2 = next(c for _, c in window if c != d1)
        store.fail_disk(d2)
        check(store, model, offset, size)
        # the first comes back
        store.rebuild(d1)
        check(store, model, offset, size)
        # a parity the window's plan reads turns latent
        plan = store._degraded[window_key(store, idx, first, last)].plan
        parity = next(
            divmod(s, code.cols) for s in plan.reads
            if divmod(s, code.cols) in code.parity_positions
        )
        scribble(store, idx, parity)
        check(store, model, offset, size)
        # the second comes back, the latent parity healed on the way
        store.rebuild(d2)
        assert not store.stripes[idx].latent_positions()
        check(store, model, offset, size)
        assert store.scrub() == []

    def test_a_dirty_cached_stripe_with_a_lost_cell_is_flushed_first(self):
        store, model = filled(cache_stripes=2)
        code = store.code
        idx, eps = 1, code.data_elements_per_stripe
        base = idx * store.bytes_per_stripe
        # every data cell dirty: the lost cell's chains all run through
        # parity the cache has not folded yet
        new = np.random.default_rng(9).bytes(eps * ELEMENT)
        store.write(base, new)
        model[base : base + len(new)] = new
        assert idx in store.cache
        # latent, bytes kept: the fold reads them
        lost = code.data_positions[4]
        store.stripes[idx].mark_latent(lost)
        store.stripes[idx].mark_latent(code.parity_positions[0])  # the flush heals it
        before = window_key(store, idx, 3, 6)
        check(store, model, base + 3 * ELEMENT, 3 * ELEMENT)
        assert idx not in store.cache
        assert store.stripes[idx].latent_positions() == [lost]
        # the entry is the flushed state's, looked up after the flush
        assert window_key(store, idx, 3, 6) in store._degraded
        assert before not in store._degraded
        check(store, model, base + 3 * ELEMENT, 3 * ELEMENT)


class TestBound:
    def test_more_distinct_states_than_the_bound_keep_it(self, monkeypatch):
        bound = 4
        monkeypatch.setattr(filestore_mod, "DEGRADED_MEMO_SIZE", bound)
        store, model = filled(p=7)
        code = store.code
        failed = code.data_positions[0][1]
        store.fail_disk(failed)
        idx, base = 0, 0
        positions = [pos for pos in code.data_positions if pos[1] != failed]
        assert len(positions) > 2 * bound
        states = set()
        for pos in positions:
            k = code.data_positions.index(pos)
            scribble(store, idx, pos)
            states.add(store.stripes[idx].state.tobytes())
            check(store, model, base, (k + 1) * ELEMENT)
            assert len(store._degraded) <= bound
            # heal it with a write of what it holds
            at = base + k * ELEMENT
            store.write(at, bytes(model[at : at + ELEMENT]))
            assert len(store._degraded) <= bound
            check(store, model, base, (k + 1) * ELEMENT)
        assert len(states) > bound
        store.rebuild(failed)
        check(store, model, 0, store.capacity)


class TestOutlivesThePlanCache:
    def test_degraded_reads_after_the_plan_cache_is_cleared(self):
        store, model = filled()
        code = store.code
        store.fail_disk(code.data_positions[1][1])
        bps = store.bytes_per_stripe
        spans = [(s * bps + 5, n * ELEMENT) for s in range(STRIPES) for n in (1, 3, 6)]
        for span in spans:
            check(store, model, *span)
        warm = len(store._degraded)
        PLAN_CACHE.clear()
        for span in spans:
            check(store, model, *span)
        assert len(store._degraded) == warm
        store.fail_disk(code.data_positions[2][1])  # new states, compiled afresh
        PLAN_CACHE.clear()
        for span in spans:
            check(store, model, *span)
        check(store, model, 0, store.capacity)


class TestConcurrentColdReaders:
    def test_four_threads_fill_a_cold_memo_and_read_model_bytes(self):
        store, model = filled(p=7)
        code = store.code
        store.fail_disk(code.data_positions[0][1])
        store.fail_disk(code.data_positions[3][1])
        store._degraded.clear()
        eps = code.data_elements_per_stripe
        spans = [
            (s * store.bytes_per_stripe + first * ELEMENT + 1, n * ELEMENT)
            for s in range(STRIPES)
            for first in range(0, eps - 4, 2)
            for n in (1, 2, 4)
        ]
        start = threading.Barrier(4)
        wrong: list = []

        def reader(seed: int) -> None:
            order = np.random.default_rng(seed).permutation(len(spans))
            start.wait()
            for i in order:
                offset, size = spans[i]
                if store.read(offset, size) != model[offset : offset + size]:
                    wrong.append(spans[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        # every stripe is in one state: one entry per window, however
        # the threads raced to build it
        bps = store.bytes_per_stripe
        windows = {
            (offset % bps // ELEMENT, (offset % bps + size - 1) // ELEMENT)
            for offset, size in spans
        }
        assert len(store._degraded) == len(windows)
