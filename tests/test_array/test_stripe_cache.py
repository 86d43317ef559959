"""The write-back stripe cache: policy, flush discipline, and byte identity.

The load-bearing property is at the bottom: a hypothesis differential
drives every registered code through random write sequences against a
cached store and a plain write-through store and demands the stored
bytes (and CRC sidecars) agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CauchyRSCode,
    EvenOddCode,
    HCode,
    HDPCode,
    HVCode,
    LiberationCode,
    PCode,
    RDPCode,
    XCode,
)
from repro.array.filestore import FileStore
from repro.array.stripe_cache import DirtyStripe, StripeCache
from repro.codes.registry import get_code
from repro.engine import PLAN_CACHE, compile_plan
from repro.engine.backends import available_backends
from repro.exceptions import InvalidParameterError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

CODE_CLASSES = [
    HVCode,
    RDPCode,
    XCode,
    HDPCode,
    HCode,
    EvenOddCode,
    PCode,
    LiberationCode,
    CauchyRSCode,
]


def payload(n: int, seed: int = 0) -> bytes:
    return bytes(np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8))


class TestDirtyStripe:
    """``old`` is keyed by cell slot; ``snapshot`` copies first touches
    out of the stripe's flat byte view."""

    def test_first_touch_snapshots_pre_image(self):
        entry = DirtyStripe()
        buf = np.arange(24, dtype=np.uint8)
        entry.snapshot(memoryview(buf), [2, 0], 8)
        buf[:] = 0  # later mutation must not reach the snapshot
        assert entry.old == {2: bytes(range(16, 24)), 0: bytes(range(8))}
        assert list(entry.old) == [2, 0]  # insertion order: the discard record's
        assert all(type(old) is bytes for old in entry.old.values())

    def test_second_touch_is_absorbed(self):
        code = HVCode(5)
        store = FileStore(code, element_size=8, engine="fused", cache_stripes=2)
        store.write(0, payload(8, seed=1))
        store.write(4, payload(12, seed=2))  # rewrites element 0, touches 1
        (r0, c0), (r1, c1) = code.data_positions[:2]
        entry = store.cache.peek(0)
        assert entry.num_dirty == 2
        assert entry.old[r0 * code.cols + c0] == bytes(8)  # the first pre-image
        assert entry.pattern() == (r0 * code.cols + c0, r1 * code.cols + c1)

    def test_pattern_is_sorted_cell_slots(self):
        entry = DirtyStripe()
        buf = np.zeros(20, dtype=np.uint8)
        entry.snapshot(memoryview(buf), [8, 1], 2)
        assert entry.pattern() == (1, 8)


class TestStripeCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            StripeCache(0)

    def test_hits_and_misses(self):
        cache = StripeCache(4)
        cache.entry(0)
        cache.entry(0)
        cache.entry(1)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["size"] == 2

    def test_lru_evicts_least_recent(self):
        cache = StripeCache(2)
        cache.entry(0)
        cache.entry(1)
        cache.entry(0)  # bump 0: stripe 1 is now the LRU
        cache.entry(2)
        evicted = cache.evict_over_capacity()
        assert [idx for idx, _ in evicted] == [1]
        assert cache.evictions == 1
        assert 0 in cache and 2 in cache

    def test_peek_does_not_bump(self):
        cache = StripeCache(2)
        cache.entry(0)
        cache.entry(1)
        cache.peek(0)  # no LRU bump: stripe 0 stays oldest
        cache.entry(2)
        assert [idx for idx, _ in cache.evict_over_capacity()] == [0]

    def test_pop_all_oldest_first(self):
        cache = StripeCache(8)
        buf = np.zeros(2, dtype=np.uint8)
        for idx in (3, 1, 2):
            cache.entry(idx).snapshot(memoryview(buf), [0], 2)
        drained = cache.pop_all()
        assert [idx for idx, _ in drained] == [3, 1, 2]
        assert len(cache) == 0
        assert cache.flushes == 3
        assert cache.flushed_elements == 3

    def test_reset_stats_keeps_entries(self):
        cache = StripeCache(2)
        cache.entry(0)
        cache.reset_stats()
        assert cache.stats()["misses"] == 0
        assert 0 in cache

    def test_pop_of_absent_stripe_charges_nothing(self):
        cache = StripeCache(2)
        assert cache.pop(42) is None
        assert cache.flushes == 0
        assert cache.flushed_elements == 0

    def test_pop_of_entry_never_snapshotted(self):
        # An entry can exist with zero dirty elements (created, then
        # the write failed before its first snapshot); popping it is a
        # flush of nothing.
        cache = StripeCache(2)
        cache.entry(7)
        entry = cache.pop(7)
        assert entry is not None and entry.num_dirty == 0
        assert cache.flushes == 1
        assert cache.flushed_elements == 0
        assert 7 not in cache

    def test_reset_stats_after_partial_flush(self):
        cache = StripeCache(4)
        buf = np.zeros(2, dtype=np.uint8)
        cache.entry(0).snapshot(memoryview(buf), [0], 2)
        cache.entry(1).snapshot(memoryview(buf), [0], 2)
        cache.pop(0)  # partial flush, then a counter epoch starts
        cache.reset_stats()
        assert cache.stats()["flushes"] == 0
        drained = cache.pop_all()
        assert [idx for idx, _ in drained] == [1]
        assert cache.stats()["flushes"] == 1
        assert cache.stats()["flushed_elements"] == 1

    def test_items_is_a_snapshot(self):
        cache = StripeCache(4)
        cache.entry(0)
        cache.entry(1)
        snapshot = cache.items()
        cache.pop(0)
        assert [idx for idx, _ in snapshot] == [0, 1]
        assert len(cache) == 1

    def test_discard_all_charges_discards_not_flushes(self):
        cache = StripeCache(4)
        buf = np.zeros(2, dtype=np.uint8)
        cache.entry(0).snapshot(memoryview(buf), [0], 2)
        cache.entry(1).snapshot(memoryview(buf), [0], 2)
        drained = cache.discard_all()
        assert [idx for idx, _ in drained] == [0, 1]
        assert len(cache) == 0
        assert cache.stats()["discards"] == 2
        assert cache.stats()["flushes"] == 0
        assert cache.stats()["flushed_elements"] == 0


class TestCachedFileStore:
    def make(self, cache=4, engine="fused", element_size=16, p=7):
        return FileStore(
            HVCode(p),
            element_size=element_size,
            engine=engine,
            cache_stripes=cache,
        )

    def test_cache_combines_with_injector(self):
        # The blanket exclusion is gone: with journaled flushes the
        # injector's windows are well-defined at flush time.
        code = HVCode(5)
        injector = FaultInjector(FaultPlan())
        store = FileStore(code, element_size=16, injector=injector, cache_stripes=2)
        store.write(0, payload(48, seed=20))
        ops_before_flush = injector.ops
        store.flush()
        # The injector clock advances once per flushed dirty element.
        assert injector.ops == ops_before_flush + 3
        assert store.scrub() == []

    def test_injector_disk_crash_fires_at_flush_time(self):
        from repro.faults.plan import FaultEvent, FaultKind

        code = HVCode(5)
        plan = FaultPlan(
            events=[FaultEvent(kind=FaultKind.DISK_CRASH, at_op=4, disk=1)]
        )
        injector = FaultInjector(plan)
        store = FileStore(code, element_size=16, injector=injector, cache_stripes=4)
        data = payload(3 * 16, seed=21)
        store.write(0, data)  # 3 write pings: crash not yet due
        assert not store.failed_disks
        store.flush()  # flush pings advance the clock past at_op=4
        assert store.failed_disks == {1}
        assert store.read(0, len(data)) == data  # degraded read works
        store.rebuild(1)
        assert store.scrub() == []

    def test_parity_deferred_until_flush(self):
        store = self.make()
        store.write(0, payload(100))
        assert store.parity_writes == 0
        assert len(store.cache) == 1
        assert store.flush() == 1
        assert store.parity_writes > 0
        assert store.scrub() == []

    def test_flush_returns_zero_when_clean(self):
        store = self.make()
        assert store.flush() == 0

    def test_reads_are_coherent_while_dirty(self):
        store = self.make()
        data = payload(200, seed=1)
        store.write(0, data)
        assert store.read(0, 200) == data

    def test_context_manager_flushes(self):
        with self.make() as store:
            store.write(0, payload(64, seed=2))
        assert len(store.cache) == 0
        assert store.scrub() == []

    def test_eviction_flushes_lru_stripe(self):
        store = self.make(cache=1)
        store.write(0, b"a")
        assert store.parity_writes == 0
        store.write(store.bytes_per_stripe, b"b")  # second stripe evicts first
        assert store.cache.evictions == 1
        assert store.parity_writes > 0
        assert len(store.cache) == 1

    def test_rewrites_are_absorbed(self):
        store = self.make()
        for i in range(10):
            store.write(0, payload(32, seed=i))
        store.flush()
        # ten overwrites of the same cells, one parity RMW
        assert store.stats.flush_batches == 1
        first_flush = store.parity_writes
        store.write(0, payload(32, seed=99))
        store.flush()
        assert store.parity_writes == 2 * first_flush

    def test_checksums_written_once_per_flushed_element(self):
        store = self.make()
        store.write(0, payload(48, seed=3))
        store.flush()
        assert store.scrub_checksums(repair=False).clean

    def test_fail_disk_flushes_first(self):
        store = self.make()
        data = payload(150, seed=4)
        store.write(0, data)
        store.fail_disk(2)
        assert len(store.cache) == 0
        assert store.read(0, 150) == data

    def test_degraded_writes_bypass_the_cache(self):
        # Reconstruct-writes commit synchronously: while a disk is
        # down nothing accumulates, so eviction can never fire against
        # a degraded stripe.
        store = self.make(cache=2)
        store.fail_disk(1)
        for i in range(4):  # more stripes than the cache holds
            store.write(i * store.bytes_per_stripe, payload(32, seed=10 + i))
        assert len(store.cache) == 0
        assert store.cache.stats()["evictions"] == 0
        for i in range(4):
            assert store.read(i * store.bytes_per_stripe, 32) == payload(
                32, seed=10 + i
            )

    def test_rebuild_after_cached_writes(self):
        store = self.make()
        data = payload(150, seed=5)
        store.write(0, data)
        store.fail_disk(1)
        store.write(10, b"DEGRADED")
        store.rebuild(1)
        expect = bytearray(data)
        expect[10:18] = b"DEGRADED"
        assert store.read(0, 150) == bytes(expect)
        assert store.scrub() == []

    def test_degraded_write_to_dirty_stripe(self):
        store = self.make()
        store.write(0, payload(80, seed=6))
        store.write(0, b"dirty")  # stripe is cached-dirty
        store.fail_disk(0)
        store.write(3, b"XYZ")  # degraded write must see flushed parity
        store.rebuild(0)
        assert store.read(0, 6) == b"dirXYZ"
        assert store.scrub() == []

    def test_python_engine_cache_matches(self):
        cached = self.make(cache=3, engine="python")
        plain = FileStore(HVCode(7), element_size=16)
        data = payload(300, seed=7)
        for store in (cached, plain):
            store.write(0, data)
            store.write(40, payload(60, seed=8))
        cached.flush()
        for a, b in zip(cached.stripes, plain.stripes):
            assert a == b

    @pytest.mark.parametrize("p, parity_writes", [(5, (192, 24)), (11, (480, 33))])
    @pytest.mark.parametrize("evicting", [False, True], ids=["cache=S", "cache=1"])
    @pytest.mark.parametrize(
        "engine, journal",
        [
            ("fused", False),
            ("fused", True),
            ("auto", True),
            ("native", False),
        ],
    )
    def test_small_write_trace_matches_write_through(
        self, p, parity_writes, evicting, engine, journal
    ):
        # The partial-stripe-write shape with rewrite locality: eight
        # passes of seeded 16-byte overwrites at a seeded slot inside
        # each element of a (p-1)-element hot window in three stripes.
        if engine == "native" and "native" not in available_backends():
            pytest.skip("no C toolchain for the native backend")
        stripes, rounds, element_size, io_size = 3, 8, 64, 16
        code = HVCode(p)
        plain = FileStore(code, element_size=element_size, engine="python")
        cached = FileStore(
            code,
            element_size=element_size,
            engine=engine,
            cache_stripes=1 if evicting else stripes,
            journal=journal,
        )
        rng = np.random.default_rng(2024)
        for _ in range(rounds):
            for s in range(stripes):
                for i in range(p - 1):
                    slot = int(rng.integers(0, element_size // io_size))
                    offset = (
                        s * plain.bytes_per_stripe + i * element_size + slot * io_size
                    )
                    chunk = bytes(rng.integers(0, 256, io_size, dtype=np.uint8))
                    plain.write(offset, chunk)
                    cached.write(offset, chunk)
        total = stripes * plain.bytes_per_stripe
        assert cached.read(0, total) == plain.read(0, total)
        cached.flush()
        for a, b in zip(cached.stripes, plain.stripes):
            assert a == b
        assert cached.scrub() == []
        assert cached.scrub_checksums(repair=False).clean
        assert (cached.stats.journal_records > 0) == journal
        if not evicting:
            assert (plain.parity_writes, cached.parity_writes) == parity_writes

    @pytest.mark.parametrize("name", ["HV", "RDP", "EVENODD"])
    def test_engines_end_alike(self, name):
        """One seeded cached, journaled sequence — evicting writes, a disk
        failing mid-stream, degraded writes, a rebuild, an error exit
        that rolls the dirty cache back — ends in the same bytes, CRCs,
        ledgers and journal on every engine."""
        engines = ["python", "fused"] + [e for e in available_backends() if e == "native"]

        def run(engine):
            store = FileStore(
                get_code(name, 5), element_size=16, engine=engine,
                cache_stripes=2, journal=True,
            )
            store.reserve(6)
            span = 6 * store.bytes_per_stripe
            rng = np.random.default_rng(41)

            def writes(count):
                for _ in range(count):
                    size = int(rng.integers(1, 40))
                    offset = int(rng.integers(0, span - size))
                    store.write(offset, payload(size, seed=int(rng.integers(1 << 30))))

            writes(40)
            store.fail_disk(1)
            writes(20)
            store.rebuild(1)
            writes(10)
            with pytest.raises(RuntimeError, match="abort"):
                with store:
                    writes(10)
                    raise RuntimeError("abort")
            assert store.cache.evictions and store.cache.discards
            return store

        reference, *others = [run(engine) for engine in engines]
        for store in others:
            assert store.stripes == reference.stripes
            for ours, theirs in zip(store.sidecar.stripes, reference.sidecar.stripes):
                assert (ours == theirs).all()
            assert (store.stats.reads, store.stats.writes) == (
                reference.stats.reads, reference.stats.writes
            )
            assert store.parity_writes == reference.parity_writes
            assert store.journal.device.buf == reference.journal.device.buf
        assert reference.scrub_checksums(repair=False).clean

    def test_uint8_lane_elements(self):
        # element_size not a multiple of 8: the executor's uint8 fallback
        cached = self.make(cache=4, element_size=12)
        plain = FileStore(HVCode(7), element_size=12)
        data = payload(250, seed=9)
        for store in (cached, plain):
            store.write(0, data)
            store.write(17, payload(33, seed=10))
        cached.flush()
        for a, b in zip(cached.stripes, plain.stripes):
            assert a == b
        assert cached.scrub() == []


class TestMultiElementWrites:
    """A write spanning two or three stripes, with partial head and tail
    elements, is split stripe by stripe inside ``FileStore.write``.  It
    must leave what a write-through ``python`` store leaves (bytes,
    sidecar, ``data_writes``) and exactly what the same bytes written
    one stripe segment per call leave (per-disk ledgers, parity writes,
    journal device, cache counters)."""

    @pytest.mark.parametrize("journal", [False, True])
    @pytest.mark.parametrize("cache_stripes", [1, 2])
    @pytest.mark.parametrize("name", ["HV", "RDP", "EVENODD"])
    def test_spanning_writes_match_write_through_and_per_stripe_calls(
        self, name, cache_stripes, journal
    ):
        code, es, stripes = get_code(name, 5), 16, 6
        plain = FileStore(code, element_size=es, engine="python", journal=journal)
        whole, split = (
            FileStore(
                code, element_size=es, engine="auto",
                cache_stripes=cache_stripes, journal=journal,
            )
            for _ in range(2)
        )
        for store in (plain, whole, split):
            store.reserve(stripes)
        bps, total = plain.bytes_per_stripe, stripes * plain.bytes_per_stripe
        rng = np.random.default_rng(43)

        def unaligned() -> int:  # a byte inside a stripe, off element bounds
            return int(rng.integers(0, bps // es)) * es + int(rng.integers(1, es))

        def same_program(a: FileStore, b: FileStore) -> None:
            assert (a.stats.reads, a.stats.writes) == (b.stats.reads, b.stats.writes)
            assert (a.data_writes, a.parity_writes) == (b.data_writes, b.parity_writes)
            assert a.stats.flushed_elements == b.stats.flushed_elements
            assert a.cache.stats() == b.cache.stats()
            if journal:
                assert a.journal.device.buf == b.journal.device.buf

        for i in range(25):
            span = int(rng.integers(1, 3))  # boundaries crossed: 2 or 3 stripes
            first = int(rng.integers(0, stripes - span))
            offset = first * bps + unaligned()
            end = (first + span) * bps + unaligned()
            data = payload(end - offset, seed=i)
            plain.write(offset, data)
            whole.write(offset, data)
            at = offset
            while at < end:
                stop = min((at // bps + 1) * bps, end)
                split.write(at, data[at - offset : stop - offset])
                at = stop
            assert whole.read(0, total) == split.read(0, total) == plain.read(0, total)
            same_program(whole, split)
        whole.flush()
        split.flush()
        same_program(whole, split)
        assert whole.stripes == plain.stripes
        for ours, theirs in zip(whole.sidecar.stripes, plain.sidecar.stripes):
            assert (ours == theirs).all()
        assert whole.data_writes == plain.data_writes
        if journal:  # both drained: nothing is in flight
            assert whole.journal.device.buf == plain.journal.device.buf == b""
        assert whole.scrub() == []


class TestParityWriteAccounting:
    def test_multi_element_write_hits_each_parity_once(self):
        # Regression: a multi-element same-stripe write used to RMW the
        # shared parities once per element instead of once per stripe.
        code = HVCode(7)
        store = FileStore(code, element_size=8)
        cells = code.data_positions[:3]
        targets = frozenset().union(*map(code.update_targets, cells))
        store.write(0, payload(3 * 8, seed=11))
        assert store.parity_writes == len(targets)
        assert store.scrub() == []

    def test_cached_flush_parity_writes_match_write_targets(self):
        code = HVCode(7)
        store = FileStore(code, element_size=8, engine="fused", cache_stripes=2)
        cells = code.data_positions[:4]
        store.write(0, payload(4 * 8, seed=12))
        store.flush()
        assert store.parity_writes == len(frozenset().union(*map(code.update_targets, cells)))
        assert store.stats.flushed_elements == 4
        assert store.stats.flush_batches == 1


class TestFlushPlanLookups:
    """What a flush asks of the process-wide plan cache: one lookup per
    dirty pattern, and nothing compiled twice under pattern churn."""

    def test_pattern_churn_compiles_each_pattern_once(self):
        # Every contiguous run of an HV@7 stripe (24 data elements: 300
        # runs), each flushed by eviction from its own stripe, replayed
        # twice: the cyclic replay that defeats an LRU smaller than the
        # pattern set.
        code = HVCode(7)
        total = code.data_elements_per_stripe
        runs = [(s, n) for n in range(1, total + 1) for s in range(total - n + 1)]
        assert len(runs) == 300
        oracle = FileStore(code, element_size=8, engine="python")
        store = FileStore(code, element_size=8, engine="auto", cache_stripes=8)
        for replay in range(2):
            before = PLAN_CACHE.stats()["misses"]
            for stripe, (start, n) in enumerate(runs):
                offset = (stripe * total + start) * 8
                data = payload(n * 8, seed=1000 * replay + stripe)
                oracle.write(offset, data)
                store.write(offset, data)
            store.flush()
            compiled = PLAN_CACHE.stats()["misses"] - before
        assert compiled == 0  # the second replay found every plan
        assert store.stats.flush_batches == 2 * len(runs)
        assert all(a == b for a, b in zip(oracle.stripes, store.stripes))
        assert store.scrub() == []

    def test_same_pattern_evictions_share_one_decision(self):
        PLAN_CACHE.clear()
        store = FileStore(HVCode(7), element_size=8, engine="auto", cache_stripes=1)
        flushes = 20
        store.reserve(flushes)  # zero codewords: no plan compiled
        compile_plan(store.code, "encode")  # the crossover's other side
        before = PLAN_CACHE.stats()
        for stripe in range(flushes):  # each write evicts the one before
            store.write(stripe * store.bytes_per_stripe + 8, payload(16, seed=stripe))
        store.flush()
        assert store.stats.flush_batches == flushes
        after = PLAN_CACHE.stats()
        # The first flush compiles the update plan and weighs it against
        # the encode plan; every flush after it is one lookup.
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1 + (flushes - 1)
        assert store.scrub() == []


# -- the differential: cached == write-through, every registered code -----------------

code_strategy = st.builds(
    lambda cls, p: cls(p),
    st.sampled_from(CODE_CLASSES),
    st.sampled_from([5, 7]),
)


@settings(max_examples=40, deadline=None)
@given(
    code=code_strategy,
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
def test_cached_writes_match_write_through(code, seed, data):
    """Random offset/size write sequences: cached bytes == plain bytes."""
    element_size = data.draw(st.sampled_from([8, 12, 16]))
    cache = data.draw(st.integers(1, 3))
    cached = FileStore(
        code, element_size=element_size, engine="fused", cache_stripes=cache
    )
    plain = FileStore(code, element_size=element_size)
    span = 2 * cached.bytes_per_stripe
    rng = np.random.default_rng(seed)
    n_ops = data.draw(st.integers(1, 8))
    for _ in range(n_ops):
        offset = int(rng.integers(0, span))
        size = int(rng.integers(1, 64))
        chunk = bytes(rng.integers(0, 256, size, dtype=np.uint8))
        cached.write(offset, chunk)
        plain.write(offset, chunk)
    assert cached.read(0, cached.capacity) == plain.read(0, plain.capacity)
    cached.flush()
    for a, b in zip(cached.stripes, plain.stripes):
        assert a == b
    assert cached.scrub() == []
    assert cached.scrub_checksums(repair=False).clean
