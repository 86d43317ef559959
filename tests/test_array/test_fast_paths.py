"""The served op's one-pass paths agree with the general ones.

``FileStore.read`` answers a sub-element read of a readable cell from a
fast path, the cached write charges its ledger once per call and copies
through the buffer protocol, and ``record_stripe`` re-checksums a
stripe's cells in one call.  Each must be indistinguishable — bytes *and*
ledger — from the loop it short-cuts, and the number of calls an op
makes is pinned so the overhead cannot creep back unnoticed.
"""

import gc
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.filestore import FileStore
from repro.array.iostats import IOStats
from repro.codes.registry import get_code
from repro.engine import get_backend
from repro.exceptions import InvalidParameterError
from repro.faults.checksum import ChecksumSidecar, crc_of
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

ELEMENT = 16
STRIPES = 3


def filled_store(kind: str, *, general: bool) -> FileStore:
    """A small HV store in one of the states a read can meet.

    ``general=True`` attaches an injector with an empty plan: it fires
    nothing, but its clock has to be advanced per element, which forces
    every read down the general loop.
    """
    code = get_code("HV", 5)
    cached = kind == "cached-dirty"
    store = FileStore(
        code, element_size=ELEMENT, engine="auto", cache_stripes=2 if cached else 0
    )
    store.reserve(STRIPES)
    rng = np.random.default_rng(7)
    store.write(0, rng.integers(0, 256, store.capacity, dtype=np.uint8).tobytes())
    store.flush()
    if kind == "single-degraded":
        store.fail_disk(1)
    elif kind == "double-degraded":
        store.fail_disk(0)
        store.fail_disk(3)
    elif kind == "latent":
        for stripe in store.stripes:
            stripe.mark_latent(code.data_positions[2])
    elif cached:
        store.write(5, b"dirty bytes across two elements")
        store.write(store.bytes_per_stripe + 3, b"more")
        # a latent cell under a dirty stripe: the read must flush first
        store.stripes[0].mark_latent(code.data_positions[1])
    if general:
        FaultInjector(FaultPlan()).attach(store)
    return store


KINDS = ("healthy", "single-degraded", "double-degraded", "latent", "cached-dirty")
CAPACITY = filled_store("healthy", general=False).capacity

ranges = st.lists(
    st.tuples(
        st.integers(0, CAPACITY + ELEMENT),
        st.one_of(st.integers(0, ELEMENT), st.integers(0, 3 * ELEMENT)),
    ),
    min_size=1,
    max_size=12,
)


class TestReadFastPath:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(ranges=ranges)
    def test_same_bytes_and_same_ledger_as_the_general_loop(self, kind, ranges):
        fast = filled_store(kind, general=False)
        general = filled_store(kind, general=True)
        for offset, size in ranges:
            outcomes = []
            for store in (fast, general):
                try:
                    outcomes.append(store.read(offset, size))
                except InvalidParameterError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert fast.stats == general.stats
            assert vars(fast.healing) == vars(general.healing)
        for a, b in zip(fast.stripes, general.stripes):
            assert a == b

    def test_the_general_store_really_takes_the_loop(self):
        general = filled_store("healthy", general=True)
        general.read(3, 5)
        assert general.injector.ops == 1  # the fast path never pings


def as_bytes(data: bytes) -> bytes:
    return data


def as_bytearray(data: bytes) -> bytearray:
    return bytearray(data)


def as_memoryview_slice(data: bytes) -> memoryview:
    return memoryview(b"\xff\xff" + data + b"\xff")[2:-1]


def as_uint8_array(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8).copy()


def as_strided_array(data: bytes) -> np.ndarray:
    """Every other byte of a buffer twice as long: not contiguous."""
    spread = np.zeros(2 * len(data), dtype=np.uint8)
    spread[::2] = np.frombuffer(data, dtype=np.uint8)
    return spread[::2]


class TestWriteBufferKinds:
    @pytest.mark.parametrize(
        "wrap",
        [as_bytes, as_bytearray, as_memoryview_slice, as_uint8_array, as_strided_array],
    )
    @pytest.mark.parametrize("cache_stripes", [0, 2])
    @settings(max_examples=25, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, CAPACITY - 1), st.binary(min_size=1, max_size=50)),
            min_size=1,
            max_size=8,
        )
    )
    def test_every_buffer_lands_the_bytes_the_reference_store_holds(
        self, wrap, cache_stripes, writes
    ):
        """The reference is the pure-Python write-through store fed
        plain ``bytes`` — the path this PR did not touch."""
        code = get_code("HV", 5)
        reference = FileStore(code, element_size=ELEMENT, engine="python")
        store = FileStore(
            code, element_size=ELEMENT, engine="auto", cache_stripes=cache_stripes
        )
        model = bytearray(CAPACITY)
        for s in (reference, store):
            s.reserve(STRIPES)
        for offset, data in writes:
            data = data[: CAPACITY - offset]
            reference.write(offset, data)
            store.write(offset, wrap(data))
            model[offset : offset + len(data)] = data
            assert store.read(0, CAPACITY) == bytes(model)
        store.flush()
        for a, b in zip(reference.stripes, store.stripes):
            assert a == b
        for a, b in zip(reference.sidecar.stripes, store.sidecar.stripes):
            assert np.array_equal(a, b)
        assert store.scrub() == []
        assert store.data_writes == reference.data_writes

    def test_signed_bytes_are_written_as_the_bytes_they_are(self):
        store = FileStore(get_code("HV", 5), element_size=ELEMENT, cache_stripes=2)
        store.write(4, np.array([-1, 2, -3], dtype=np.int8))
        assert store.read(4, 3) == b"\xff\x02\xfd"

    @pytest.mark.parametrize("cache_stripes", [0, 2])
    @pytest.mark.parametrize(
        "array",
        [
            np.arange(10, dtype=np.uint16)[::2],
            np.arange(40, dtype=np.uint32).reshape(5, 8)[:, ::3],
            np.asfortranarray(np.arange(24, dtype=np.uint8).reshape(4, 6)),
        ],
        ids=["strided-uint16", "2d-column-slice", "fortran-order"],
    )
    def test_a_non_contiguous_buffer_lands_its_c_order_bytes(self, cache_stripes, array):
        store = FileStore(get_code("HV", 5), element_size=ELEMENT, cache_stripes=cache_stripes)
        store.write(3, array)
        assert store.read(3, array.nbytes) == array.tobytes()
        store.flush()
        assert store.scrub() == []

    @pytest.mark.parametrize("cache_stripes", [0, 2])
    def test_integer_like_offsets_are_taken(self, cache_stripes):
        store = FileStore(get_code("HV", 5), element_size=ELEMENT, cache_stripes=cache_stripes)
        store.write(np.int64(5), b"abc")
        assert store.read(np.int32(5), np.uint8(3)) == b"abc"

    @pytest.mark.parametrize("cache_stripes", [0, 2])
    def test_bad_offsets_sizes_and_payloads_are_refused_before_anything_lands(
        self, cache_stripes
    ):
        store = FileStore(get_code("HV", 5), element_size=ELEMENT, cache_stripes=cache_stripes)
        store.reserve(1)
        store.write(0, b"kept")
        before = (store.read(0, store.capacity), store.capacity, store.stats.copy())
        for call in (
            lambda: store.write(1.0, b"x"),
            lambda: store.write(2.5, b"x"),
            lambda: store.write(3, "text"),
            lambda: store.write(3, None),
            lambda: store.write("3", b"x"),
            lambda: store.read(1.0, 3),
            lambda: store.read(1, 3.0),
            lambda: store.read(None, 3),
        ):
            with pytest.raises(InvalidParameterError):
                call()
        assert (store.read(0, store.capacity), store.capacity) == before[:2]


class TestRecordStripeCells:
    @settings(max_examples=30, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10
        ),
        seed=st.integers(0, 2**16),
    )
    def test_equals_record_per_cell(self, cells, seed):
        code = get_code("HV", 5)
        stripe = code.random_stripe(element_size=ELEMENT, seed=seed)
        one_call, per_cell = (ChecksumSidecar(code.rows, code.cols) for _ in "ab")
        for sidecar in (one_call, per_cell):
            sidecar.add_zero_stripe(ELEMENT)
        one_call.record_stripe(0, stripe, cells)
        for pos in cells:
            per_cell.record(0, pos, stripe.data[pos])
        assert np.array_equal(one_call.stripes[0], per_cell.stripes[0])

    def test_without_cells_it_still_covers_the_whole_stripe(self):
        code = get_code("HV", 5)
        stripe = code.random_stripe(element_size=ELEMENT, seed=1)
        sidecar = ChecksumSidecar(code.rows, code.cols)
        sidecar.add_zero_stripe(ELEMENT)
        sidecar.record_stripe(0, stripe)
        assert all(
            crc_of(stripe.data[pos]) == sidecar.expected(0, pos) for pos in code.layout
        )


class TestBulkLedgerCharges:
    @settings(max_examples=30, deadline=None)
    @given(disks=st.lists(st.integers(0, 4), max_size=12))
    def test_equal_one_record_call_per_disk(self, disks):
        bulk, single = IOStats(5), IOStats(5)
        bulk.record_reads(disks)
        bulk.record_writes(reversed(disks))
        for disk in disks:
            single.record_read(disk)
            single.record_write(disk)
        assert bulk == single

    @pytest.mark.parametrize("bad", [[-1], [5], [0, 1, 7]])
    def test_range_checked_like_record_read(self, bad):
        stats = IOStats(5)
        with pytest.raises(InvalidParameterError):
            stats.record_reads(bad)
        with pytest.raises(InvalidParameterError):
            stats.record_writes(bad)
        with pytest.raises(InvalidParameterError):
            stats.record_read(bad[-1])


def calls_made(fn) -> int:
    """Python-level and C-level calls ``fn()`` makes, itself included —
    exact and timing-free, the same on every host.

    The cyclic collector is paused meanwhile: a collection that happens
    to fall inside ``fn()`` would count the ``gc.callbacks`` it runs
    (Hypothesis registers one to time its deadlines), calls that depend
    on the allocation history, not on ``fn``.
    """
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return count - 1  # the closing ``sys.setprofile`` call itself


@pytest.mark.skipif(
    not get_backend("native").available(), reason="budget is the native path's"
)
class TestCallBudget:
    """Upper bounds on the calls one served op makes at the store
    boundary (HV p = 11, 4 KiB elements, ``engine="auto"``, journal and
    sidecar on, cache of 8), as counted on Python 3.11.  They were
    18 / 39 / 161 at first and 8 / 25 / 102 (370 for a 30-element
    evicting write) before the write path split by stripe and landed
    through one flat view; the general read and the degraded write were
    17 / 26 / 55 / 152 (see their tests) before they moved their bytes
    through it too.  A later change may lower them, never raise them."""

    @pytest.fixture()
    def store(self):
        store = FileStore(
            get_code("HV", 11), element_size=4096, engine="auto", cache_stripes=8
        )
        store.reserve(32)
        self.bps = store.bytes_per_stripe
        self.payload = bytes(range(256)) * 4
        # Warm the plan cache for the pattern, then leave the stripe
        # cache full of stripes 0..7, each with the same dirty element.
        for _ in range(2):
            for s in range(20):
                store.write(s * self.bps + 100, self.payload)
        store.flush()
        for s in range(8):
            store.write(s * self.bps + 100, self.payload)
        return store

    def test_sub_element_cached_read(self, store):
        assert calls_made(lambda: store.read(3 * self.bps + 200, 700)) <= 8

    def test_cache_hit_write(self, store):
        assert calls_made(lambda: store.write(3 * self.bps + 100, self.payload)) <= 21

    def test_one_element_evicting_write(self, store):
        evictions = store.cache.evictions
        calls = calls_made(lambda: store.write(9 * self.bps + 100, self.payload))
        assert store.cache.evictions == evictions + 1
        assert calls <= 96

    def test_thirty_element_evicting_write(self, store):
        run = bytes(range(256)) * 16 * 30  # 30 whole elements of one stripe
        for s in range(12, 14):  # the 30-element pattern's plan, warm
            store.write(s * self.bps, run)
        for s in range(8):
            store.write(s * self.bps + 100, self.payload)
        evictions = store.cache.evictions
        calls = calls_made(lambda: store.write(25 * self.bps, run))
        assert store.cache.evictions == evictions + 1
        assert calls <= 125

    def test_two_element_healthy_read(self, store):
        # 200 bytes across an element boundary: the general loop
        store.read(0, 2 * 4096)  # the healthy loss state, memoised
        assert calls_made(lambda: store.read(3 * self.bps + 4096 - 100, 200)) <= 15

    def test_five_element_healthy_read(self, store):
        store.read(0, 2 * 4096)
        assert calls_made(lambda: store.read(3 * self.bps, 5 * 4096)) <= 18

    @pytest.fixture()
    def degraded(self, store):
        """The store with the disk of data element 1 down, the degraded
        read and write plans below warm."""
        store.fail_disk(store.code.data_positions[1][1])
        self.run = bytes(range(256)) * 16 * 5
        for s in (12, 13):
            store.read(s * self.bps, 3 * 4096)
            store.write(s * self.bps, self.run)
        return store

    def test_three_element_single_degraded_read(self, degraded):
        # elements 0-2, element 1 lost: one read plan, one gather
        assert calls_made(lambda: degraded.read(14 * self.bps, 3 * 4096)) <= 54

    def test_five_element_degraded_write(self, degraded):
        # elements 0-4, element 1 lost: its old value gathered, one fold
        assert calls_made(lambda: degraded.write(15 * self.bps, self.run)) <= 128
