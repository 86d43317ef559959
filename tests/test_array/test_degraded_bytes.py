"""Degraded reads and writes, byte for byte and charge for charge.

General-path reads hand back views of the stripe's flat byte view that
one ``bytes.join`` copies, and write-through and degraded writes land
through that view.  What they return and what they charge must not
depend on how the bytes travel: a seeded drive of multi-element reads
and writes across element and stripe boundaries — healthy, with latent
cells, with one and with two disks down — is checked against a
``bytearray`` model at every read, and its ledgers, healing counters,
parity writes and CRC sidecar against the values the store produced
when every cell was copied by numpy.  An injector that fires a flip or
a whole-disk crash in the middle of a read must not reach the bytes
that read already took.
"""

import hashlib
import zlib

import numpy as np
import pytest

from repro.array.filestore import FileStore
from repro.codes.registry import get_code
from repro.engine import compile_plan
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan

ELEMENT = 16
STRIPES = 4


def drive(name: str, cache_stripes: int, journal: bool) -> FileStore:
    """Fill, then read and write runs of 1-3 elements that start and end
    off element bounds, most crossing a stripe boundary: healthy, with a
    latent data cell and a latent parity, with one disk down and a
    latent cell on the next disk to fail, with two down; rebuild both.
    Every read is checked against the model here."""
    code = get_code(name, 5)
    store = FileStore(
        code, element_size=ELEMENT, engine="auto",
        cache_stripes=cache_stripes, journal=journal,
    )
    store.reserve(STRIPES)
    bps, eps = store.bytes_per_stripe, code.data_elements_per_stripe
    model = bytearray(np.random.default_rng(5).bytes(store.capacity))
    store.write(0, bytes(model))
    rng = np.random.default_rng(17)

    def span() -> tuple[int, int]:
        stripe = int(rng.integers(0, STRIPES))
        element = int(rng.integers(eps - 2, eps + 1)) if stripe < STRIPES - 1 else 1
        offset = stripe * bps + element * ELEMENT - int(rng.integers(1, ELEMENT))
        size = int(rng.integers(1, 3)) * ELEMENT + int(rng.integers(1, ELEMENT))
        return offset, min(size, store.capacity - offset)

    def read(offset: int, size: int) -> None:
        assert store.read(offset, size) == model[offset : offset + size]

    def write(offset: int, size: int) -> None:
        data = rng.bytes(size)
        store.write(offset, data)
        model[offset : offset + size] = data

    def ops(count: int) -> None:
        for _ in range(count):
            read(*span())
            write(*span())

    d1, d2 = 1, code.cols - 2
    ops(6)
    store.flush()  # latent cells on a stripe whose parity is current
    last, at = store.stripes[-1], (STRIPES - 1) * bps
    last.mark_latent(code.data_positions[2])
    last.mark_latent(code.parity_positions[0])
    read(at + 5, 3 * ELEMENT)
    write(at + ELEMENT + 3, 2 * ELEMENT)  # heals the latent data cell
    # ... and on a stripe that is dirty in the cache, when there is one:
    # the read flushes it first, which heals the latent parity it rewrites
    write(3, 10)
    slot = code.data_positions[0][0] * code.cols + code.data_positions[0][1]
    parity = compile_plan(code, "update", (slot,)).outputs[0]
    store.stripes[0].mark_latent(code.data_positions[1])
    store.stripes[0].mark_latent(divmod(parity, code.cols))
    read(0, 3 * ELEMENT)
    ops(6)
    store.scrub_checksums()  # heals what latent cells the writes left
    store.fail_disk(d1)
    ops(8)
    for row, stripe in enumerate(store.stripes[:2]):  # erased with d2 later
        stripe.mark_latent((row, d2))
    ops(6)
    store.fail_disk(d2)
    ops(8)
    store.rebuild(d1)
    store.rebuild(d2)
    assert store.read(0, store.capacity) == model
    assert store.scrub() == []
    assert store.scrub_checksums(repair=False).clean
    return store


def program(store: FileStore) -> tuple:
    """What the drive charged and checksummed: per-disk reads and
    writes, healing counters, data and parity writes, journal records,
    and a digest of every sidecar row."""
    healing = store.healing
    sidecar = hashlib.sha256(b"".join(row.tobytes() for row in store.sidecar.stripes))
    return (
        store.stats.reads,
        store.stats.writes,
        (healing.chain_repairs, healing.escalations, healing.reads),
        (store.data_writes, store.parity_writes, store.stats.journal_records),
        sidecar.hexdigest()[:16],
    )


#: ``program(drive(name, cache_stripes, journal))`` as the store gave it
#: when reads and degraded writes copied every cell through numpy.
PINNED = {
    ("HV", 0, False): (
        [174, 55, 80, 170],
        [99, 38, 56, 101],
        (71, 0, 59), (120, 174, 0), "fa19521a550a4e22",
    ),
    ("HV", 0, True): (
        [174, 55, 80, 170],
        [99, 38, 56, 101],
        (71, 0, 59), (120, 174, 120), "fa19521a550a4e22",
    ),
    ("HV", 2, False): (
        [153, 41, 66, 151],
        [94, 33, 53, 95],
        (70, 0, 58), (120, 155, 0), "fa19521a550a4e22",
    ),
    ("HV", 2, True): (
        [153, 41, 66, 151],
        [94, 33, 53, 95],
        (70, 0, 58), (120, 155, 105), "fa19521a550a4e22",
    ),
    ("RDP", 0, False): (
        [140, 55, 119, 133, 81, 173],
        [43, 26, 41, 45, 61, 142],
        (69, 0, 119), (155, 203, 0), "8a192830877c7da3",
    ),
    ("RDP", 0, True): (
        [140, 55, 119, 133, 81, 173],
        [43, 26, 41, 45, 61, 142],
        (69, 0, 119), (155, 203, 120), "8a192830877c7da3",
    ),
    ("RDP", 2, False): (
        [134, 52, 118, 130, 57, 142],
        [43, 26, 41, 45, 53, 128],
        (68, 0, 116), (155, 181, 0), "8a192830877c7da3",
    ),
    ("RDP", 2, True): (
        [134, 52, 118, 130, 57, 142],
        [43, 26, 41, 45, 53, 128],
        (68, 0, 116), (155, 181, 105), "8a192830877c7da3",
    ),
    ("EVENODD", 0, False): (
        [98, 50, 92, 116, 123, 74, 141],
        [43, 24, 28, 37, 43, 61, 120],
        (60, 0, 171), (175, 181, 0), "00f136f1c3e6f8d0",
    ),
    ("EVENODD", 0, True): (
        [98, 50, 92, 116, 123, 74, 141],
        [43, 24, 28, 37, 43, 61, 120],
        (60, 0, 171), (175, 181, 120), "00f136f1c3e6f8d0",
    ),
    ("EVENODD", 2, False): (
        [92, 47, 90, 114, 119, 51, 112],
        [43, 24, 28, 37, 43, 53, 108],
        (59, 0, 165), (175, 161, 0), "00f136f1c3e6f8d0",
    ),
    ("EVENODD", 2, True): (
        [92, 47, 90, 114, 119, 51, 112],
        [43, 24, 28, 37, 43, 53, 108],
        (59, 0, 165), (175, 161, 105), "00f136f1c3e6f8d0",
    ),
}


class TestDegradedDifferential:
    @pytest.mark.parametrize("journal", [False, True])
    @pytest.mark.parametrize("cache_stripes", [0, 2])
    @pytest.mark.parametrize("name", ["HV", "RDP", "EVENODD"])
    def test_bytes_match_the_model_and_charges_the_pins(self, name, cache_stripes, journal):
        store = drive(name, cache_stripes, journal)
        assert program(store) == PINNED[name, cache_stripes, journal]


class TestInjectorMidRead:
    """A fault fired by a later cell's clock tick leaves the cells a
    read already took as they were when it took them."""

    @pytest.mark.parametrize("cache_stripes", [0, 2])
    @pytest.mark.parametrize("kind", [FaultKind.BIT_FLIP, FaultKind.DISK_CRASH])
    def test_a_fault_on_a_cell_already_read_does_not_reach_the_read(self, kind, cache_stripes):
        code = get_code("HV", 5)
        store = FileStore(code, element_size=ELEMENT, engine="auto", cache_stripes=cache_stripes)
        store.reserve(2)
        bps, eps = store.bytes_per_stripe, code.data_elements_per_stripe
        model = np.random.default_rng(3).bytes(store.capacity)
        store.write(0, model)
        store.write(3, b"dirty")  # stripe 0 is cached when the cache is on
        model = model[:3] + b"dirty" + model[8:]
        # A run of six elements from inside stripe 0's element eps - 3
        # into stripe 1; the fault fires at the third cell's tick and
        # hits the first, which the read took at the first tick.
        first = eps - 3
        offset, size = first * ELEMENT + 5, 6 * ELEMENT
        r, c = code.data_positions[first]
        event = FaultEvent(kind, at_op=3, disk=c, stripe=0, row=r, byte_index=7, mask=0xFF)
        injector = FaultInjector(FaultPlan([event])).attach(store)
        got = store.read(offset, size)
        assert injector.fired == [event]
        assert got == model[offset : offset + size]
        if kind is FaultKind.BIT_FLIP:
            assert store.stripes[0].data[r, c, 7] != model[first * ELEMENT + 7]
        else:
            assert c in store.failed_disks and not store.stripes[0].data[r, c].any()


class TestWriteHoleFlush:
    def test_a_dirty_cell_erased_before_its_flush_keeps_its_old_content(self):
        """The write hole: the new bytes died with the cell, so the fold
        adds no delta for it and its CRC stays the pre-image's, the
        content decoding the untouched parity gives back."""
        code = get_code("HV", 5)
        store = FileStore(code, element_size=ELEMENT, engine="auto", cache_stripes=2)
        old = np.random.default_rng(9).bytes(store.bytes_per_stripe)
        store.write(0, old)
        store.flush()
        store.write(ELEMENT + 2, b"new bytes")  # element 1, dirty in the cache
        pos = code.data_positions[1]
        store.stripes[0].erase(pos)
        store.flush()
        assert store.sidecar.expected(0, pos) == zlib.crc32(old[ELEMENT : 2 * ELEMENT])
        assert store.read(0, 3 * ELEMENT) == old[: 3 * ELEMENT]
