"""Degraded I/O at the paper's price.

``RAID6Volume`` prices a write by its compiled ``update`` plan and a
lost cell by its compiled ``read`` plan (Fig. 7's read set), the plans
a ``FileStore`` runs; a rebuild runs the ``read`` of the whole column,
Fig. 9's hybrid chains, at the price ``repair_cost`` quotes.
The differential drives the store and the volume with the same element
runs, over every implemented code, and asks for the same ledger — the
store runs the plans, the volume only counts them, so a divergence is
a pricing bug in one of the two; the concurrency test holds the read
path to its promise that it never writes the stripe readers share; the
plan test proves every sliced read plan symbolically.
"""

import sys
import threading

import numpy as np
import pytest

from repro.array.filestore import FileStore
from repro.array.raid import RAID6Volume
from repro.array.stripe import ERASED
from repro.codes.registry import available_codes, get_code
from repro.engine import PlanCache, compile_plan
from repro.exceptions import PlanError
from repro.recovery.cost import repair_cost
from repro.service import VolumePool
from repro.static.planverify import verify_plan
from repro.utils import pairs

ELEMENT = 16
STRIPES = 3


def charged_since(store, before):
    """The store's per-disk (reads, writes) since ledger ``before``."""
    return (
        [a - b for a, b in zip(store.stats.reads, before.reads)],
        [a - b for a, b in zip(store.stats.writes, before.writes)],
    )


@pytest.mark.parametrize("engine", ["python", "auto"])
@pytest.mark.parametrize("name", available_codes())
def test_filestore_charges_what_the_volume_prices(name, engine):
    code = get_code(name, 7)
    rng = np.random.default_rng(3)
    store = FileStore(code, element_size=ELEMENT, engine=engine, cache_stripes=0)
    model = bytearray(rng.bytes(STRIPES * store.bytes_per_stripe))
    store.write(0, bytes(model))
    volume = RAID6Volume(code, num_stripes=STRIPES)
    elements = STRIPES * code.data_elements_per_stripe
    # Healthy: every write-through element run is one read-modify-write,
    # even an element rewritten with the bytes it holds (a zero delta).
    for i in range(20):
        length = 1 if i == 0 else int(rng.integers(1, 2 * code.cols + 1))
        start = int(rng.integers(0, elements - length + 1))
        lo, hi = start * ELEMENT, (start + length) * ELEMENT
        payload = bytes(model[lo:hi]) if i == 0 else rng.bytes(hi - lo)
        before = store.stats.copy()
        store.write(lo, payload)
        model[lo:hi] = payload
        priced = volume.write(start, length)
        assert charged_since(store, before) == (priced.io.reads, priced.io.writes), (
            start,
            length,
        )
    disk = int(rng.integers(code.cols))
    store.fail_disk(disk)
    store.stats.reset()
    volume.fail_disk(disk)
    for i in range(60):
        length = int(rng.integers(1, 2 * code.cols + 1))
        start = int(rng.integers(0, elements - length + 1))
        lo, hi = start * ELEMENT, (start + length) * ELEMENT
        before = store.stats.copy()
        if i % 3 == 2:
            payload = rng.bytes(hi - lo)
            store.write(lo, payload)
            model[lo:hi] = payload
            priced = volume.write(start, length)
        else:
            assert store.read(lo, hi - lo) == model[lo:hi]
            priced = volume.degraded_read(start, length, planner="greedy")
        assert charged_since(store, before) == (priced.io.reads, priced.io.writes), (
            start,
            length,
        )
        assert priced.io.reads[disk] == priced.io.writes[disk] == 0
    assert store.stats.reads[disk] == store.stats.writes[disk] == 0
    healed = store.healing.reads
    store.rebuild(disk)
    assert store.healing.reads - healed == STRIPES * repair_cost(code, (disk,)).reads
    assert store.read(0, len(model)) == model
    assert store.scrub() == []
    assert store.scrub_checksums(repair=False).clean


@pytest.mark.parametrize("name", available_codes())
def test_the_priced_repair_is_the_served_repair(name, monkeypatch):
    """With disk ``d`` its only loss, a store's ``rebuild(d)`` charges
    per stripe exactly the reads ``repair_cost(code, (d,))`` quotes, and
    the quote is the rebuild's own plan-cache entry: pricing it after
    the rebuild is one hit and no miss."""
    code = get_code(name, 5)
    data = np.random.default_rng(5).bytes(STRIPES * FileStore(code, ELEMENT).bytes_per_stripe)
    for disk in range(code.cols):
        cache = PlanCache()  # fresh, so the rebuild compiles the plan itself
        monkeypatch.setitem(compile_plan.__kwdefaults__, "cache", cache)
        store = FileStore(code, element_size=ELEMENT, engine="fused")
        store.write(0, data)
        store.fail_disk(disk)
        healed = store.healing.reads
        store.rebuild(disk)
        before = cache.stats()
        cost = repair_cost(code, (disk,))
        after = cache.stats()
        assert store.healing.reads - healed == len(store.stripes) * cost.reads, disk
        assert len(store.stripes) == STRIPES
        assert (after["hits"] - before["hits"], after["misses"]) == (1, before["misses"])


@pytest.mark.parametrize("engine", ["fused", "auto"])
def test_a_write_through_store_charges_its_compiled_fold(engine):
    store = FileStore(get_code("HV", 7), element_size=ELEMENT, engine=engine)
    store.write(3 * ELEMENT, bytes(range(2 * ELEMENT)))
    assert store.stats.xor_words > 0
    assert store.stats.kernel_invocations > 0


def test_concurrent_degraded_reads_never_write_the_shared_stripe():
    pool = VolumePool(
        "HV", 7, num_stripes=1, element_size=512, num_shards=1, engine="auto"
    )
    code = get_code("HV", 7)
    model = np.random.default_rng(5).bytes(pool.bytes_per_stripe)
    pool.write(0, 0, model)
    pool.fail_disk(0, 0)
    pool.fail_disk(0, 3)
    lost = [i for i, (_, c) in enumerate(code.data_positions) if c in (0, 3)]
    wrong: list[int] = []

    # No lock: readers may share a store, each plan computing into scratch.
    def reader(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(10_000):
            first = int(rng.choice(lost))
            count = min(int(rng.integers(1, 4)), len(code.data_positions) - first)
            lo, hi = first * 512, (first + count) * 512
            got = pool.read(0, lo, hi - lo)
            if got != model[lo:hi]:
                wrong.append(first)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(s,)) for s in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    stripe = pool.shards[0].stripes[0]
    assert (stripe.state[:, [0, 3]] == ERASED).all() and not stripe.data[:, [0, 3]].any()


def read_patterns(code):
    """Every ``read`` pattern of one wanted cell, nothing free, with one
    or two whole disks lost: what a degraded store asks per cell."""
    patterns = []
    for disks in [(d,) for d in range(code.cols)] + list(pairs(code.cols)):
        erased = tuple(sorted(r * code.cols + d for d in disks for r in range(code.rows)))
        patterns.extend((erased, (slot,), ()) for slot in erased)
    return patterns


@pytest.mark.parametrize(
    "name, p", [(name, 5) for name in available_codes()] + [("HV", 7)]
)
def test_every_sliced_read_plan_is_verified(name, p):
    code = get_code(name, p)
    verified = 0
    for pattern in read_patterns(code):
        try:
            plan = compile_plan(code, "read", pattern, cache=None)
        except PlanError:
            continue  # a pattern peeling cannot finish: the store decodes
        verify_plan(code, plan)  # symbolic proof plus the P001-P004 lint
        verified += 1
    assert verified >= len(read_patterns(code)) // 2


def one_disk_reads(code):
    """Every read of 1..15 elements starting at element 0..19 of a
    two-stripe volume, as ``(start, length)``."""
    elements = 2 * code.data_elements_per_stripe
    return [(s, n) for s in range(20) for n in range(1, 16) if s + n <= elements]


@pytest.mark.parametrize("name", available_codes())
def test_one_disk_reads_plan_around_the_whole_failed_column(name):
    """A lost cell's chain avoids the failed column's unrequested cells
    too: EVENODD, Liberation and Cauchy-RS chains can touch one column
    twice, and a plan through such a cell fails validation (the volume)
    or falls to rung 3's whole-stripe decode (the store)."""
    code = get_code(name, 5)
    for disk in range(code.cols):
        volume = RAID6Volume(code, num_stripes=2)
        volume.fail_disk(disk)
        store = FileStore(code, element_size=ELEMENT, engine="fused")
        model = np.random.default_rng(disk).bytes(2 * store.bytes_per_stripe)
        store.write(0, model)
        store.fail_disk(disk)
        escalations = store.healing.escalations
        for start, length in one_disk_reads(code):
            volume.degraded_read(start, length, planner="greedy")
            lo, hi = start * ELEMENT, (start + length) * ELEMENT
            assert store.read(lo, hi - lo) == model[lo:hi]
        assert store.healing.escalations == escalations
