"""The journal device is bounded by the cache, not by the run length.

Intents are idempotent flags, so a cached store that never drains
compacts its device instead of growing it: past
``FileStore.journal_bound`` the live flags are re-logged (one intent
per dirty stripe) and the rest is trimmed.  The property below drives
that through interleaved cached writes, reads and degraded writes
with **no flush**, and checks after every op that the device is within
the bound and names exactly the cache's dirty stripes; the sustained
run proves a long one really crosses compactions and what they cost.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import HVCode, RDPCode
from repro.array.filestore import FileStore

CODES = [HVCode(5), RDPCode(5)]
ELEMENT_SIZE = 8
STRIPES = 6

#: ``(kind, where, size)``; ``where`` is folded into the volume and
#: seeds the payload.  Long enough, with writes wide enough (up to
#: three stripes), that examples cross the bound and compact.
OPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "read", "reconstruct-write"]),
        st.integers(0, 2**16),
        st.integers(1, 200),
    ),
    min_size=30,
    max_size=120,
)


def check_journal(store: FileStore) -> None:
    assert len(store.journal.device) <= store.journal_bound
    dirty = sorted(idx for idx, _ in store.cache.items())
    assert store.journal.replay().dirty_stripes() == dirty


@settings(max_examples=60, deadline=None)
@given(
    code=st.sampled_from(CODES),
    engine=st.sampled_from(["python", "auto"]),
    cache_stripes=st.sampled_from([1, 4]),
    ops=OPS,
    data=st.data(),
)
def test_device_bounded_and_names_the_dirty_set(
    code, engine, cache_stripes, ops, data
):
    store = FileStore(
        code, element_size=ELEMENT_SIZE, engine=engine, cache_stripes=cache_stripes
    )
    oracle = FileStore(code, element_size=ELEMENT_SIZE)  # write-through
    store.reserve(STRIPES)
    oracle.reserve(STRIPES)
    reopen_at = data.draw(st.integers(0, len(ops) - 1), label="reopen_at")
    for i, (kind, where, size) in enumerate(ops):
        offset = where % (store.capacity - size)
        if kind == "read":
            assert store.read(offset, size) == oracle.read(offset, size)
        else:
            payload = np.random.default_rng(where).bytes(size)
            if kind == "reconstruct-write":
                # A latent sector error under the write's first element:
                # the store flushes that stripe alone, recovers the old
                # bytes through a read plan and commits the write
                # synchronously, rewriting the sector.
                stripe_idx, within = divmod(offset, store.bytes_per_stripe)
                cell = code.data_positions[within // ELEMENT_SIZE]
                store.stripes[stripe_idx].mark_latent(cell)
            store.write(offset, payload)
            oracle.write(offset, payload)
        check_journal(store)
        if i == reopen_at:
            # Power cut with parity deferred: what recovery rebuilds
            # from the flags alone is the write-through image.
            store, report = FileStore.reopen_from(store)
            assert report.clean
            assert store.stripes == oracle.stripes
            assert store.scrub_checksums(repair=False).clean
            check_journal(store)
    store.flush()
    assert store.stripes == oracle.stripes
    assert len(store.journal.device) == 0


def test_sustained_load_compacts_instead_of_growing():
    # The cache never drains (no flush, every write evicts), so at the
    # parent commit the device only ever grew.  A scaled-down form of
    # the 50 000-op run recorded in CHANGES.md (PR 22).
    store = FileStore(HVCode(11), element_size=512, engine="auto", cache_stripes=8)
    store.reserve(64)
    rng = np.random.default_rng(0)
    device = store.journal.device
    relogged = 0
    compact = store.journal.compact

    def counting_compact(live):
        nonlocal relogged
        sizes = compact(live)
        relogged += sum(sizes)
        return sizes

    store.journal.compact = counting_compact
    for _ in range(5000):
        size = int(rng.integers(1, 8 * store.element_size))
        store.write(int(rng.integers(0, store.capacity - size)), bytes(size))
        assert len(device) <= store.journal_bound
    assert len(store.cache) == 8 and device.truncations >= 3
    assert device.bytes_appended > 5 * store.journal_bound
    assert relogged < 0.05 * device.bytes_appended
    # Re-logs are charged to the ledger like any other frame.
    assert store.stats.journal_bytes == device.bytes_appended
    assert store.stats.journal_records == device.appends
