"""Stateful model test: FileStore vs a plain bytearray.

Hypothesis drives random interleavings of writes, reads, disk
failures, latent sector errors, rebuilds and scrubs against an
HV-coded FileStore, checking every read against a reference bytearray.
This is the strongest correctness statement in the suite: no sequence
of supported operations may ever lose or corrupt a byte.

The machine runs at five ``(engine, cache_stripes)`` points: the python
oracle and ``auto`` (the native ``update`` override where a compiler
exists) each write-through and over a journalled write-back cache, and
the cache over the vectorized numpy backend, ``fused`` (the inherited
``KernelBackend.update``).  Latent cells make stripes with faults take
every write and flush path on every engine.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import HVCode
from repro.array.filestore import FileStore
from repro.array.stripe import LATENT

#: Keep the modelled volume small so runs stay fast.
MAX_BYTES = 2000


class FileStoreModel(RuleBasedStateMachine):
    engine, cache_stripes = "python", 0

    def __init__(self):
        super().__init__()
        self.code = HVCode(5)
        self.store = FileStore(
            self.code,
            element_size=8,
            engine=self.engine,
            cache_stripes=self.cache_stripes,
        )
        self.reference = bytearray()

    def _grow_reference(self, end: int) -> None:
        if len(self.reference) < end:
            self.reference.extend(bytes(end - len(self.reference)))

    @rule(
        offset=st.integers(0, MAX_BYTES),
        data=st.binary(min_size=1, max_size=120),
    )
    def write(self, offset, data):
        self.store.write(offset, data)
        self._grow_reference(offset + len(data))
        self.reference[offset : offset + len(data)] = data

    @rule(data=st.data())
    def read(self, data):
        if not self.reference:
            return
        offset = data.draw(st.integers(0, len(self.reference) - 1))
        size = data.draw(st.integers(0, len(self.reference) - offset))
        out = self.store.read(offset, size)
        assert out == bytes(self.reference[offset : offset + size])

    def _any_latent(self):
        return any(LATENT in stripe.state for stripe in self.store.stripes)

    # A second failure plus a latent cell can exceed RAID-6: the second
    # disk waits until every latent cell is healed.
    @precondition(
        lambda self: not self.store.failed_disks
        or (len(self.store.failed_disks) == 1 and not self._any_latent())
    )
    @rule(data=st.data())
    def fail_disk(self, data):
        healthy = [
            d
            for d in range(self.code.cols)
            if d not in self.store.failed_disks
        ]
        self.store.fail_disk(data.draw(st.sampled_from(healthy)))

    @precondition(lambda self: self.store.failed_disks)
    @rule(data=st.data())
    def rebuild(self, data):
        disk = data.draw(st.sampled_from(sorted(self.store.failed_disks)))
        self.store.rebuild(disk)

    @rule()
    def flush(self):
        self.store.flush()

    # One disk plus one latent cell per stripe is within RAID-6.
    @precondition(lambda self: len(self.store.failed_disks) <= 1 and self.store.stripes)
    @rule(data=st.data())
    def latent(self, data):
        """One readable cell of a stripe with no latent cell gets a URE."""
        clean = [s for s in self.store.stripes if LATENT not in s.state]
        if not clean:
            return
        stripe = data.draw(st.sampled_from(clean))
        readable = [
            (r, c)
            for r in range(self.code.rows)
            for c in range(self.code.cols)
            if stripe.alive((r, c))
        ]
        stripe.mark_latent(data.draw(st.sampled_from(readable)))

    @invariant()
    def capacity_covers_reference(self):
        assert self.store.capacity >= len(self.reference)

    # A scrub flushes first, so it only runs on a drained cache:
    # deferred parity has to survive from one rule to the next.
    @precondition(
        lambda self: not self.store.failed_disks and not self.store.cache
    )
    @invariant()
    def parity_always_consistent(self):
        self.store.scrub_checksums()  # heals latent cells
        assert self.store.scrub() == []

    def teardown(self):
        assert self.store.read(0, len(self.reference)) == bytes(self.reference)
        if not self.store.failed_disks:
            # Lands whatever is still deferred, then heals latent cells.
            self.store.scrub_checksums()
            assert self.store.scrub() == []
        assert self.store.read(0, len(self.reference)) == bytes(self.reference)


class AutoModel(FileStoreModel):
    engine, cache_stripes = "auto", 0


class PythonCachedModel(FileStoreModel):
    engine, cache_stripes = "python", 2


class AutoCachedModel(FileStoreModel):
    engine, cache_stripes = "auto", 2


class VectorCachedModel(FileStoreModel):
    engine, cache_stripes = "fused", 2


SETTINGS = settings(max_examples=25, stateful_step_count=30, deadline=None)

TestFileStoreStateful = FileStoreModel.TestCase
TestFileStoreStateful.settings = SETTINGS
TestFileStoreStatefulAuto = AutoModel.TestCase
TestFileStoreStatefulAuto.settings = SETTINGS
TestFileStoreStatefulPythonCached = PythonCachedModel.TestCase
TestFileStoreStatefulPythonCached.settings = SETTINGS
TestFileStoreStatefulAutoCached = AutoCachedModel.TestCase
TestFileStoreStatefulAutoCached.settings = SETTINGS
TestFileStoreStatefulVectorCached = VectorCachedModel.TestCase
TestFileStoreStatefulVectorCached.settings = SETTINGS
