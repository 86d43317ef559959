"""Stateful model test: FileStore vs a plain bytearray.

Hypothesis drives random interleavings of writes, reads, disk
failures, rebuilds and scrubs against an HV-coded FileStore, checking
every read against a reference bytearray.  This is the strongest
correctness statement in the suite: no sequence of supported
operations may ever lose or corrupt a byte.

The machine runs at three ``(engine, cache_stripes)`` points: the
write-through python oracle, and a journalled write-back cache over
``auto`` (the native ``update`` override where a compiler exists) and
over the vectorized numpy backend, ``fused`` (the inherited
``KernelBackend.update``).
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

    @precondition(lambda self: len(self.store.failed_disks) < 2)
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
        assert self.store.scrub() == []

    def teardown(self):
        if not self.store.failed_disks:
            assert self.store.scrub() == []  # lands whatever is still deferred
        assert self.store.read(0, len(self.reference)) == bytes(self.reference)


class AutoCachedModel(FileStoreModel):
    engine, cache_stripes = "auto", 2


class VectorCachedModel(FileStoreModel):
    engine, cache_stripes = "fused", 2


SETTINGS = settings(max_examples=25, stateful_step_count=30, deadline=None)

TestFileStoreStateful = FileStoreModel.TestCase
TestFileStoreStateful.settings = SETTINGS
TestFileStoreStatefulAutoCached = AutoCachedModel.TestCase
TestFileStoreStatefulAutoCached.settings = SETTINGS
TestFileStoreStatefulVectorCached = VectorCachedModel.TestCase
TestFileStoreStatefulVectorCached.settings = SETTINGS
