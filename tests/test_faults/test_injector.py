"""Tests for the fault injector: firing, windows, retry budget."""

import pytest

from repro import HVCode
from repro.array.filestore import FileStore
from repro.array.stripe import LATENT
from repro.exceptions import InvalidParameterError, TransientIOError
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.faults.checksum import crc_of


def make_store(p=5, element_size=16, stripes=2):
    store = FileStore(HVCode(p), element_size=element_size)
    payload = bytes(
        i % 251 for i in range(stripes * store.bytes_per_stripe)
    )
    store.write(0, payload)
    return store


class TestWiring:
    def test_attach_binds_both_ways(self):
        store = make_store()
        injector = FaultInjector(FaultPlan()).attach(store)
        assert store.injector is injector
        assert injector.store is store

    def test_constructor_via_filestore(self):
        injector = FaultInjector(FaultPlan())
        store = FileStore(HVCode(5), element_size=16, injector=injector)
        assert store.injector is injector
        assert injector.store is store

    def test_unattached_apply_rejected(self):
        injector = FaultInjector(
            FaultPlan([FaultEvent(FaultKind.DISK_CRASH, disk=0)])
        )
        with pytest.raises(InvalidParameterError):
            injector.flush()

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            FaultInjector(FaultPlan(), max_retries=-1)
        with pytest.raises(InvalidParameterError):
            FaultInjector(FaultPlan(), backoff_base_ms=-0.5)


class TestFiring:
    def test_event_fires_when_op_arrives(self):
        store = make_store()
        plan = FaultPlan([FaultEvent(FaultKind.DISK_CRASH, at_op=3, disk=2)])
        injector = FaultInjector(plan).attach(store)
        injector.on_element_io(0, (0, 0), "read")
        injector.on_element_io(0, (0, 1), "read")
        assert store.failed_disks == set()
        injector.on_element_io(0, (0, 3), "read")
        assert store.failed_disks == {2}
        assert len(injector.fired) + len(injector.skipped) == len(plan.events)

    def test_reads_drive_the_clock(self):
        store = make_store()
        plan = FaultPlan([FaultEvent(FaultKind.DISK_CRASH, at_op=1, disk=0)])
        FaultInjector(plan).attach(store)
        store.read(0, store.element_size)
        assert store.failed_disks == {0}

    def test_flush_fires_everything(self):
        store = make_store()
        plan = FaultPlan(
            [FaultEvent(FaultKind.DISK_CRASH, at_op=10_000, disk=1)]
        )
        injector = FaultInjector(plan).attach(store)
        injector.flush()
        assert store.failed_disks == {1}
        assert len(injector.fired) + len(injector.skipped) == len(plan.events)

    def test_crash_on_already_failed_disk_skipped(self):
        store = make_store()
        store.fail_disk(1)
        plan = FaultPlan([FaultEvent(FaultKind.DISK_CRASH, disk=1)])
        injector = FaultInjector(plan).attach(store)
        injector.flush()
        assert injector.skipped == list(plan.events)
        assert injector.fired == []

    def test_third_crash_skipped_not_raised(self):
        store = make_store()
        store.fail_disk(0)
        store.fail_disk(1)
        plan = FaultPlan([FaultEvent(FaultKind.DISK_CRASH, disk=2)])
        injector = FaultInjector(plan).attach(store)
        injector.flush()
        assert store.failed_disks == {0, 1}
        assert len(injector.skipped) == 1

    def test_latent_marks_the_element(self):
        store = make_store()
        plan = FaultPlan(
            [FaultEvent(FaultKind.LATENT_SECTOR, disk=2, stripe=0, row=1)]
        )
        FaultInjector(plan).attach(store).flush()
        assert store.stripes[0].state[1, 2] == LATENT

    def test_latent_on_erased_cell_skipped(self):
        store = make_store()
        store.fail_disk(2)
        plan = FaultPlan(
            [FaultEvent(FaultKind.LATENT_SECTOR, disk=2, stripe=0, row=1)]
        )
        injector = FaultInjector(plan).attach(store)
        injector.flush()
        assert len(injector.skipped) == 1
        assert store.stripes[0].state[1, 2] != LATENT

    def test_flip_is_silent(self):
        store = make_store()
        before = store.stripes[0].get((0, 0)).copy()
        plan = FaultPlan(
            [FaultEvent(FaultKind.BIT_FLIP, disk=0, stripe=0, row=0,
                        byte_index=3, mask=0x10)]
        )
        FaultInjector(plan).attach(store).flush()
        after = store.stripes[0].get((0, 0))
        assert after[3] == before[3] ^ 0x10
        # Silent: the sidecar still expects the *original* content.
        assert crc_of(after) != store.sidecar.expected(0, (0, 0))

    def test_flip_on_unreadable_cell_skipped(self):
        store = make_store()
        store.stripes[0].mark_latent((0, 0))
        plan = FaultPlan(
            [FaultEvent(FaultKind.BIT_FLIP, disk=0, stripe=0, row=0)]
        )
        injector = FaultInjector(plan).attach(store)
        injector.flush()
        assert len(injector.skipped) == 1

    def test_out_of_range_stripe_skipped(self):
        store = make_store(stripes=1)
        plan = FaultPlan(
            [FaultEvent(FaultKind.LATENT_SECTOR, disk=0, stripe=99, row=0)]
        )
        injector = FaultInjector(plan).attach(store)
        injector.flush()
        assert len(injector.skipped) == 1


class TestTransientWindows:
    def test_window_absorbed_by_retries(self):
        store = make_store()
        plan = FaultPlan(
            [FaultEvent(FaultKind.TRANSIENT_IO, at_op=0, disk=0, count=2)]
        )
        injector = FaultInjector(plan, max_retries=3).attach(store)
        injector.on_element_io(0, (0, 0), "read")  # rides the window out
        assert injector.retries == 2
        assert injector.windows[0] == 0
        # Exponential backoff: 1 ms + 2 ms.
        assert injector.backoff_seconds == pytest.approx(0.003)

    def test_window_outlasting_budget_raises(self):
        store = make_store()
        plan = FaultPlan(
            [FaultEvent(FaultKind.TRANSIENT_IO, at_op=0, disk=0, count=6)]
        )
        injector = FaultInjector(plan, max_retries=1).attach(store)
        with pytest.raises(TransientIOError):
            injector.on_element_io(0, (0, 0), "read")
        # The budget (2 attempts) was consumed; the window shrank.
        assert injector.windows[0] == 4

    def test_other_disks_unaffected(self):
        store = make_store()
        plan = FaultPlan(
            [FaultEvent(FaultKind.TRANSIENT_IO, at_op=0, disk=0, count=50)]
        )
        injector = FaultInjector(plan, max_retries=0).attach(store)
        injector.on_element_io(0, (0, 3), "read")  # disk 3: clean
        assert injector.retries == 0

    def test_store_read_survives_transient_exhaustion(self):
        for engine in ("python", "auto"):
            store = FileStore(HVCode(5), element_size=16, engine=engine)
            payload = bytes(i % 251 for i in range(store.bytes_per_stripe))
            store.write(0, payload)
            plan = FaultPlan(
                [FaultEvent(FaultKind.TRANSIENT_IO, at_op=0, disk=0, count=100)]
            )
            FaultInjector(plan, max_retries=1).attach(store)
            reads, healed = list(store.stats.reads), store.healing.reads
            # Every access to disk 0 exhausts its retries; the store
            # computes each of its two data elements through parity, like
            # a lost one, instead of failing the read — and never reads
            # disk 0 for them.
            assert store.read(0, store.bytes_per_stripe) == payload
            assert store.healing.chain_repairs == 2
            assert store.healing.reads == healed
            assert store.stats.reads[0] == reads[0]


class TestSummary:
    def test_summary_fields(self):
        store = make_store()
        plan = FaultPlan.random(
            3, rows=store.code.rows, cols=store.code.cols,
            stripes=len(store.stripes), element_size=store.element_size,
        )
        injector = FaultInjector(plan).attach(store)
        store.read(0, store.capacity)
        injector.flush()
        s = injector.summary()
        assert set(s) == {
            "ops", "fired", "skipped", "pending", "retries",
            "backoff_seconds",
        }
        assert s["pending"] == 0
        assert s["fired"] + s["skipped"] == len(plan)
