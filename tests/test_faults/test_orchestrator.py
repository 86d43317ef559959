"""Tests for the fault-tolerant rebuild orchestrator."""

import numpy as np
import pytest

from repro import HVCode
from repro.array.filestore import FileStore
from repro.array.stripe import HEALTHY, LATENT
from repro.codes.registry import EVALUATED_CODE_NAMES, available_codes, get_code
from repro.exceptions import (
    ChecksumMismatchError,
    InvalidParameterError,
    UnrecoverableFaultError,
)
from repro.faults import RebuildOrchestrator
from repro.recovery.cost import repair_cost


def make_store(p=5, element_size=16, stripes=6):
    store = FileStore(HVCode(p), element_size=element_size)
    payload = bytes(
        (i * 13 + 1) % 256 for i in range(stripes * store.bytes_per_stripe)
    )
    store.write(0, payload)
    return store, payload


class TestRebuild:
    def test_full_rebuild_byte_identical(self):
        store, payload = make_store()
        store.fail_disk(2)
        report = RebuildOrchestrator(store).rebuild(2)
        assert report.completed
        assert store.failed_disks == set()
        assert store.read(0, len(payload)) == payload
        assert store.scrub() == []

    def test_report_accounting(self):
        store, _ = make_store(stripes=4)
        store.fail_disk(0)
        report = RebuildOrchestrator(store).rebuild(0)
        assert report.disk == 0
        assert report.stripes_total == 4
        assert report.stripes_done == 4
        assert report.elements_repaired == 4 * store.code.rows
        assert report.chain_reads > 0
        assert report.seconds > 0
        assert report.total_reads == (
            report.chain_reads + report.escalation_reads
        )

    def test_checkpoints_recorded(self):
        store, _ = make_store(stripes=6)
        store.fail_disk(1)
        report = RebuildOrchestrator(store, checkpoint_every=2).rebuild(1)
        assert report.checkpoints == [2, 4, 6]

    def test_rebuild_with_latent_survivor(self):
        # One disk down plus a URE on a survivor: the rebuild plans
        # around the bad sector and heals it too.
        store, payload = make_store()
        store.fail_disk(3)
        store.stripes[0].mark_latent((0, 1))
        report = RebuildOrchestrator(store).rebuild(3)
        assert report.completed
        assert report.latent_hits >= 1
        assert store.stripes[0].state[0, 1] != LATENT
        assert store.read(0, len(payload)) == payload
        assert store.scrub() == []

    def test_rebuild_one_of_two_failures(self):
        store, payload = make_store()
        store.fail_disk(0)
        store.fail_disk(2)
        report = RebuildOrchestrator(store).rebuild(0)
        assert report.completed
        # The decode sliced to the column is a compiled plan: no stripe
        # needs rung 3.
        assert report.escalations == 0
        assert store.failed_disks == {2}
        assert store.read(0, len(payload)) == payload

    def test_same_failure_same_report(self):
        reports = []
        for _ in range(2):
            store, _ = make_store()
            store.fail_disk(2)
            reports.append(RebuildOrchestrator(store).rebuild(2).to_dict())
        assert reports[0] == reports[1]

    def test_rejects_healthy_disk(self):
        store, _ = make_store()
        with pytest.raises(InvalidParameterError):
            RebuildOrchestrator(store).rebuild(0)

    def test_rejects_bad_checkpoint_interval(self):
        store, _ = make_store()
        with pytest.raises(InvalidParameterError):
            RebuildOrchestrator(store, checkpoint_every=0)


class TestResume:
    def test_interrupted_rebuild_resumes_from_checkpoint(self):
        store, payload = make_store(stripes=6)
        store.fail_disk(0)
        store.fail_disk(2)
        # Stripe 3 also carries a URE on a third column: unrecoverable
        # until the operator clears it.
        store.stripes[3].mark_latent((0, 3))
        orchestrator = RebuildOrchestrator(store)
        with pytest.raises(UnrecoverableFaultError):
            orchestrator.rebuild(0)
        assert orchestrator.checkpoint == 3
        # The latent sector gets re-read successfully (cleared).
        store.stripes[3].state[0, 3] = HEALTHY
        report = orchestrator.resume(0)
        assert report.completed
        assert report.stripes_done == 6
        assert store.read(0, len(payload)) == payload

    def test_interrupted_report_prices_every_survivor(self):
        # Disks 0 and 2 down leave two survivors of HV@5's four columns;
        # the rebuilt disk is still failed when stripe 3 raises, and
        # must not be subtracted a second time.
        store, _ = make_store(stripes=6)
        store.fail_disk(0)
        store.fail_disk(2)
        store.stripes[3].mark_latent((0, 3))
        orchestrator = RebuildOrchestrator(store)
        with pytest.raises(UnrecoverableFaultError):
            orchestrator.rebuild(0)
        report = orchestrator._report
        assert (report.total_reads, report.elements_repaired) == (24, 12)
        serve = orchestrator.latency.serve
        assert report.seconds == max(serve(24 // 2), serve(12))
        assert report.seconds < serve(24)

    def test_resume_without_interruption_rejected(self):
        store, _ = make_store()
        store.fail_disk(0)
        with pytest.raises(InvalidParameterError):
            RebuildOrchestrator(store).resume(0)

    def test_resume_wrong_disk_rejected(self):
        store, _ = make_store()
        store.fail_disk(0)
        store.fail_disk(2)
        store.stripes[0].mark_latent((0, 3))
        orchestrator = RebuildOrchestrator(store)
        with pytest.raises(UnrecoverableFaultError):
            orchestrator.rebuild(0)
        with pytest.raises(InvalidParameterError):
            orchestrator.resume(2)


class TestChecksumGuard:
    def test_poisoned_sidecar_fails_loudly(self):
        store, _ = make_store()
        store.fail_disk(1)
        store.sidecar.record(0, (0, 1), b"not the real content")
        with pytest.raises(ChecksumMismatchError):
            RebuildOrchestrator(store).rebuild(1)

    def test_filestore_rebuild_shares_the_guard(self):
        store, _ = make_store()
        store.fail_disk(1)
        store.sidecar.record(0, (0, 1), b"not the real content")
        with pytest.raises(ChecksumMismatchError):
            store.rebuild(1)


#: (code, fault pattern) pairs: the three patterns on every evaluated
#: code and EVENODD, plus EVENODD@5's (0, 1), which peeling rejects.
TWIN_CASES = [
    (name, pattern)
    for name in EVALUATED_CODE_NAMES + ("EVENODD",)
    for pattern in ("one-disk", "latent-survivor", "two-disks")
] + [("EVENODD", "rung-3")]


def faulted_store(name, engine, pattern):
    """A 3-stripe store under ``pattern``; returns it and the disk to
    rebuild."""
    store = FileStore(get_code(name, 5), element_size=16, engine=engine)
    payload = bytes((i * 7 + 3) % 256 for i in range(3 * store.bytes_per_stripe))
    store.write(0, payload)
    failed = {"two-disks": (1, store.code.cols - 1), "rung-3": (0, 1)}.get(
        pattern, (1,)
    )
    for disk in failed:
        store.fail_disk(disk)
    if pattern == "latent-survivor":
        store.stripes[1].mark_latent((0, store.code.cols - 1))
    return store, failed[0]


def healing_counts(store):
    h = store.healing
    return h.reads, h.escalations, h.chain_repairs


@pytest.mark.parametrize("engine", ["python", "auto"])
@pytest.mark.parametrize("name,pattern", TWIN_CASES)
def test_store_and_orchestrator_rebuild_alike(name, pattern, engine):
    """One per-stripe routine, two drivers: the same bytes, flags and
    counters, and the report charges exactly what ``healing`` saw."""
    plain, disk = faulted_store(name, engine, pattern)
    driven, _ = faulted_store(name, engine, pattern)
    plain.rebuild(disk)
    before = healing_counts(driven)[0]
    report = RebuildOrchestrator(driven).rebuild(disk)
    assert report.total_reads == driven.healing.reads - before
    assert report.escalations == (len(driven.stripes) if pattern == "rung-3" else 0)
    latent = int(pattern == "latent-survivor")
    assert report.latent_hits == latent
    assert report.elements_repaired == len(driven.stripes) * driven.code.rows + latent
    assert plain.failed_disks == driven.failed_disks
    assert healing_counts(plain) == healing_counts(driven)
    for a, b in zip(plain.stripes, driven.stripes):
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.state, b.state)
        assert not a.latent_positions()


@pytest.mark.parametrize("name", available_codes())
def test_clean_rebuild_reads_what_the_repair_price_says(name):
    """A clean rebuild reads, stripe by stripe, exactly the compiled
    single-disk recovery plan that :func:`repair_cost` prices."""
    code = get_code(name, 5)
    store = FileStore(code, element_size=16)
    store.write(0, bytes((i * 11 + 5) % 256 for i in range(4 * store.bytes_per_stripe)))
    for disk in range(code.cols):
        store.fail_disk(disk)
        report = RebuildOrchestrator(store).rebuild(disk)
        assert report.escalations == 0, disk
        assert report.chain_reads == 4 * repair_cost(code, (disk,)).reads, disk
