"""Record replay onto stripes, and FileStore recovery end to end."""

import numpy as np
import pytest

from repro import CrashError, HVCode
from repro.array.filestore import FileStore
from repro.array.stripe import LATENT
from repro.exceptions import JournalError
from repro.journal import (
    COMMIT,
    INTENT,
    DISCARD,
    JournalPiece,
    JournalRecord,
    apply_record,
    undo_record,
)


def payload(n, seed=0):
    return bytes(np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8))


def make_stripe(code=None, element_size=8):
    code = code or HVCode(5)
    stripe = code.make_stripe(element_size)
    code.encode(stripe)
    return code, stripe


class TestApplyRecord:
    def test_lands_redo_payload(self):
        code, stripe = make_stripe()
        record = JournalRecord(
            INTENT, 1, 0, (JournalPiece(0 * code.cols + 1, 2, b"\xde\xad"),)
        )
        applied = apply_record(record, stripe, code.cols)
        assert applied == [(0, 1)]
        assert stripe.data[0, 1][2:4].tolist() == [0xDE, 0xAD]

    def test_skips_flag_pieces(self):
        code, stripe = make_stripe()
        before = stripe.data[0, 1].copy()
        record = JournalRecord(
            INTENT, 1, 0, (JournalPiece(0 * code.cols + 1, 0, b"", b"\x00" * 8),)
        )
        assert apply_record(record, stripe, code.cols) == []
        assert np.array_equal(stripe.data[0, 1], before)

    def test_skips_erased_cells(self):
        code, stripe = make_stripe()
        stripe.erase_disks([1])
        record = JournalRecord(INTENT, 1, 0, (JournalPiece(1, 0, b"\xff"),))
        assert apply_record(record, stripe, code.cols) == []

    def test_clears_latent_flag(self):
        code, stripe = make_stripe()
        stripe.mark_latent((0, 1))
        record = JournalRecord(INTENT, 1, 0, (JournalPiece(1, 0, b"\xff"),))
        apply_record(record, stripe, code.cols)
        assert stripe.state[0, 1] != LATENT

    def test_out_of_bounds_piece_rejected(self):
        code, stripe = make_stripe(element_size=8)
        record = JournalRecord(INTENT, 1, 0, (JournalPiece(1, 6, b"\x01" * 4),))
        with pytest.raises(JournalError, match="outside element"):
            apply_record(record, stripe, code.cols)

    def test_only_intents_are_redoable(self):
        code, stripe = make_stripe()
        with pytest.raises(JournalError, match="commit"):
            apply_record(JournalRecord(COMMIT, 1, 0), stripe, code.cols)


class TestUndoRecord:
    def test_restores_full_preimage(self):
        code, stripe = make_stripe()
        old = stripe.data[0, 1].tobytes()
        record = JournalRecord(
            INTENT, 1, 0, (JournalPiece(1, 0, b"", old),)
        )
        stripe.data[0, 1][:] = 0xFF
        assert undo_record(record, stripe, code.cols) == [(0, 1)]
        assert stripe.data[0, 1].tobytes() == old

    def test_pieces_without_preimage_are_skipped(self):
        code, stripe = make_stripe()
        record = JournalRecord(INTENT, 1, 0, (JournalPiece(1, 0, b"xy"),))
        assert undo_record(record, stripe, code.cols) == []

    def test_partial_preimage_rejected(self):
        code, stripe = make_stripe(element_size=8)
        record = JournalRecord(INTENT, 1, 0, (JournalPiece(1, 0, b"", b"\x01\x02"),))
        with pytest.raises(JournalError, match="does not cover"):
            undo_record(record, stripe, code.cols)

    def test_only_intents_and_discards_are_undoable(self):
        code, stripe = make_stripe()
        undo_record(JournalRecord(DISCARD, 1, 0), stripe, code.cols)  # legal no-op
        with pytest.raises(JournalError, match="commit"):
            undo_record(JournalRecord(COMMIT, 1, 0), stripe, code.cols)


class TestFileStoreRecovery:
    """Crash-shaped scenarios driven through the public recovery API."""

    def make(self, cache=2, element_size=16):
        return FileStore(
            HVCode(5), element_size=element_size, engine="fused", cache_stripes=cache
        )

    def test_reopen_recomputes_parity_for_flagged_stripes(self):
        # Data landed, parity deferred, power lost: the write hole.
        store = self.make()
        data = payload(100, seed=1)
        store.write(0, data)  # cached: parity is stale, intent is framed
        recovered, report = FileStore.reopen_from(store)
        assert report.stripes_flagged == 1
        assert report.stripes_repaired == 1
        assert report.clean
        assert recovered.read(0, 100) == data  # durable: the data landed
        assert recovered.scrub() == []
        assert recovered.scrub_checksums(repair=False).clean

    def test_reopen_after_commit_is_a_noop(self):
        store = self.make()
        store.write(0, payload(64, seed=2))
        store.flush()
        recovered, report = FileStore.reopen_from(store)
        assert report.records_scanned == 0  # checkpoint truncated the log
        assert report.stripes_flagged == 0
        assert recovered.scrub() == []

    def test_torn_intent_loses_only_the_torn_write(self):
        store = self.make()
        first = payload(16, seed=3)
        store.write(0, first)
        # A second write to a *different* stripe whose intent frame is
        # torn mid-append: chop bytes off the device tail before the
        # write's data would have landed.
        device = store.journal.device
        intact = len(device.buf)
        store.write(store.bytes_per_stripe, payload(16, seed=4))
        del device.buf[intact + 5 :]  # tear the second intent frame
        # Roll the second write's data back out of the stripe image to
        # model "the frame tore before the data landed".
        store.stripes[1].data[store.code.data_positions[0]][:] = 0
        recovered, report = FileStore.reopen_from(store)
        assert report.torn_bytes > 0
        assert recovered.read(0, 16) == first
        assert recovered.read(store.bytes_per_stripe, 16) == b"\x00" * 16
        assert recovered.scrub() == []

    def test_crashed_discard_rolls_back_via_preimages(self):
        # discard_dirty dies at each site of a rollback.  The DISCARD
        # frame carries the stripe's pre-images: once it is durable
        # recovery finishes the rollback from it; torn, every landed
        # write is kept.
        for site, rolled_back in [
            ("journal-discard-mid", False),  # torn frame: nothing announced
            ("journal-discard", True),  # durable frame, no element restored yet
            ("rollback-write", True),  # one element restored, three to go
        ]:
            store = self.make()
            store.write(0, payload(64, seed=5))
            store.flush()
            before = store.read(0, 64)
            landed = payload(64, seed=6)
            store.write(0, landed)  # dirty again: four flagged elements

            def power_cut(at):
                if at == site:
                    raise CrashError(at)

            store.crash_hook = power_cut
            with pytest.raises(CrashError):
                store.discard_dirty()
            recovered, report = FileStore.reopen_from(store)
            assert report.discards == int(rolled_back), site
            assert report.elements_undone == (4 if rolled_back else 0), site
            assert recovered.read(0, 64) == (before if rolled_back else landed), site
            assert recovered.scrub() == []
            assert recovered.scrub_checksums(repair=False).clean

    def test_degraded_write_commits_synchronously(self):
        # Once a disk is down there is no deferred parity to lose:
        # degraded writes flush inline, so recovery finds nothing.
        store = self.make()
        data = payload(64, seed=7)
        store.write(0, data)
        store.flush()
        store.fail_disk(1)
        store.write(4, b"QQQQ")
        recovered, report = FileStore.reopen_from(store)
        assert report.stripes_flagged == 0
        expect = bytearray(data)
        expect[4:8] = b"QQQQ"
        assert recovered.read(0, 64) == bytes(expect)

    def test_crash_overlapping_disk_loss_reports_unrecovered(self):
        # The write hole genuinely loses information when the crash
        # overlaps a disk failure: chains with an erased member cannot
        # be re-derived from data alone.  Model a machine that died
        # with parity deferred and then lost a disk before reboot.
        store = self.make()
        store.write(0, payload(64, seed=7))  # cached: parity stale
        store.failed_disks.add(1)
        for stripe in store.stripes:
            stripe.erase_disks([1])
        recovered, report = FileStore.reopen_from(store)
        assert report.stripes_flagged == 1
        assert report.chains_skipped > 0
        assert report.unrecovered  # (stripe, parity position) pairs
        assert not report.clean
        assert recovered.failed_disks == {1}

    def test_recover_without_journal_is_empty_report(self):
        store = FileStore(HVCode(5), element_size=16)
        report = store.recover()
        assert report.records_scanned == 0
        assert report.clean

    def test_report_render_and_dict(self):
        store = self.make()
        store.write(0, payload(48, seed=8))
        _, report = FileStore.reopen_from(store)
        text = report.render()
        assert "stripes flagged: 1" in text
        payload_dict = report.to_dict()
        assert payload_dict["stripes_flagged"] == 1
        assert payload_dict["unrecovered"] == []


class TestErrorExitDiscard:
    """Satellite: ``with store:`` discards dirty state on exceptions."""

    def make(self):
        return FileStore(HVCode(5), element_size=16, cache_stripes=2)

    def test_exception_rolls_back_and_notes(self):
        store = self.make()
        store.write(0, payload(32, seed=9))
        store.flush()
        before = store.read(0, 32)
        with pytest.raises(RuntimeError):
            with store:
                store.write(0, b"poisoned-bytes!!")
                raise RuntimeError("half-applied transaction")
        assert store.read(0, 32) == before
        assert len(store.cache) == 0
        notes = [n for n in store.stats.notes]
        assert len(notes) == 1
        assert notes[0].stripes == 1
        assert "discarded" in notes[0].render()
        assert store.cache.stats()["discards"] == 1
        assert store.scrub() == []
        assert store.scrub_checksums(repair=False).clean

    def test_clean_exit_still_flushes(self):
        store = self.make()
        with store:
            store.write(0, payload(32, seed=10))
        assert len(store.cache) == 0
        assert store.stats.notes == []
        assert store.scrub() == []

    def test_discard_journals_before_rollback(self):
        store = self.make()
        store.write(0, payload(16, seed=11))
        assert store.journal.discards_logged == 0
        store.discard_dirty()
        assert store.journal.discards_logged == 1
        # cache drained -> checkpoint truncated the device
        assert len(store.journal.device) == 0
