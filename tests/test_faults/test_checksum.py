"""Tests for CRC sidecars and the checksum scrub."""

import numpy as np
import pytest

from repro import HVCode
from repro.array.filestore import FileStore
from repro.array.stripe import ERASED, LATENT
from repro.exceptions import UnrecoverableFaultError
from repro.faults import ChecksumSidecar, scrub_store
from repro.faults.checksum import crc_of


def make_store(p=5, element_size=16, stripes=2):
    store = FileStore(HVCode(p), element_size=element_size)
    payload = bytes(
        (i * 7 + 3) % 256 for i in range(stripes * store.bytes_per_stripe)
    )
    store.write(0, payload)
    return store, payload


class TestSidecar:
    def test_tracks_every_element(self):
        store, _ = make_store()
        code = store.code
        for idx, stripe in enumerate(store.stripes):
            for r in range(code.rows):
                for c in range(code.cols):
                    assert crc_of(stripe.data[r, c]) == store.sidecar.expected(
                        idx, (r, c)
                    )

    def test_record_updates_one_cell(self):
        sidecar = ChecksumSidecar(2, 3)
        store, _ = make_store()
        sidecar = store.sidecar
        sidecar.record(0, (0, 0), b"new content")
        assert sidecar.expected(0, (0, 0)) == crc_of(b"new content")

    def test_write_keeps_sidecar_current(self):
        store, payload = make_store()
        store.write(5, b"overwrite")
        for idx, stripe in enumerate(store.stripes):
            for r in range(store.code.rows):
                for c in range(store.code.cols):
                    assert crc_of(stripe.data[r, c]) == store.sidecar.expected(
                        idx, (r, c)
                    )

    def test_crcs_survive_erasure(self):
        store, _ = make_store()
        before = store.sidecar.expected(0, (0, 2))
        store.fail_disk(2)
        assert store.sidecar.expected(0, (0, 2)) == before

    def test_degraded_write_records_logical_content(self):
        store, payload = make_store()
        store.fail_disk(0)
        store.write(0, b"\x5a" * store.element_size)
        restored = store.read(0, store.element_size)
        assert restored == b"\x5a" * store.element_size


class TestScrubClean:
    def test_clean_store_clean_report(self):
        store, _ = make_store()
        report = scrub_store(store)
        assert report.clean
        assert report.bad_elements == 0
        assert report.elements_checked == (
            len(store.stripes) * store.code.rows * store.code.cols
        )
        assert report.chain_repairs == 0
        assert report.repair_writes == 0

    def test_degraded_store_scrubs_surviving_cells(self):
        store, _ = make_store()
        store.fail_disk(1)
        report = scrub_store(store)
        assert report.clean
        assert report.elements_checked == (
            len(store.stripes) * store.code.rows * (store.code.cols - 1)
        )


class TestScrubRepairs:
    def test_flip_detected_and_repaired(self):
        store, payload = make_store()
        good = store.stripes[0].get((0, 0)).copy()
        store.stripes[0].flip_bits((0, 0), 2, 0x40)
        report = store.scrub_checksums()
        assert report.flips_detected == [(0, (0, 0))]
        assert report.chain_repairs + report.escalations == 1
        assert report.repair_writes == 1
        assert bytes(store.stripes[0].get((0, 0))) == bytes(good)
        assert store.read(0, len(payload)) == payload

    def test_latent_detected_and_repaired(self):
        store, payload = make_store()
        store.stripes[1].mark_latent((1, 3))
        report = store.scrub_checksums()
        assert report.latent_detected == [(1, (1, 3))]
        assert store.stripes[1].state[1, 3] != LATENT
        assert store.read(0, len(payload)) == payload
        assert store.scrub() == []

    def test_repair_false_only_detects(self):
        store, _ = make_store()
        store.stripes[0].flip_bits((0, 0), 0, 0x01)
        report = store.scrub_checksums(repair=False)
        assert report.unrepaired == [(0, (0, 0))]
        assert report.repair_writes == 0
        # The flip is still there; a second scrub finds it again.
        assert crc_of(store.stripes[0].data[0, 0]) != store.sidecar.expected(0, (0, 0))

    def test_scrub_on_degraded_store_repairs_survivor(self):
        store, payload = make_store()
        store.fail_disk(0)
        store.stripes[0].flip_bits((0, 2), 1, 0x08)
        report = store.scrub_checksums()
        assert report.bad_elements == 1
        assert report.unrepaired == []
        assert store.read(0, len(payload)) == payload

    def test_multiple_faults_one_stripe(self):
        store, payload = make_store(p=7, element_size=8)
        store.stripes[0].flip_bits((0, 1), 0, 0x01)
        store.stripes[0].mark_latent((2, 4))
        report = store.scrub_checksums()
        assert report.bad_elements == 2
        assert report.unrepaired == []
        assert store.read(0, len(payload)) == payload
        assert store.scrub() == []

    def test_report_to_dict(self):
        store, _ = make_store()
        store.stripes[0].flip_bits((0, 0), 0, 0x01)
        d = store.scrub_checksums().to_dict()
        assert d["flips_detected"] == [[0, [0, 0]]]
        assert d["repair_writes"] == 1
        assert d["unrepaired"] == []


class TestScrubGivesUp:
    def test_beyond_capability_raises(self):
        store, _ = make_store()
        store.fail_disk(0)
        store.fail_disk(1)
        # Two columns gone plus a latent cell on a third: > RAID-6.
        store.stripes[0].mark_latent((0, 2))
        with pytest.raises(UnrecoverableFaultError):
            store.scrub_checksums()

    def test_give_up_leaves_bad_cells_latent(self):
        store, _ = make_store()
        store.fail_disk(0)
        store.fail_disk(1)
        stripe = store.stripes[0]
        stripe.mark_latent((0, 2))
        stripe.flip_bits((1, 3), 0, 0x01)
        with pytest.raises(UnrecoverableFaultError, match="stripe 0"):
            store.scrub_checksums()
        # Erased cells only in the failed columns; the URE and the flip
        # are latent, so a rebuild still wants them.
        assert set(np.flatnonzero(stripe.state == ERASED) % store.code.cols) == {0, 1}
        assert stripe.latent_positions() == [(0, 2), (1, 3)]
