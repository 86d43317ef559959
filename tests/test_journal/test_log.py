"""Frame format, torn-tail detection, and replay bucketing."""

import pytest

from repro.exceptions import JournalError
from repro.journal import (
    COMMIT,
    DISCARD,
    INTENT,
    JournalDevice,
    JournalPiece,
    JournalRecord,
    ParityIntentJournal,
    encode_record,
    replay_device,
)


def intent(seq, stripe, *pieces):
    return JournalRecord(INTENT, seq, stripe, tuple(pieces))


class TestFrameFormat:
    def test_roundtrip_flag_piece(self):
        record = intent(1, 7, JournalPiece(5, 12, b"", b"\x01" * 16))
        replay = replay_device(encode_record(record))
        assert replay.records == (record,)
        assert replay.torn_bytes == 0

    def test_roundtrip_redo_payload_and_preimage(self):
        record = intent(
            3,
            0,
            JournalPiece(0, 0, b"redo-bytes", b"\xaa" * 8),
            JournalPiece(9, 4, b"more", None),
        )
        (decoded,) = replay_device(encode_record(record)).records
        assert decoded == record
        assert decoded.pieces[0].preimage == b"\xaa" * 8
        assert decoded.pieces[1].preimage is None

    def test_commit_and_discard_are_piece_free(self):
        for kind in (COMMIT, DISCARD):
            frame = encode_record(JournalRecord(kind, 2, 4))
            (decoded,) = replay_device(frame).records
            assert decoded.kind == kind
            assert decoded.pieces == ()

    def test_unknown_kind_rejected(self):
        with pytest.raises(JournalError, match="kind"):
            encode_record(JournalRecord(9, 1, 0))

    def test_negative_seq_rejected(self):
        with pytest.raises(JournalError):
            encode_record(JournalRecord(INTENT, -1, 0))

    def test_kind_name(self):
        assert JournalRecord(INTENT, 1, 0).kind_name == "intent"
        assert JournalRecord(COMMIT, 1, 0).kind_name == "commit"
        assert JournalRecord(DISCARD, 1, 0).kind_name == "discard"


class TestTornTails:
    def test_every_truncation_point_is_detected(self):
        # A frame cut anywhere short of its last byte must be rejected
        # whole — this is the atomicity half of the durability contract.
        frame = encode_record(
            intent(1, 3, JournalPiece(2, 8, b"payload!", b"\x55" * 32))
        )
        for cut in range(len(frame)):
            replay = replay_device(frame[:cut])
            assert replay.records == ()
            assert replay.torn_bytes == cut

    def test_torn_tail_preserves_earlier_frames(self):
        good = encode_record(intent(1, 0, JournalPiece(0, 0, b"", b"\x01" * 4)))
        torn = encode_record(intent(2, 1, JournalPiece(1, 0, b"", b"\x02" * 4)))
        buf = good + torn[:-3]
        replay = replay_device(buf)
        assert len(replay.records) == 1
        assert replay.records[0].stripe == 0
        assert replay.torn_bytes == len(torn) - 3

    def test_crc_corruption_stops_replay(self):
        frame = bytearray(
            encode_record(intent(1, 0, JournalPiece(0, 0, b"abc", None)))
        )
        frame[10] ^= 0xFF  # flip a body byte; the CRC no longer matches
        replay = replay_device(frame)
        assert replay.records == ()
        assert replay.torn_bytes == len(frame)

    def test_bad_magic_stops_replay(self):
        frame = bytearray(encode_record(JournalRecord(COMMIT, 1, 0)))
        frame[0] = 0x00
        assert replay_device(frame).records == ()

    def test_non_monotonic_seq_stops_replay(self):
        # A stale frame surviving from before a checkpoint must not be
        # trusted even if its CRC is valid.
        a = encode_record(JournalRecord(COMMIT, 5, 0))
        b = encode_record(JournalRecord(COMMIT, 5, 1))  # not > 5: stale
        replay = replay_device(a + b)
        assert len(replay.records) == 1
        assert replay.max_seq == 5


class TestReplayBucketing:
    def test_pending_intents_accumulate_in_order(self):
        buf = encode_record(intent(1, 2, JournalPiece(0, 0, b"", b"x"))) + (
            encode_record(intent(2, 2, JournalPiece(1, 0, b"", b"y")))
        )
        replay = replay_device(buf)
        assert [r.seq for r in replay.pending[2]] == [1, 2]
        assert replay.dirty_stripes() == [2]

    def test_commit_voids_pending(self):
        buf = encode_record(intent(1, 2, JournalPiece(0, 0, b"", b"x"))) + (
            encode_record(JournalRecord(COMMIT, 2, 2))
        )
        replay = replay_device(buf)
        assert replay.pending == {}
        assert replay.dirty_stripes() == []
        assert replay.intents == 1 and replay.commits == 1

    def test_discard_moves_pending_to_discarded(self):
        # The discard voids the stripe's pending flags and is itself
        # what the discarded bucket keeps: it carries the undo image.
        undo = JournalPiece(0, 0, b"", b"x")
        buf = encode_record(intent(1, 4, JournalPiece(0, 0, b""))) + (
            encode_record(JournalRecord(DISCARD, 2, 4, (undo,)))
        )
        replay = replay_device(buf)
        assert replay.pending == {}
        assert replay.discarded[4] == [JournalRecord(DISCARD, 2, 4, (undo,))]
        assert replay.dirty_stripes() == [4]
        assert (replay.intents, replay.commits, replay.discards) == (1, 0, 1)

    def test_commit_also_voids_discarded(self):
        # discard then a later commit: the post-rollback state was
        # flushed, so no pre-image undo may run at recovery.
        buf = (
            encode_record(intent(1, 4, JournalPiece(0, 0, b"", b"x")))
            + encode_record(JournalRecord(DISCARD, 2, 4))
            + encode_record(JournalRecord(COMMIT, 3, 4))
        )
        replay = replay_device(buf)
        assert replay.dirty_stripes() == []


class TestDevice:
    def test_two_half_append_fires_hook_sites(self):
        device = JournalDevice()
        sites = []
        device.append(b"0123456789", "intent", sites.append)
        assert sites == ["journal-intent-mid", "journal-intent"]
        assert bytes(device.buf) == b"0123456789"
        assert device.appends == 1
        assert device.bytes_appended == 10

    def test_hook_raising_mid_append_leaves_torn_frame(self):
        device = JournalDevice()

        def cut(site):
            if site == "journal-intent-mid":
                raise RuntimeError("power cut")

        with pytest.raises(RuntimeError):
            device.append(b"0123456789", "intent", cut)
        assert bytes(device.buf) == b"01234"  # first half only

    def test_unwatched_append_is_single_shot(self):
        device = JournalDevice()
        device.append(b"abcdef", "intent", None)
        assert bytes(device.buf) == b"abcdef"

    def test_truncate(self):
        device = JournalDevice()
        device.append(b"abc", "commit", None)
        device.truncate()
        assert len(device) == 0
        assert device.truncations == 1


class TestParityIntentJournal:
    def test_sequencing_and_counters(self):
        journal = ParityIntentJournal()
        journal.log_intent(0, [0])
        journal.log_commit(0)
        journal.log_discard(1)
        replay = journal.replay()
        assert [r.seq for r in replay.records] == [1, 2, 3]
        assert journal.intents_logged == 1
        assert journal.commits_logged == 1
        assert journal.discards_logged == 1

    def test_empty_intent_rejected(self):
        with pytest.raises(JournalError, match="at least one piece"):
            ParityIntentJournal().log_intent(0, [])

    def test_checkpoint_truncates(self):
        journal = ParityIntentJournal()
        journal.log_intent(0, [0])
        journal.checkpoint()
        assert len(journal.device) == 0
        assert journal.replay().records == ()

    def test_flag_frames_match_the_general_framer(self):
        # log_intent / log_commit pack their frames directly; the
        # bytes must be what encode_record makes of the same record.
        journal = ParityIntentJournal()
        journal.log_intent(7, [3, 0, 19])
        journal.log_commit(7)
        flags = tuple(JournalPiece(slot, 0, b"") for slot in (3, 0, 19))
        assert bytes(journal.device.buf) == encode_record(
            JournalRecord(INTENT, 1, 7, flags)
        ) + encode_record(JournalRecord(COMMIT, 2, 7))

    def test_out_of_range_flag_rejected(self):
        with pytest.raises(JournalError, match="out of range"):
            ParityIntentJournal().log_intent(0, [1 << 16])
        with pytest.raises(JournalError, match="out of range"):
            ParityIntentJournal().log_commit(-1)

    def test_discard_carries_preimages(self):
        journal = ParityIntentJournal()
        undo = (JournalPiece(2, 0, b"", b"\x07" * 8),)
        journal.log_discard(5, undo)
        (record,) = journal.replay().discarded[5]
        assert record.kind == DISCARD and record.pieces == undo

    def test_compact_relogs_live_flags_then_trims_the_head(self):
        journal = ParityIntentJournal()
        sites = []
        journal.io_hook = sites.append
        journal.log_intent(0, [1])
        journal.log_commit(0)
        journal.log_intent(1, [2])
        journal.log_intent(1, [5])
        del sites[:]
        sizes = journal.compact([(1, (2, 5))])
        assert sites == ["journal-compact-mid", "journal-compact", "journal-trim"]
        assert sizes == [len(journal.device)]
        replay = journal.replay()
        assert [(r.kind, r.seq, r.stripe) for r in replay.records] == [(INTENT, 5, 1)]
        assert [p.slot for p in replay.records[0].pieces] == [2, 5]
        assert replay.dirty_stripes() == [1]
        assert journal.device.truncations == 1

    def test_crash_before_the_trim_replays_the_same_flagged_set(self):
        journal = ParityIntentJournal()
        journal.log_intent(0, [1])
        journal.log_commit(0)
        journal.log_intent(1, [2])
        before = journal.replay().dirty_stripes()

        def cut(site):
            if site == "journal-compact":
                raise RuntimeError("power cut")

        journal.io_hook = cut
        with pytest.raises(RuntimeError):
            journal.compact([(1, (2,))])
        assert journal.device.truncations == 0  # the head is still there
        assert journal.replay().dirty_stripes() == before == [1]

    def test_replay_reuses_the_scan_made_at_open(self):
        first = ParityIntentJournal()
        first.log_intent(3, [0])
        reopened = ParityIntentJournal(first.device)
        assert reopened.replay() is reopened.replay()  # the constructor's scan
        reopened.log_commit(3)
        assert reopened.replay().dirty_stripes() == []  # rescanned after an append

    def test_seq_resumes_over_surviving_device(self):
        # Reopening over a crashed device must continue the numbering,
        # or replay's monotonicity check would reject new frames.
        first = ParityIntentJournal()
        first.log_intent(0, [0])
        first.log_commit(0)
        second = ParityIntentJournal(first.device)
        second.log_intent(1, [0])
        replay = second.replay()
        assert [r.seq for r in replay.records] == [1, 2, 3]
        assert replay.dirty_stripes() == [1]
