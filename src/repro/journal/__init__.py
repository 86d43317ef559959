"""repro.journal — the parity intent log that closes the write hole.

A flag-style write-intent log for :class:`~repro.array.filestore.
FileStore`'s deferred parity updates: a cached write frames an intent
record (the first-touched slots; no redo bytes — the data disks are
the redo log — and no pre-images, which ride on a rollback's discard
record) before touching a stripe, every flushed stripe frames a commit,
and replay after a crash trusts the log up to the first torn frame.  See
:mod:`repro.journal.log` and :doc:`docs/JOURNAL.md` for the protocol.
"""

from .log import (
    COMMIT,
    COMPACT_FACTOR,
    DISCARD,
    FLAG_BYTES,
    INTENT,
    JournalDevice,
    JournalPiece,
    JournalRecord,
    JournalReplay,
    ParityIntentJournal,
    encode_record,
    replay_device,
)
from .recovery import RecoveryReport, apply_record, undo_record

__all__ = [
    "COMMIT",
    "COMPACT_FACTOR",
    "DISCARD",
    "FLAG_BYTES",
    "INTENT",
    "JournalDevice",
    "JournalPiece",
    "JournalRecord",
    "JournalReplay",
    "ParityIntentJournal",
    "RecoveryReport",
    "apply_record",
    "encode_record",
    "replay_device",
    "undo_record",
]
