"""The parity intent log: CRC-framed write-ahead records.

A cached :class:`~repro.array.filestore.FileStore` lands data bytes
immediately and defers parity — the classic RAID-6 *write hole*: a
crash between the two leaves stripes whose parity silently disagrees
with their data.  The journal closes the hole with write-intent
logging (the same idea as md's write-intent bitmap, carried per
element):

1. **Intent** — before a write's first data byte mutates a stripe, an
   intent flags the first-touched element slots, and nothing else.
   Later writes to already-dirty elements are *absorbed*: the stripe's
   flag is already durable, so no new frame is needed — the journal
   stays off the small-write hot path.  Recovery re-derives flagged
   stripes' parity from whatever data is on disk (the frame format
   also admits redo payloads; the store never produces them).
2. **Commit** — after a stripe's deferred parity and CRC sidecars have
   landed, a commit record voids every earlier record for that stripe.
3. **Discard** — the error-exit path (:meth:`FileStore.__exit__` with
   an exception propagating) frames a discard record *carrying the
   stripe's pre-images* before the first of them is restored, so a
   torn discard keeps the landed writes and a durable one lets
   recovery finish the rollback.
4. **Checkpoint** — when the cache drains, the device is truncated;
   a journal only ever describes in-flight work.  Flags are
   idempotent, so a device that outgrows its bound first is
   *compacted* (:meth:`ParityIntentJournal.compact`).

Each record is one frame::

    magic "HVJL" | kind u8 | seq u64 | stripe u32 | npieces u16
    | per piece: slot u16, offset u32, len u32, preimage_len u32
    | per piece: payload, then pre-image | crc32 u32

Replay scans frames front to back and stops at the first *torn tail*:
a truncated frame, a magic or CRC mismatch, or a non-monotonic
sequence number.  Everything before the tear is trusted; the tail is
counted and discarded — which pins down the durability contract: **a
write is durable once its data bytes have landed under an intent flag
that is fully on the device** (the flag lands first; a crash between
the two simply loses the write, never corrupts the stripe).

The append path is the crash harness's finest-grained instrumentation
point: the frame is written in two halves with the store's crash hook
fired between and after them, so the harness can produce genuinely
torn records, not just whole-record losses.
"""

from __future__ import annotations

import functools
import struct
import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..exceptions import JournalError

MAGIC = b"HVJL"

#: Record kinds.
INTENT = 1
COMMIT = 2
DISCARD = 3

_KIND_NAMES = {INTENT: "intent", COMMIT: "commit", DISCARD: "discard"}

_HEADER = struct.Struct("<BQIH")  # kind, seq, stripe, npieces
_PIECE = struct.Struct("<HIII")  # slot, offset, payload_len, preimage_len
_FLAG = struct.Struct("<H12x")  # a piece that only names its slot
_CRC = struct.Struct("<I")

#: Bytes one flagged slot adds to an intent frame.
FLAG_BYTES = _PIECE.size

#: A cached store compacts its device past this many times the flag
#: bytes of a cache whose every cell is dirty; the compacted log is
#: under a sixth of that, so re-logs stay a small share of the appends.
COMPACT_FACTOR = 8


@dataclass(frozen=True)
class JournalPiece:
    """One element-local fragment of a journaled write.

    ``slot`` is the engine's cell numbering (``row * cols + col``);
    ``payload`` is an optional redo image — new bytes at ``offset``
    within the element — left *empty* by the store's flag-style
    intents (recovery re-derives parity from on-disk data instead of
    replaying bytes).  ``preimage`` carries the element's *full*
    content from before its cache residency; the store frames it on
    the stripe's discard record only, from the snapshot the stripe
    cache took at the element's first touch.
    """

    slot: int
    offset: int
    payload: bytes
    preimage: bytes | None = None


@dataclass(frozen=True)
class JournalRecord:
    """One decoded frame."""

    kind: int
    seq: int
    stripe: int
    pieces: tuple[JournalPiece, ...] = ()

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES.get(self.kind, f"kind{self.kind}")


def encode_record(record: JournalRecord) -> bytes:
    """Frame a record: magic + body + CRC32 over the body.

    The general framer, for records that carry payloads or pre-images;
    the body is CRC'd incrementally and joined exactly once.  The write
    path's intents and commits are flags and take :func:`_flag_frame`.
    """
    if record.kind not in _KIND_NAMES:
        raise JournalError(f"unknown record kind {record.kind}")
    if record.seq < 0 or record.stripe < 0:
        raise JournalError("sequence and stripe numbers must be >= 0")
    parts = [
        MAGIC,
        _HEADER.pack(record.kind, record.seq, record.stripe, len(record.pieces)),
    ]
    payloads: list[bytes] = []
    for piece in record.pieces:
        pre = piece.preimage
        parts.append(
            _PIECE.pack(piece.slot, piece.offset, len(piece.payload), len(pre or b""))
        )
        payloads.append(piece.payload)
        if pre:
            payloads.append(pre)
    parts.extend(payloads)
    crc = 0
    for chunk in parts[1:]:  # the CRC covers the body, not the magic
        crc = zlib.crc32(chunk, crc)
    parts.append(_CRC.pack(crc))
    return b"".join(parts)


def _flag_frame(kind: int, seq: int, stripe: int, slots: Sequence[int]) -> bytes:
    """Frame a record whose pieces are bare slots — what
    :func:`encode_record` makes of empty pieces at offset 0, without a
    record or piece object on the append path."""
    n = len(slots)
    try:
        body = _flag_body(n).pack(kind, seq, stripe, n, *slots)
    except struct.error as exc:
        raise JournalError(f"stripe {stripe} or slots {slots!r} out of range") from exc
    return MAGIC + body + _CRC.pack(zlib.crc32(body))


@functools.lru_cache(maxsize=256)  # n is at most a stripe's cell count
def _flag_body(n: int) -> struct.Struct:
    """The body of a record of ``n`` bare slots — ``_HEADER`` and ``n``
    times ``_FLAG`` — as one ``Struct``: one pack per frame."""
    return struct.Struct(_HEADER.format + _FLAG.format[1:] * n)


def _decode_frame(buf: bytes, pos: int) -> tuple[JournalRecord, int] | None:
    """Decode one frame at ``pos``; ``None`` means a torn tail."""
    if len(buf) - pos < len(MAGIC) + _HEADER.size + _CRC.size:
        return None
    if bytes(buf[pos : pos + len(MAGIC)]) != MAGIC:
        return None
    body_start = pos + len(MAGIC)
    kind, seq, stripe, npieces = _HEADER.unpack_from(buf, body_start)
    if kind not in _KIND_NAMES:
        return None
    cursor = body_start + _HEADER.size
    headers = []
    for _ in range(npieces):
        if len(buf) - cursor < _PIECE.size:
            return None
        headers.append(_PIECE.unpack_from(buf, cursor))
        cursor += _PIECE.size
    total_payload = sum(plen + prelen for _, _, plen, prelen in headers)
    if len(buf) - cursor < total_payload + _CRC.size:
        return None
    body_end = cursor + total_payload
    (crc,) = _CRC.unpack_from(buf, body_end)
    if zlib.crc32(bytes(buf[body_start:body_end])) != crc:
        return None
    pieces = []
    for slot, offset, plen, prelen in headers:
        payload = bytes(buf[cursor : cursor + plen])
        cursor += plen
        preimage = bytes(buf[cursor : cursor + prelen]) if prelen else None
        cursor += prelen
        pieces.append(JournalPiece(slot, offset, payload, preimage))
    record = JournalRecord(kind, seq, stripe, tuple(pieces))
    return record, body_end + _CRC.size


@dataclass
class JournalReplay:
    """The trusted prefix of a journal device, bucketed per stripe.

    ``pending`` holds uncommitted, undiscarded intents (to redo, in
    order); ``discarded`` holds the discard records themselves, whose
    pre-images undo the stripe (newest first).  A discard voids its
    stripe's pending intents; a commit clears *both* buckets —
    committed parity supersedes all earlier history.
    """

    records: tuple[JournalRecord, ...] = ()
    torn_bytes: int = 0
    max_seq: int = 0
    #: trusted frames of each kind, counted during the scan
    intents: int = 0
    commits: int = 0
    discards: int = 0
    pending: dict[int, list[JournalRecord]] = field(default_factory=dict)
    discarded: dict[int, list[JournalRecord]] = field(default_factory=dict)

    def dirty_stripes(self) -> list[int]:
        """Stripes with unresolved history, ascending."""
        return sorted(
            {s for s, recs in self.pending.items() if recs}
            | {s for s, recs in self.discarded.items() if recs}
        )


def replay_device(buf: bytes | bytearray) -> JournalReplay:
    """Scan a device image, trusting frames up to the first tear."""
    replay = JournalReplay()
    records: list[JournalRecord] = []
    pos = 0
    last_seq = 0
    while pos < len(buf):
        decoded = _decode_frame(buf, pos)
        if decoded is None:
            break
        record, pos = decoded
        if record.seq <= last_seq:
            break  # a stale frame from before a checkpoint — distrust it
        last_seq = record.seq
        records.append(record)
        if record.kind == INTENT:
            replay.intents += 1
            replay.pending.setdefault(record.stripe, []).append(record)
        elif record.kind == COMMIT:
            replay.commits += 1
            replay.pending.pop(record.stripe, None)
            replay.discarded.pop(record.stripe, None)
        else:  # DISCARD: void the pending flags, keep the undo image
            replay.discards += 1
            replay.pending.pop(record.stripe, None)
            replay.discarded.setdefault(record.stripe, []).append(record)
    replay.records = tuple(records)
    replay.torn_bytes = len(buf) - pos
    replay.max_seq = last_seq
    return replay


class JournalDevice:
    """The simulated journal disk: an append-only, truncatable byte log.

    Appends happen in two halves with an optional I/O hook fired
    between them (site ``journal-<kind>-mid``) and after the frame is
    complete (site ``journal-<kind>``); a hook that raises leaves a
    genuinely torn frame on the device, exactly like a power cut
    mid-sector.
    """

    def __init__(self) -> None:
        self.buf = bytearray()
        self.appends = 0
        self.bytes_appended = 0
        self.truncations = 0

    def append(
        self,
        frame: bytes,
        label: str,
        io_hook: Callable[[str], None] | None = None,
    ) -> None:
        if io_hook is None:
            # Unwatched fast path: one append, no split copies.
            self.buf += frame
        else:
            half = len(frame) // 2
            self.buf += frame[:half]
            io_hook(f"journal-{label}-mid")
            self.buf += frame[half:]
        self.appends += 1
        self.bytes_appended += len(frame)
        if io_hook is not None:
            io_hook(f"journal-{label}")

    def truncate(self, head: int | None = None) -> None:
        """Drop the first ``head`` bytes in one step (all, by default)."""
        del self.buf[:head]
        self.truncations += 1

    def __len__(self) -> int:
        return len(self.buf)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JournalDevice(bytes={len(self.buf)}, appends={self.appends})"


class ParityIntentJournal:
    """Write-ahead redo log for a store's deferred parity updates.

    The journal owns sequencing and framing; the store owns *when* to
    log (intent before data, commit after parity, discard before
    rollback, checkpoint when the cache drains, compaction past the
    bound).  ``io_hook`` — set by the store to its crash-point
    trampoline — fires at every append boundary so the crash harness
    can kill the machine mid-record.
    """

    def __init__(self, device: JournalDevice | None = None) -> None:
        self.device = device if device is not None else JournalDevice()
        self.io_hook: Callable[[str], None] | None = None
        # Resuming over a surviving device: continue its numbering so
        # replay's monotonicity check keeps rejecting stale frames (and
        # keep the scan: recovery asks for it next).
        self._opened = replay_device(self.device.buf) if len(self.device) else None
        self._seq = self._opened.max_seq if self._opened else 0
        self.intents_logged = 0
        self.commits_logged = 0
        self.discards_logged = 0

    def _append(self, frame: bytes, label: str) -> int:
        self._opened = None
        self.device.append(frame, label, self.io_hook)
        return len(frame)

    def log_intent(self, stripe: int, slots: Sequence[int], label: str = "intent") -> int:
        """Flag ``slots`` of ``stripe`` dirty; returns the frame size in
        bytes.  ``label`` names the crash site the append fires."""
        if not slots:
            raise JournalError("an intent record needs at least one piece")
        self._seq += 1
        size = self._append(_flag_frame(INTENT, self._seq, stripe, slots), label)
        self.intents_logged += 1
        return size

    def log_commit(self, stripe: int) -> int:
        """Void all earlier records for ``stripe`` (its parity landed)."""
        self._seq += 1
        size = self._append(_flag_frame(COMMIT, self._seq, stripe, ()), "commit")
        self.commits_logged += 1
        return size

    def log_discard(self, stripe: int, pieces: Sequence[JournalPiece] = ()) -> int:
        """Announce a rollback of ``stripe``; ``pieces`` carry the
        pre-image of each element the rollback is about to restore."""
        self._seq += 1
        record = JournalRecord(DISCARD, self._seq, stripe, tuple(pieces))
        size = self._append(encode_record(record), "discard")
        self.discards_logged += 1
        return size

    def checkpoint(self) -> None:
        """Truncate the device: nothing is in flight any more."""
        self._opened = None
        self.device.truncate()

    def compact(self, live: Sequence[tuple[int, Sequence[int]]]) -> list[int]:
        """Cut the device back to one intent per ``(stripe, dirty slots)``.

        The intents are re-logged at the tail first (crash sites
        ``journal-compact[-mid]``: no write is in flight, so they must
        not read as ``journal-intent``), then everything before them is
        trimmed in one step (``journal-trim``): whichever side of the
        trim a crash lands on, replay flags the same stripes.  Returns
        the re-logged frame sizes.
        """
        head = len(self.device)
        sizes = [self.log_intent(stripe, slots, "compact") for stripe, slots in live]
        self.device.truncate(head)
        if self.io_hook is not None:
            self.io_hook("journal-trim")
        return sizes

    def replay(self) -> JournalReplay:
        """Decode the device's trusted prefix (see :func:`replay_device`);
        until the first append, the scan made when the journal was
        opened over a surviving device is the answer."""
        return self._opened or replay_device(self.device.buf)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ParityIntentJournal(seq={self._seq}, device_bytes={len(self.device)}, "
            f"intents={self.intents_logged}, commits={self.commits_logged})"
        )
