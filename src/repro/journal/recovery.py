"""Applying journal records to stripes, and the recovery ledger.

The two functions here — :func:`apply_record` (redo) and
:func:`undo_record` (rollback) — are the **only** places in
:mod:`repro.journal` allowed to mutate stripe storage; lint rule R007
enforces that every other disk mutation goes through a framed record
first.  The recovery *policy* (which stripes to touch, in what order,
what to re-encode afterwards) lives in
:meth:`repro.array.filestore.FileStore.recover`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..array.stripe import HEALTHY
from ..exceptions import JournalError
from .log import DISCARD, INTENT, JournalRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..array.stripe import Stripe

Position = tuple[int, int]


def apply_record(record: JournalRecord, stripe: "Stripe", cols: int) -> list[Position]:
    """Redo an intent: land each payload-carrying piece at its offset.

    The store's flag-style intents carry empty payloads (durability is
    "data landed under a flag", so there is nothing to redo and the
    parity recompute that follows recovery does the repair); the frame
    format still supports redo payloads, and any piece that carries one
    is landed here.  Erased cells are skipped — their disk is gone, and
    the stripe-level parity recompute re-derives what it can.  Returns
    the positions actually written (idempotent: replaying a redo over
    already-landed bytes rewrites the same content).
    """
    if record.kind != INTENT:
        raise JournalError(f"cannot redo a {record.kind_name} record")
    applied: list[Position] = []
    for piece in record.pieces:
        if not piece.payload:
            continue  # a flag piece: nothing to redo
        r, c = divmod(piece.slot, cols)
        if not stripe.alive((r, c)):
            continue
        end = piece.offset + len(piece.payload)
        if not (0 <= piece.offset and end <= stripe.element_size):
            raise JournalError(
                f"piece [{piece.offset}, {end}) outside element of "
                f"{stripe.element_size} bytes"
            )
        stripe.data[r, c][piece.offset : end] = np.frombuffer(
            piece.payload, dtype=np.uint8
        )
        stripe.state[r, c] = HEALTHY  # a redo is a rewrite: media refreshed
        applied.append((r, c))
    return applied


def undo_record(record: JournalRecord, stripe: "Stripe", cols: int) -> list[Position]:
    """Roll a stripe back: restore each pre-image the record carries.

    The store frames pre-images on a stripe's discard record (each
    dirty element's content from before its cache residency), so
    undoing that record finishes — or, idempotently, repeats — the
    rollback it announced.  Other pieces restore nothing.
    """
    if record.kind not in (INTENT, DISCARD):
        raise JournalError(f"cannot undo a {record.kind_name} record")
    restored: list[Position] = []
    for piece in record.pieces:
        if piece.preimage is None:
            continue
        r, c = divmod(piece.slot, cols)
        if not stripe.alive((r, c)):
            continue
        if len(piece.preimage) != stripe.element_size:
            raise JournalError(
                f"pre-image of {len(piece.preimage)} bytes does not cover an "
                f"element of {stripe.element_size}"
            )
        stripe.set((r, c), np.frombuffer(piece.preimage, dtype=np.uint8))
        restored.append((r, c))
    return restored


@dataclass
class RecoveryReport:
    """What :meth:`FileStore.recover` found and did."""

    #: frames decoded from the trusted prefix of the device
    records_scanned: int = 0
    #: bytes after the first tear, discarded by replay
    torn_bytes: int = 0
    intents: int = 0
    commits: int = 0
    discards: int = 0
    #: stripes the log flagged as having unresolved history
    stripes_flagged: int = 0
    #: of those, how many had parity that actually disagreed with data
    stripes_repaired: int = 0
    pieces_redone: int = 0
    elements_undone: int = 0
    #: parity chains skipped on degraded stripes (a member was erased)
    chains_skipped: int = 0
    #: parity cells recovery could not re-derive (degraded stripes only)
    unrecovered: list[tuple[int, Position]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the journal was empty or fully resolved."""
        return not self.unrecovered

    def to_dict(self) -> dict:
        return {
            "records_scanned": self.records_scanned,
            "torn_bytes": self.torn_bytes,
            "intents": self.intents,
            "commits": self.commits,
            "discards": self.discards,
            "stripes_flagged": self.stripes_flagged,
            "stripes_repaired": self.stripes_repaired,
            "pieces_redone": self.pieces_redone,
            "elements_undone": self.elements_undone,
            "chains_skipped": self.chains_skipped,
            "unrecovered": [[idx, list(pos)] for idx, pos in self.unrecovered],
        }

    def render(self) -> str:
        lines = [
            f"journal: {self.records_scanned} record(s) trusted, "
            f"{self.torn_bytes} torn byte(s) discarded",
            f"  intents={self.intents} commits={self.commits} "
            f"discards={self.discards}",
            f"  stripes flagged: {self.stripes_flagged} "
            f"(parity repaired on {self.stripes_repaired})",
            f"  pieces redone: {self.pieces_redone}, "
            f"elements rolled back: {self.elements_undone}",
        ]
        if self.unrecovered:
            lines.append(
                f"  UNRECOVERED parity cells (degraded): {self.unrecovered}"
            )
        return "\n".join(lines)
