"""Per-element CRC32 sidecars and the checksum scrub.

A real array cannot tell a silently flipped bit from good data without
either a parity scrub (expensive, whole-stripe) or per-element
checksums (cheap, local).  :class:`ChecksumSidecar` keeps a CRC32 per
stripe cell — the *logical* content, so CRCs of a lost column describe
what a rebuild must reproduce — and :func:`scrub_store` walks a store,
classifies every live element as clean / flipped / latent, and heals
the bad ones through the routine every rebuild runs
(:meth:`~repro.array.filestore.FileStore._rebuild_stripe`): a flipped
cell is marked latent, and one CRC-gated ``read`` plan per stripe
restores them all.

The scrub counts its repair I/O (elements read and written) so the
scenario runner can compare the scrubbing cost of different codes under
identical fault plans.

Every CRC is ``zlib.crc32``'s value; the cells of a stripe checksummed
together go through :func:`crc_rows`, one call into the native kernel
library when it is loaded, ``zlib.crc32`` per cell otherwise.
"""

from __future__ import annotations

import ctypes
import functools
import zlib
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..array.stripe import HEALTHY, LATENT
from ..engine.backends import native
from ..exceptions import (
    ChecksumMismatchError,
    InvalidParameterError,
    UnrecoverableFaultError,
)

if TYPE_CHECKING:  # avoid an array<->faults import cycle
    from ..array.filestore import FileStore
    from ..array.stripe import Stripe

Position = tuple[int, int]


def crc_of(buf) -> int:
    """CRC32 of one element buffer.

    Anything contiguous (the common case: element views into a stripe)
    goes straight through the buffer protocol; anything else pays one
    ``bytes()`` copy.
    """
    try:
        return zlib.crc32(buf)
    except (TypeError, ValueError, BufferError):
        return zlib.crc32(bytes(buf))


@functools.lru_cache(maxsize=None)
def _zeros_crc(size: int) -> int:
    return zlib.crc32(bytes(size))


class CellSlots:
    """Cell slots (``r * cols + c``) in the int32 form the native CRC
    kernel reads, checked non-negative once; a caller that checksums
    the same cells often builds them once."""

    __slots__ = ("array", "n", "end")

    def __init__(self, slots: "Iterable[int]") -> None:
        slots = list(slots)
        self.n = len(slots)
        if self.n and min(slots) < 0:
            raise InvalidParameterError("cell slots must be non-negative")
        #: one past the highest slot: the rows a buffer must have
        self.end = max(slots) + 1 if self.n else 0
        self.array = (ctypes.c_int32 * self.n)(*slots)


_UINT8, _UINT32 = np.dtype(np.uint8), np.dtype(np.uint32)
_ubyte = ctypes.c_ubyte.from_buffer


def crc_rows(
    buf: np.ndarray, slots: CellSlots, out: np.ndarray | None = None
) -> np.ndarray:
    """Set ``out[s]`` to the CRC32 of row ``s`` of ``buf`` (its last
    axis; a stripe's ``data`` has a row per cell) for every slot ``s``
    and return ``out``: uint32, an entry per row, zeroed when None.
    Both arrays writable and C-contiguous."""
    if out is None:
        out = np.zeros(buf.shape[:-1], dtype=np.uint32)
    width = buf.shape[-1]
    if buf.dtype != _UINT8 or out.dtype != _UINT32:
        raise InvalidParameterError("crc_rows takes uint8 rows into uint32 CRCs")
    if slots.end > out.size or slots.end * width > buf.size:
        raise InvalidParameterError(f"slot {slots.end - 1} is past the last row")
    # The global once the library is loaded: no call on the hot path.
    kernel = native._KERNEL or native._kernel()
    if kernel is None or not buf.size:
        rows, crcs = buf.reshape(out.size, width), out.reshape(-1)
        for s in slots.array:
            crcs[s] = zlib.crc32(rows[s])
    else:
        # Both buffers go as ``c_ubyte`` views, taken by reference by
        # their pointer parameters (a read-only or non-contiguous one is
        # refused, not copied).
        kernel.crc(_ubyte(buf), width, slots.array, slots.n, _ubyte(out))
    return out


class ChecksumSidecar:
    """CRC32 of the logical content of every element, per stripe.

    The sidecar is authoritative for *content*, not availability: CRCs
    survive an erasure (they describe the bytes the lost element must
    decode back to) and are only rewritten when the element's logical
    content changes.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise InvalidParameterError("sidecar dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.stripes: list[np.ndarray] = []
        self._every = CellSlots(range(rows * cols))

    def __len__(self) -> int:
        return len(self.stripes)

    def add_zero_stripe(self, element_size: int) -> None:
        """Record CRCs for an all-zero stripe (a zero codeword)."""
        self.stripes.append(
            np.full((self.rows, self.cols), _zeros_crc(element_size), np.uint32)
        )

    def record(self, stripe_idx: int, pos: Position, buf) -> None:
        """Update one element's CRC after a content change."""
        self.stripes[stripe_idx][pos] = crc_of(buf)

    def record_stripe(
        self,
        stripe_idx: int,
        stripe: "Stripe",
        cells: "Iterable[Position] | None" = None,
    ) -> None:
        """Recompute the CRCs of ``cells`` of one stripe — every cell
        when ``None`` — as :meth:`record` would one by one, in one
        :func:`crc_rows` call."""
        if cells is None:
            slots = self._every
        else:
            # A column off the grid is refused here, a row by the bound
            # checks of CellSlots (negative) and crc_rows (past the end).
            cols, cells = self.cols, list(cells)
            if not all(0 <= c < cols for _, c in cells):
                raise InvalidParameterError(f"cells outside the {self.rows}x{cols} grid")
            slots = CellSlots([r * cols + c for r, c in cells])
        crc_rows(stripe.data, slots, self.stripes[stripe_idx])

    def expected(self, stripe_idx: int, pos: Position) -> int:
        return int(self.stripes[stripe_idx][pos])


@dataclass
class ScrubReport:
    """Outcome of one checksum scrub pass.

    ``elements_checked`` counts readable cells whose CRC was compared
    (the detection reads); ``repair_reads``/``repair_writes`` is the
    extra I/O the repairs cost.  ``chain_repairs`` were restored by a
    stripe's compiled ``read`` plan, and ``unrepaired`` lists positions
    left bad (only when ``repair=False`` or truly stuck).
    """

    elements_checked: int = 0
    flips_detected: list[tuple[int, Position]] = field(default_factory=list)
    latent_detected: list[tuple[int, Position]] = field(default_factory=list)
    chain_repairs: int = 0
    repair_reads: int = 0
    repair_writes: int = 0
    unrepaired: list[tuple[int, Position]] = field(default_factory=list)

    @property
    def bad_elements(self) -> int:
        return len(self.flips_detected) + len(self.latent_detected)

    @property
    def clean(self) -> bool:
        return self.bad_elements == 0

    def to_dict(self) -> dict:
        return {
            "elements_checked": self.elements_checked,
            "flips_detected": [[i, list(p)] for i, p in self.flips_detected],
            "latent_detected": [[i, list(p)] for i, p in self.latent_detected],
            "chain_repairs": self.chain_repairs,
            "repair_reads": self.repair_reads,
            "repair_writes": self.repair_writes,
            "unrepaired": [[i, list(p)] for i, p in self.unrepaired],
        }


def scrub_store(store: "FileStore", repair: bool = True) -> ScrubReport:
    """Checksum-scrub every stripe of a store, repairing bad elements.

    Runs under the store's structural-op tripwire, on healthy *and*
    degraded stores: erased cells are skipped (their content is the
    rebuild's job), every other live cell is latent or CRC-checked, in
    one batched :func:`crc_rows` call per stripe.  With
    ``repair=True`` each flipped cell is marked latent — as
    untrustworthy as a URE — and :meth:`FileStore._rebuild_stripe`
    restores the stripe's latent cells: one compiled ``read`` plan over
    its whole loss pattern, every restored cell CRC-checked before any
    lands.  Raises :class:`UnrecoverableFaultError`, naming the
    stripe, when the pattern exceeds the code or its decode fails a
    checksum; the bad cells are then left latent, erased cells only in
    failed columns.
    """
    report = ScrubReport()
    cols = store.code.cols
    with store._exclusive("scrub"):
        for stripe_idx, stripe in enumerate(store.stripes):
            latent = np.flatnonzero(stripe.state == LATENT).tolist()
            readable = np.flatnonzero(stripe.state == HEALTHY)
            crcs = crc_rows(stripe.data, CellSlots(readable.tolist())).flat[readable]
            expected = store.sidecar.stripes[stripe_idx].flat[readable]
            flipped = readable[crcs != expected].tolist()
            report.elements_checked += len(readable)
            report.latent_detected += [(stripe_idx, divmod(s, cols)) for s in latent]
            report.flips_detected += [(stripe_idx, divmod(s, cols)) for s in flipped]
            bad = [(stripe_idx, divmod(s, cols)) for s in sorted(latent + flipped)]
            if not bad:
                continue
            if not repair:
                report.unrepaired += bad
                continue
            stripe.state.flat[flipped] = LATENT
            try:
                reads = store._rebuild_stripe(stripe_idx, None)
            except (UnrecoverableFaultError, ChecksumMismatchError) as exc:
                report.unrepaired += bad
                raise UnrecoverableFaultError(
                    f"scrub: stripe {stripe_idx} cannot be healed: {exc}"
                ) from exc
            report.repair_reads += reads
            report.repair_writes += len(bad)
            report.chain_repairs += len(bad)
    return report
