"""Per-element CRC32 sidecars and the checksum scrub.

A real array cannot tell a silently flipped bit from good data without
either a parity scrub (expensive, whole-stripe) or per-element
checksums (cheap, local).  :class:`ChecksumSidecar` keeps a CRC32 per
stripe cell — the *logical* content, so CRCs of a lost column describe
what a rebuild must reproduce — and :func:`scrub_store` walks a store,
classifies every readable element as clean / flipped / latent, and
repairs each bad element through a parity chain, escalating to the full
decoder when chains are poisoned.

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
from ..exceptions import InvalidParameterError, UnrecoverableFaultError

if TYPE_CHECKING:  # avoid an array<->faults import cycle
    from ..array.filestore import FileStore
    from ..array.stripe import Stripe
    from ..codes.base import ArrayCode

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
    if buf.dtype != np.uint8 or out.dtype != np.uint32:
        raise InvalidParameterError("crc_rows takes uint8 rows into uint32 CRCs")
    if slots.end > out.size or slots.end * width > buf.size:
        raise InvalidParameterError(f"slot {slots.end - 1} is past the last row")
    # The global once the library is loaded: no call on the hot path.
    kernel = native._KERNEL or native._kernel()
    if kernel is None or not buf.size:
        rows, crcs = buf.reshape(out.size, width), out.reshape(-1)
        for s in slots.array:
            crcs[s] = zlib.crc32(rows[s])
    else:  # native._address inlined: every call counts on a served op
        kernel.crc(
            ctypes.addressof(ctypes.c_char.from_buffer(buf)),
            width,
            slots.array,
            slots.n,
            ctypes.addressof(ctypes.c_char.from_buffer(out)),
        )
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

    def add_stripe(self, stripe: "Stripe") -> None:
        """Record CRCs for a freshly encoded stripe."""
        self.stripes.append(crc_rows(stripe.data, self._every))

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
        cells: "Iterable[Position] | CellSlots | None" = None,
    ) -> None:
        """Recompute the CRCs of ``cells`` of one stripe — every cell
        when ``None`` — as :meth:`record` would one by one, in one
        :func:`crc_rows` call (a flush passes the :class:`CellSlots`
        its plan keeps)."""
        if cells is None:
            cells = self._every
        elif not isinstance(cells, CellSlots):
            # A column off the grid is refused here, a row by the bound
            # checks of CellSlots (negative) and crc_rows (past the end).
            cols, cells = self.cols, list(cells)
            if not all(0 <= c < cols for _, c in cells):
                raise InvalidParameterError(f"cells outside the {self.rows}x{cols} grid")
            cells = CellSlots([r * cols + c for r, c in cells])
        crc_rows(stripe.data, cells, self.stripes[stripe_idx])

    def expected(self, stripe_idx: int, pos: Position) -> int:
        return int(self.stripes[stripe_idx][pos])

    def matches(self, stripe_idx: int, pos: Position, buf) -> bool:
        return crc_of(buf) == self.expected(stripe_idx, pos)


@dataclass
class ScrubReport:
    """Outcome of one checksum scrub pass.

    ``elements_checked`` counts readable cells whose CRC was compared;
    ``repair_reads``/``repair_writes`` is the extra I/O the repairs
    cost.  ``chain_repairs`` were fixed through a single parity chain,
    ``escalations`` needed the full decoder (a poisoned chain), and
    ``unrepaired`` lists positions left bad (only when ``repair=False``
    or truly stuck).
    """

    elements_checked: int = 0
    scrub_reads: int = 0
    flips_detected: list[tuple[int, Position]] = field(default_factory=list)
    latent_detected: list[tuple[int, Position]] = field(default_factory=list)
    chain_repairs: int = 0
    escalations: int = 0
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
            "scrub_reads": self.scrub_reads,
            "flips_detected": [[i, list(p)] for i, p in self.flips_detected],
            "latent_detected": [[i, list(p)] for i, p in self.latent_detected],
            "chain_repairs": self.chain_repairs,
            "escalations": self.escalations,
            "repair_reads": self.repair_reads,
            "repair_writes": self.repair_writes,
            "unrepaired": [[i, list(p)] for i, p in self.unrepaired],
        }


def _repair_via_chain(
    code: "ArrayCode",
    stripe: "Stripe",
    sidecar: ChecksumSidecar,
    stripe_idx: int,
    pos: Position,
    bad: set[Position],
    report: ScrubReport,
) -> bool:
    """Try to rebuild ``pos`` from one parity chain avoiding ``bad``.

    A chain is usable when every other member is readable and not
    itself suspected bad; the XOR of those members must match the
    sidecar CRC, otherwise the chain was poisoned by an undetected
    fault and the next chain is tried.
    """
    chains = list(code.chains_through[pos])
    if pos in code.chain_at:
        chains.append(code.chain_at[pos])
    for chain in chains:
        others = [c for c in chain.equation_cells if c != pos]
        if any(c in bad or not stripe.readable(c) for c in others):
            continue
        candidate = stripe.xor_of(others)
        report.repair_reads += len(others)
        if crc_of(candidate) != sidecar.expected(stripe_idx, pos):
            continue  # chain poisoned by another (undetected) fault
        stripe.set(pos, candidate)
        report.repair_writes += 1
        return True
    return False


def scrub_store(store: "FileStore", repair: bool = True) -> ScrubReport:
    """Checksum-scrub every stripe of a store, repairing bad elements.

    Works on healthy *and* degraded stores: erased columns are skipped
    (their content is the rebuild orchestrator's job), every other cell
    is CRC-verified.  Detected flips and latent errors are repaired
    through a parity chain when one is clean, and by erasing all bad
    cells and running the full decoder when not.  Raises
    :class:`UnrecoverableFaultError` only when ``repair=True`` and even
    the decoder cannot absorb the pattern.
    """
    code = store.code
    sidecar = store.sidecar
    report = ScrubReport()
    cols = code.cols
    for stripe_idx, stripe in enumerate(store.stripes):
        # Erased cells are the rebuild path's; a live cell is latent
        # (not readable) or CRC-checked, in one batched call per stripe.
        latent = np.flatnonzero(stripe.state == LATENT).tolist()
        readable = np.flatnonzero(stripe.state == HEALTHY)
        crcs = crc_rows(stripe.data, CellSlots(readable.tolist())).flat[readable]
        expected = sidecar.stripes[stripe_idx].flat[readable]
        flipped = readable[crcs != expected].tolist()
        report.elements_checked += len(readable)
        report.scrub_reads += len(readable)
        report.latent_detected += [(stripe_idx, divmod(s, cols)) for s in latent]
        report.flips_detected += [(stripe_idx, divmod(s, cols)) for s in flipped]
        bad = {divmod(s, cols) for s in latent + flipped}
        if not bad:
            continue
        if not repair:
            report.unrepaired.extend((stripe_idx, p) for p in sorted(bad))
            continue
        # First pass: cheap single-chain repairs.
        remaining: set[Position] = set()
        for pos in sorted(bad):
            if _repair_via_chain(
                code, stripe, sidecar, stripe_idx, pos, bad - {pos}, report
            ):
                report.chain_repairs += 1
            else:
                remaining.add(pos)
        # Escalation: erase everything still bad and run the decoder.
        if remaining:
            for pos in remaining:
                stripe.erase(pos)
            erased = set(stripe.erased_positions())
            if not code.can_recover(erased):
                report.unrepaired.extend((stripe_idx, p) for p in sorted(remaining))
                raise UnrecoverableFaultError(
                    f"scrub: stripe {stripe_idx} has {len(erased)} bad/erased "
                    f"cells, beyond {code.name}'s capability"
                )
            # Decode on a copy: failed columns must stay erased in the
            # live stripe, only the scrubbed cells are written back.
            work = stripe.copy()
            code.decode(work, engine=store.engine)
            report.repair_reads += sum(1 for p in code.layout if p not in erased)
            for pos in sorted(remaining):
                restored = work.get(pos)
                if crc_of(restored) != sidecar.expected(stripe_idx, pos):
                    raise UnrecoverableFaultError(
                        f"scrub: stripe {stripe_idx} element {pos} decoded to "
                        "content that fails its checksum — a second silent "
                        "fault poisoned the decode"
                    )
                stripe.set(pos, restored)
                report.repair_writes += 1
            report.escalations += len(remaining)
    return report
