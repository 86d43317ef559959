"""The in-memory stripe: a grid of element buffers and their loss state.

A stripe is the unit over which an array code's equations hold: a
``rows x cols`` grid where each cell holds one *element* — a byte
buffer of fixed size (the paper uses 16 MB elements on its testbed;
tests use a few bytes).  One ``uint8`` array, ``state``, says which
cells are lost: each is :data:`HEALTHY`, :data:`ERASED` (gone with its
disk, zeroed; a decoder restores it) or :data:`LATENT` (a latent sector
error: the bytes are kept but unreadable until a chain rewrites them).
A silent bit flip is not a state: only a checksum or scrub can see it.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..exceptions import InvalidParameterError, LatentSectorError, SimulationError
from ..utils import RandomState, resolve_rng

#: A cell coordinate: ``(row, col)``, 0-based.
Position = tuple[int, int]

#: The loss states of a cell in :attr:`Stripe.state`; nonzero is lost.
HEALTHY, ERASED, LATENT = 0, 1, 2

#: The machine-word dtype the vectorized engine reinterprets buffers as.
WORD_DTYPE = np.uint64
WORD_BYTES = 8


class Stripe:
    """A rows×cols grid of equally-sized byte elements.

    Parameters
    ----------
    rows, cols:
        Grid dimensions.  ``cols`` is the number of disks the stripe
        spans; each column lives on one disk.
    element_size:
        Bytes per element.  Experiments use the paper's 16 MB mostly
        symbolically (through the latency model); in-memory buffers in
        tests are small.
    """

    def __init__(self, rows: int, cols: int, element_size: int) -> None:
        if rows <= 0 or cols <= 0:
            raise InvalidParameterError("stripe dimensions must be positive")
        if element_size <= 0:
            raise InvalidParameterError("element_size must be positive")
        self.rows = rows
        self.cols = cols
        self.element_size = element_size
        self.data = np.zeros((rows, cols, element_size), dtype=np.uint8)
        self.state = np.zeros((rows, cols), dtype=np.uint8)

    # -- accessors ------------------------------------------------------------

    def _check(self, pos: Position) -> Position:
        r, c = pos
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise InvalidParameterError(
                f"position {pos} outside {self.rows}x{self.cols} stripe"
            )
        return r, c

    def get(self, pos: Position) -> np.ndarray:
        """The element buffer at ``pos``; fails if the cell is erased.

        The returned array is a C-contiguous *view* into the stripe's
        backing storage (``data`` is one contiguous allocation), never
        a copy — callers may XOR into it in place.

        A cell carrying a latent sector error raises
        :class:`LatentSectorError` — the disk is up but the media
        cannot be read, and callers are expected to repair through a parity
        chain (which rewrites the cell and clears the fault).
        """
        r, c = self._check(pos)
        if self.state[r, c] == ERASED:
            raise SimulationError(f"element {pos} is erased")
        if self.state[r, c] == LATENT:
            raise LatentSectorError((r, c))
        return self.data[r, c]

    def set(self, pos: Position, buf: np.ndarray) -> None:
        """Overwrite the element at ``pos``, leaving it :data:`HEALTHY`."""
        r, c = self._check(pos)
        arr = np.asarray(buf, dtype=np.uint8)
        if arr.shape != (self.element_size,):
            raise InvalidParameterError(
                f"buffer shape {arr.shape} != ({self.element_size},)"
            )
        self.data[r, c] = arr
        self.state[r, c] = HEALTHY

    def alive(self, pos: Position) -> bool:
        r, c = self._check(pos)
        return self.state[r, c] != ERASED

    def readable(self, pos: Position) -> bool:
        """True when the element can actually be fetched right now."""
        r, c = self._check(pos)
        return self.state[r, c] == HEALTHY

    def any_faults(self) -> bool:
        """True when any cell is erased or latent.

        Equivalent to ``state.any()`` but a plain byte scan: the write
        path asks this per call, where a ufunc reduction is measurable.
        """
        return bool(self.state.tobytes().lstrip(b"\x00"))

    # -- erasure --------------------------------------------------------------

    def erase(self, pos: Position) -> None:
        """Erase one element (content is zeroed to make stale reads loud)."""
        r, c = self._check(pos)
        self.state[r, c] = ERASED
        self.data[r, c] = 0

    def erase_disks(self, disks: Iterable[int]) -> None:
        """Erase every element of the given columns (whole-disk failure),
        as :meth:`erase` does per element: one slice assignment per
        array."""
        for d in disks:
            if not 0 <= d < self.cols:
                raise InvalidParameterError(f"disk {d} outside 0..{self.cols - 1}")
            self.state[:, d] = ERASED
            self.data[:, d] = 0

    def erased_positions(self) -> list[Position]:
        """All currently-erased cells, row-major."""
        rs, cs = np.nonzero(self.state == ERASED)
        return [(int(r), int(c)) for r, c in zip(rs, cs)]

    # -- injected media faults ----------------------------------------------------

    def mark_latent(self, pos: Position) -> None:
        """Give one element a latent sector error (URE on next read).

        Unlike :meth:`erase` the buffer is kept — the bytes are still
        on the platter, the drive just cannot return them — so healing
        layers can verify a chain repair restored the original content.
        """
        r, c = self._check(pos)
        if self.state[r, c] == ERASED:
            raise SimulationError(f"element {pos} is erased, cannot be latent")
        self.state[r, c] = LATENT

    def latent_positions(self) -> list[Position]:
        """All cells currently carrying a latent sector error."""
        rs, cs = np.nonzero(self.state == LATENT)
        return [(int(r), int(c)) for r, c in zip(rs, cs)]

    def flip_bits(self, pos: Position, byte_index: int, mask: int = 0x01) -> None:
        """Silently corrupt one element: XOR ``mask`` into one byte.

        Models an undetected bit flip — no erasure, no latent flag, no
        error on read.  Only a checksum or parity scrub can notice.
        """
        r, c = self._check(pos)
        if self.state[r, c] == ERASED:
            raise SimulationError(f"element {pos} is erased, cannot be flipped")
        if not 0 <= byte_index < self.element_size:
            raise InvalidParameterError(
                f"byte index {byte_index} outside element of {self.element_size}"
            )
        if not 0 < mask < 256:
            raise InvalidParameterError(f"flip mask must be in 1..255, got {mask}")
        self.data[r, c, byte_index] ^= mask

    # -- contiguous / word-level views --------------------------------------------

    @property
    def words_per_element(self) -> int:
        """64-bit words per element (:exc:`InvalidParameterError` if unaligned)."""
        if self.element_size % WORD_BYTES:
            raise InvalidParameterError(
                f"element_size {self.element_size} is not a multiple of "
                f"{WORD_BYTES}; no word view exists"
            )
        return self.element_size // WORD_BYTES

    def flat_view(self) -> np.ndarray:
        """The stripe as a ``(rows*cols, element_size)`` uint8 view.

        Cell ``(r, c)`` is row ``r * cols + c`` — the engine's slot
        numbering.  Always a view: ``data`` is one C-contiguous
        allocation, so the reshape cannot copy.
        """
        flat = self.data.reshape(self.rows * self.cols, self.element_size)
        assert flat.base is not None and np.shares_memory(flat, self.data)
        return flat

    def as_words(self) -> np.ndarray:
        """The stripe as a ``(rows*cols, words_per_element)`` uint64 view.

        The word-wise reinterpretation the vectorized engine runs over.
        Guaranteed zero-copy: the backing buffer is contiguous and
        numpy allocations are at least 16-byte aligned; both are
        asserted so a silent copy (which would detach the executor
        from the stripe) can never happen.
        """
        words_per_element = self.words_per_element  # typed error if unaligned
        words = self.flat_view().view(WORD_DTYPE)
        assert self.data.flags["C_CONTIGUOUS"]
        assert self.data.ctypes.data % WORD_BYTES == 0, "unaligned stripe buffer"
        assert np.shares_memory(words, self.data), "word view silently copied"
        return words.reshape(self.rows * self.cols, words_per_element)

    # -- whole-stripe helpers ----------------------------------------------------

    def xor_of(self, positions: Iterable[Position]) -> np.ndarray:
        """XOR of the buffers at the given positions (all must be alive)."""
        acc = np.zeros(self.element_size, dtype=np.uint8)
        for pos in positions:
            np.bitwise_xor(acc, self.get(pos), out=acc)
        return acc

    @classmethod
    def _over(cls, data: np.ndarray, state: np.ndarray) -> "Stripe":
        """A stripe sharing ``data`` and ``state``; not through
        ``__init__``, whose zero-filled arrays would be thrown away."""
        stripe = cls.__new__(cls)
        stripe.rows, stripe.cols, stripe.element_size = data.shape
        stripe.data, stripe.state = data, state
        return stripe

    def copy(self) -> "Stripe":
        return Stripe._over(self.data.copy(), self.state.copy())

    def fill_random(self, positions: Iterable[Position], seed: "RandomState" = None) -> None:
        """Fill the given cells with deterministic pseudo-random bytes.

        ``seed`` is anything :func:`repro.utils.resolve_rng` accepts —
        an int, ``None``, or an already-threaded generator.
        """
        rng = resolve_rng(seed)
        for pos in positions:
            r, c = self._check(pos)
            self.data[r, c] = rng.integers(0, 256, self.element_size, dtype=np.uint8)
            self.state[r, c] = HEALTHY

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Stripe)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.element_size == other.element_size
            and bool(np.array_equal(self.data, other.data))
            and bool(np.array_equal(self.state, other.state))
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Stripe(rows={self.rows}, cols={self.cols}, "
            f"element_size={self.element_size}, lost={int(np.count_nonzero(self.state))})"
        )


class StripeBatch:
    """``count`` same-shaped stripes in one contiguous allocation.

    The vectorized engine's batched execution wants one kernel call
    across N stripes; that requires the stripes to share a single
    buffer with the batch on the leading axis.  ``stripe(i)`` hands out
    a :class:`Stripe` whose ``data``/``state`` arrays are
    *views* into the batch storage, so per-stripe operations (fills,
    erasures, the pure-Python oracle) and whole-batch kernels see the
    same bytes.
    """

    def __init__(self, rows: int, cols: int, element_size: int, count: int) -> None:
        if count <= 0:
            raise InvalidParameterError("batch count must be positive")
        if rows <= 0 or cols <= 0:
            raise InvalidParameterError("stripe dimensions must be positive")
        if element_size <= 0:
            raise InvalidParameterError("element_size must be positive")
        self.rows = rows
        self.cols = cols
        self.element_size = element_size
        self.count = count
        self.data = np.zeros((count, rows, cols, element_size), dtype=np.uint8)
        self.state = np.zeros((count, rows, cols), dtype=np.uint8)

    @classmethod
    def from_stripes(cls, stripes: "Iterable[Stripe]") -> "StripeBatch":
        """Copy existing stripes into one contiguous batch."""
        stripes = list(stripes)
        if not stripes:
            raise InvalidParameterError("need at least one stripe to batch")
        first = stripes[0]
        for s in stripes[1:]:
            if (s.rows, s.cols, s.element_size) != (
                first.rows,
                first.cols,
                first.element_size,
            ):
                raise InvalidParameterError("batched stripes must share a shape")
        batch = cls(first.rows, first.cols, first.element_size, len(stripes))
        for i, s in enumerate(stripes):
            batch.data[i] = s.data
            batch.state[i] = s.state
        return batch

    def stripe(self, index: int) -> Stripe:
        """Stripe ``index`` as a shared-memory view (no copies)."""
        if not 0 <= index < self.count:
            raise InvalidParameterError(
                f"stripe index {index} outside 0..{self.count - 1}"
            )
        return Stripe._over(self.data[index], self.state[index])

    def stripes(self) -> list[Stripe]:
        return [self.stripe(i) for i in range(self.count)]

    def flat_view(self) -> np.ndarray:
        """``(count, rows*cols, element_size)`` uint8 view."""
        flat = self.data.reshape(self.count, self.rows * self.cols, self.element_size)
        assert np.shares_memory(flat, self.data)
        return flat

    def as_words(self) -> np.ndarray:
        """``(count, rows*cols, words)`` uint64 view (zero-copy, asserted)."""
        if self.element_size % WORD_BYTES:
            raise InvalidParameterError(
                f"element_size {self.element_size} is not a multiple of "
                f"{WORD_BYTES}; no word view exists"
            )
        words = self.flat_view().view(WORD_DTYPE)
        assert self.data.ctypes.data % WORD_BYTES == 0, "unaligned batch buffer"
        assert np.shares_memory(words, self.data), "word view silently copied"
        return words

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StripeBatch(count={self.count}, rows={self.rows}, "
            f"cols={self.cols}, element_size={self.element_size})"
        )
