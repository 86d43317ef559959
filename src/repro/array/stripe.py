"""The in-memory stripe: a grid of element buffers with erasure state.

A stripe is the unit over which an array code's equations hold: a
``rows x cols`` grid where each cell holds one *element* — a byte
buffer of fixed size (the paper uses 16 MB elements on its testbed;
tests use a few bytes).  Cells can be *erased* to simulate disk or
element failures; a code's decoder restores them.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..exceptions import InvalidParameterError, LatentSectorError, SimulationError
from ..utils import RandomState, resolve_rng

#: A cell coordinate: ``(row, col)``, 0-based.
Position = tuple[int, int]

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
        self.erased = np.zeros((rows, cols), dtype=bool)
        self.latent = np.zeros((rows, cols), dtype=bool)

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
        if self.erased[r, c]:
            raise SimulationError(f"element {pos} is erased")
        if self.latent[r, c]:
            raise LatentSectorError((r, c))
        return self.data[r, c]

    def set(self, pos: Position, buf: np.ndarray) -> None:
        """Overwrite the element at ``pos`` (also clears its erasure)."""
        r, c = self._check(pos)
        arr = np.asarray(buf, dtype=np.uint8)
        if arr.shape != (self.element_size,):
            raise InvalidParameterError(
                f"buffer shape {arr.shape} != ({self.element_size},)"
            )
        self.data[r, c] = arr
        self.erased[r, c] = False
        self.latent[r, c] = False

    def alive(self, pos: Position) -> bool:
        r, c = self._check(pos)
        return not self.erased[r, c]

    def readable(self, pos: Position) -> bool:
        """True when the element can actually be fetched right now."""
        r, c = self._check(pos)
        return not (self.erased[r, c] or self.latent[r, c])

    def any_faults(self) -> bool:
        """True when any cell is erased or latent.

        Equivalent to ``erased.any() or latent.any()`` but a plain
        byte scan — the write path asks this per call, and two ufunc
        reductions per write are measurable at small-write rates.
        """
        return b"\x01" in self.erased.tobytes() or b"\x01" in self.latent.tobytes()

    # -- erasure --------------------------------------------------------------

    def erase(self, pos: Position) -> None:
        """Erase one element (content is zeroed to make stale reads loud)."""
        r, c = self._check(pos)
        self.erased[r, c] = True
        self.latent[r, c] = False  # erasure supersedes a media fault
        self.data[r, c] = 0

    def erase_disks(self, disks: Iterable[int]) -> None:
        """Erase every element of the given columns (whole-disk failure),
        as :meth:`erase` does per element: one slice assignment per
        array."""
        for d in disks:
            if not 0 <= d < self.cols:
                raise InvalidParameterError(f"disk {d} outside 0..{self.cols - 1}")
            self.erased[:, d] = True
            self.latent[:, d] = False
            self.data[:, d] = 0

    def erased_positions(self) -> list[Position]:
        """All currently-erased cells, row-major."""
        rs, cs = np.nonzero(self.erased)
        return [(int(r), int(c)) for r, c in zip(rs, cs)]

    # -- injected media faults ----------------------------------------------------

    def mark_latent(self, pos: Position) -> None:
        """Give one element a latent sector error (URE on next read).

        Unlike :meth:`erase` the buffer is kept — the bytes are still
        on the platter, the drive just cannot return them — so healing
        layers can verify a chain repair restored the original content.
        """
        r, c = self._check(pos)
        if self.erased[r, c]:
            raise SimulationError(f"element {pos} is erased, cannot be latent")
        self.latent[r, c] = True

    def clear_latent(self, pos: Position) -> None:
        """Lift a latent error without rewriting (sector remap)."""
        r, c = self._check(pos)
        self.latent[r, c] = False

    def is_latent(self, pos: Position) -> bool:
        r, c = self._check(pos)
        return bool(self.latent[r, c])

    def latent_positions(self) -> list[Position]:
        """All cells currently carrying a latent sector error."""
        rs, cs = np.nonzero(self.latent)
        return [(int(r), int(c)) for r, c in zip(rs, cs)]

    def flip_bits(self, pos: Position, byte_index: int, mask: int = 0x01) -> None:
        """Silently corrupt one element: XOR ``mask`` into one byte.

        Models an undetected bit flip — no erasure, no latent flag, no
        error on read.  Only a checksum or parity scrub can notice.
        """
        r, c = self._check(pos)
        if self.erased[r, c]:
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

    def flat_column(self, col: int) -> np.ndarray:
        """Disk ``col``'s elements as a ``(rows, element_size)`` view.

        Rows are strided (one per grid row) but each element stays
        contiguous, so per-element kernels and ``.view`` dtype changes
        on the last axis remain copy-free.
        """
        if not 0 <= col < self.cols:
            raise InvalidParameterError(f"disk {col} outside 0..{self.cols - 1}")
        view = self.data[:, col, :]
        assert np.shares_memory(view, self.data)
        return view

    # -- whole-stripe helpers ----------------------------------------------------

    def xor_of(self, positions: Iterable[Position]) -> np.ndarray:
        """XOR of the buffers at the given positions (all must be alive)."""
        acc = np.zeros(self.element_size, dtype=np.uint8)
        for pos in positions:
            np.bitwise_xor(acc, self.get(pos), out=acc)
        return acc

    def copy(self) -> "Stripe":
        # Not through __init__: its zero-filled buffers would be thrown away.
        dup = Stripe.__new__(Stripe)
        dup.rows = self.rows
        dup.cols = self.cols
        dup.element_size = self.element_size
        dup.data = self.data.copy()
        dup.erased = self.erased.copy()
        dup.latent = self.latent.copy()
        return dup

    def fill_random(self, positions: Iterable[Position], seed: "RandomState" = None) -> None:
        """Fill the given cells with deterministic pseudo-random bytes.

        ``seed`` is anything :func:`repro.utils.resolve_rng` accepts —
        an int, ``None``, or an already-threaded generator.
        """
        rng = resolve_rng(seed)
        for pos in positions:
            r, c = self._check(pos)
            self.data[r, c] = rng.integers(0, 256, self.element_size, dtype=np.uint8)
            self.erased[r, c] = False
            self.latent[r, c] = False

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Stripe)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.element_size == other.element_size
            and bool(np.array_equal(self.data, other.data))
            and bool(np.array_equal(self.erased, other.erased))
            and bool(np.array_equal(self.latent, other.latent))
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Stripe(rows={self.rows}, cols={self.cols}, "
            f"element_size={self.element_size}, erased={int(self.erased.sum())})"
        )


class StripeBatch:
    """``count`` same-shaped stripes in one contiguous allocation.

    The vectorized engine's batched execution wants one kernel call
    across N stripes; that requires the stripes to share a single
    buffer with the batch on the leading axis.  ``stripe(i)`` hands out
    a :class:`Stripe` whose ``data``/``erased``/``latent`` arrays are
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
        self.erased = np.zeros((count, rows, cols), dtype=bool)
        self.latent = np.zeros((count, rows, cols), dtype=bool)

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
            batch.erased[i] = s.erased
            batch.latent[i] = s.latent
        return batch

    def stripe(self, index: int) -> Stripe:
        """Stripe ``index`` as a shared-memory view (no copies)."""
        if not 0 <= index < self.count:
            raise InvalidParameterError(
                f"stripe index {index} outside 0..{self.count - 1}"
            )
        view = Stripe.__new__(Stripe)
        view.rows = self.rows
        view.cols = self.cols
        view.element_size = self.element_size
        view.data = self.data[index]
        view.erased = self.erased[index]
        view.latent = self.latent[index]
        return view

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
