"""The write-back stripe cache behind :class:`~repro.array.filestore.FileStore`.

A cached store writes data elements straight into the stripe buffers
(reads stay coherent) but *defers the parity update*: each dirty
stripe is tracked here with a pre-image snapshot of every element's
first overwrite, whose keys are the dirty set.  At flush time the
store computes ``old ⊕ new`` deltas from the snapshots, groups stripes
that share a dirty pattern into one
:class:`~repro.array.stripe.StripeBatch`, and folds the parity deltas
in with a single compiled ``update`` plan per pattern (see
:mod:`repro.engine.compile`).

The cache itself is policy only — capacity, LRU order, dirty tracking,
hit/miss/eviction counters.  It never touches stripe bytes except to
snapshot pre-images; all flushing lives in the store, which knows the
code, the engine, and the checksum sidecar.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..exceptions import InvalidParameterError

#: A cell coordinate ``(row, col)``, 0-based.
Position = tuple[int, int]


class DirtyStripe:
    """Dirty state of one cached stripe.

    ``old`` holds a pre-image copy of each dirty element, as ``bytes``,
    taken on its *first* overwrite — later writes to the same element
    only touch the live buffer, which is exactly how the cache absorbs
    rewrites of a hot element.  Its keys are the dirty set.
    """

    def __init__(self) -> None:
        self.old: dict[Position, bytes] = {}

    def snapshot(self, pos: Position, current: np.ndarray) -> bool:
        """Record ``pos`` dirty; copy its pre-image (``current``, the
        element's uint8 buffer) on first touch.

        Returns True when this was the first touch (the caller charges
        the read-modify-write's old-data read exactly once).
        """
        if pos in self.old:
            return False
        # Copied out as bytes, not ``current.copy()``: numpy drops the
        # GIL for copies above 500 elements and a waiting thread would
        # take it mid-write (docs/ENGINE.md).  Its readers take bytes
        # through the buffer protocol, so no array is wrapped around it.
        self.old[pos] = current.tobytes()
        return True

    def dirty_positions(self) -> list[Position]:
        """The dirty cells, row-major."""
        return sorted(self.old)

    def pattern(self, cols: int) -> tuple[int, ...]:
        """The dirty cells as sorted cell slots — the update-plan key,
        already in the canonical form the plan cache looks up."""
        return tuple(sorted([r * cols + c for r, c in self.old]))

    @property
    def num_dirty(self) -> int:
        return len(self.old)


class StripeCache:
    """A bounded LRU of dirty stripes awaiting a parity flush."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise InvalidParameterError("stripe cache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0
        self.flushed_elements = 0
        self.discards = 0
        self._entries: OrderedDict[int, DirtyStripe] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, stripe_idx: int) -> bool:
        return stripe_idx in self._entries

    def entry(self, stripe_idx: int) -> DirtyStripe:
        """The dirty entry for a stripe, created on first touch (LRU bump)."""
        found = self._entries.get(stripe_idx)
        if found is not None:
            self.hits += 1
            self._entries.move_to_end(stripe_idx)
            return found
        self.misses += 1
        fresh = DirtyStripe()
        self._entries[stripe_idx] = fresh
        return fresh

    def peek(self, stripe_idx: int) -> DirtyStripe | None:
        """The entry without an LRU bump (read-path dirtiness probe)."""
        return self._entries.get(stripe_idx)

    def items(self) -> list[tuple[int, DirtyStripe]]:
        """A snapshot of the entries, oldest first (no LRU bump).

        The store's flush paths walk this to advance an attached fault
        injector's clock per dirty element *before* popping anything —
        a fired whole-disk crash reentrantly flushes the cache, and the
        entries must still be present for that flush to land parity.
        """
        return list(self._entries.items())

    def pop(self, stripe_idx: int) -> DirtyStripe | None:
        """Remove and return one stripe's entry (a targeted flush)."""
        entry = self._entries.pop(stripe_idx, None)
        if entry is not None:
            self.note_flushed(entry)
        return entry

    def evict_over_capacity(self) -> list[tuple[int, DirtyStripe]]:
        """Pop least-recently-used entries until within capacity."""
        evicted: list[tuple[int, DirtyStripe]] = []
        while len(self._entries) > self.capacity:
            idx, entry = self._entries.popitem(last=False)
            self.evictions += 1
            self.note_flushed(entry)
            evicted.append((idx, entry))
        return evicted

    def pop_all(self) -> list[tuple[int, DirtyStripe]]:
        """Remove every entry, oldest first (the full flush)."""
        drained = list(self._entries.items())
        self._entries.clear()
        for _, entry in drained:
            self.note_flushed(entry)
        return drained

    def discard_all(self) -> list[tuple[int, DirtyStripe]]:
        """Remove every entry *without* charging the flush counters.

        The rollback drain: the store's error-exit path restores
        pre-images instead of landing parity, so these entries were
        never flushed — they count under ``discards`` instead.
        """
        drained = list(self._entries.items())
        self._entries.clear()
        self.discards += len(drained)
        return drained

    def note_flushed(self, entry: DirtyStripe) -> None:
        self.flushes += 1
        self.flushed_elements += len(entry.old)

    def stats(self) -> dict[str, int]:
        """A snapshot of the cache counters."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "flushes": self.flushes,
            "flushed_elements": self.flushed_elements,
            "discards": self.discards,
        }

    def reset_stats(self) -> None:
        """Zero the counters, keeping any dirty entries."""
        self.hits = self.misses = self.evictions = 0
        self.flushes = self.flushed_elements = self.discards = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StripeCache(size={len(self._entries)}, capacity={self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
