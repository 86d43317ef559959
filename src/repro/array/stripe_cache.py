"""The write-back stripe cache behind :class:`~repro.array.filestore.FileStore`.

A cached store writes data elements straight into the stripe buffers
(reads stay coherent) but *defers the parity update*: each dirty
stripe is tracked here with a pre-image snapshot of every element's
first overwrite, keyed by cell slot; the keys are the dirty set.  At
flush time the store groups stripes that share a dirty pattern and
folds each group's ``old ⊕ new`` parity deltas in with a single
compiled ``update`` plan per pattern (see :mod:`repro.engine.compile`).

The cache itself is policy only — capacity, LRU order, dirty tracking,
hit/miss/eviction counters.  It never touches stripe bytes except to
snapshot pre-images; all flushing lives in the store, which knows the
code, the engine, and the checksum sidecar.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

from ..exceptions import InvalidParameterError


class DirtyStripe:
    """Dirty state of one cached stripe.

    ``old`` maps the cell slot (``r * cols + c``) of each dirty element
    to a pre-image copy, as ``bytes``, taken on its *first* overwrite —
    later writes to the same element only touch the live buffer, which
    is exactly how the cache absorbs rewrites of a hot element.  Its
    keys are the dirty set, and it is the slot → pre-image map the
    store's parity fold takes as it is.
    """

    def __init__(self) -> None:
        self.old: dict[int, bytes] = {}

    def snapshot(self, cells: memoryview, slots: Iterable[int], size: int) -> None:
        """Copy the pre-image of each of ``slots`` out of ``cells``, the
        stripe's flat byte view (slot ``s`` is bytes ``[s * size, (s + 1)
        * size)``); the caller passes first touches only.

        Copied out as ``bytes`` through the buffer protocol, not as a
        numpy copy: numpy drops the GIL for copies above 500 elements
        and a waiting thread would take it mid-write (docs/ENGINE.md).
        """
        old = self.old
        for slot in slots:
            old[slot] = cells[slot * size : (slot + 1) * size].tobytes()

    def pattern(self) -> tuple[int, ...]:
        """The dirty slots, ascending — the update-plan key, already in
        the canonical form the plan cache looks up."""
        return tuple(sorted(self.old))

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
