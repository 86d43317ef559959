"""A byte-addressed store over encoded stripes: the adoption surface.

Everything else in :mod:`repro.array` counts I/O; ``FileStore`` moves
real bytes.  It stripes a growable byte space across a code's data
elements, keeps parity consistent through the small-write delta path,
and honours disk failures the way an array does:

- **degraded reads** fetch exactly the paper's Fig. 7 read set: with
  one disk down, the degraded-read planner's cheapest chains for the
  lost elements (the cells the request fetches anyway are free), and
  with more lost, the decode schedule sliced back to the requested
  cells.  The compiled ``read`` plan runs into scratch, so the stripe
  stays degraded and readers may share it;
- **writes**, degraded or not, are read-modify-writes through the
  same plans :meth:`~repro.array.raid.RAID6Volume.write` prices: only
  a lost written element's old value is recovered, the new bytes land,
  and one compiled ``update`` plan folds the deltas of every touched
  element into the surviving parities — each rewritten **once per
  stripe**, the XOR work charged to :attr:`stats` on a kernel engine.  A lost
  element's *logical* content is the new data even though its disk is
  gone; a parity on a failed disk is never read or written, only its
  CRC advanced;
- **rebuild** brings a replaced disk back stripe by stripe, healing
  latent cells on the way, through one ``read`` plan per stripe: Fig.
  9's hybrid chains when the disk is the only loss — the plan
  :func:`~repro.recovery.cost.repair_cost` prices.

With ``cache_stripes > 0`` the store runs **write-back**: data bytes
land in the stripe immediately (reads stay coherent) but the parity
update is deferred in a :class:`~repro.array.stripe_cache.StripeCache`
— a bounded LRU of dirty stripes, each a set of first-touch pre-image
snapshots.  :meth:`flush` (or LRU eviction, or any operation that
needs consistent parity — disk failure, scrub, rebuild, degraded
read) groups dirty stripes sharing a dirty pattern and folds each
group, with its pre-images, under a single compiled ``update`` plan
per pattern — the same fold as an immediate write — or re-encodes it
when the cost model says the stripe is mostly dirty
(:func:`repro.engine.compile.choose_update_strategy`).  CRC sidecars
are refreshed once per flushed element, not once per overwrite.

Deferring parity opens the RAID-6 **write hole**, and a cached store
therefore journals by default: every write flags the elements it is
about to dirty in a :class:`~repro.journal.ParityIntentJournal`
*before* any stripe byte mutates, every flushed stripe frames a commit
after its parity and sidecars land, and the device is truncated when
the cache drains (compacted, if it outgrows ``journal_bound`` first).
After a crash, :meth:`reopen_from` adopts the durable state (stripes,
sidecar, failed disks, journal device) and :meth:`recover` replays
complete records, discards the torn tail, and re-derives parity for
every flagged stripe through the compiled encode plans — see
``docs/JOURNAL.md`` for the protocol and :mod:`repro.faults.crash`
for the kill-anywhere harness built on the store's ``crash_hook``.

The store is a context manager: a clean exit flushes, but an exit
with an exception propagating **discards** the dirty cache instead —
rolling every dirty element back to its pre-image behind a discard
record carrying those pre-images — so a half-written poisoned stripe
is never pushed into parity (a :class:`~repro.array.iostats.
DirtyCacheDiscarded` note lands in :attr:`stats`).

Every element carries a CRC32 sidecar entry
(:class:`~repro.faults.checksum.ChecksumSidecar`) so silent corruption
is detectable, and an optional :class:`~repro.faults.injector.
FaultInjector` can be attached to fire scheduled faults as element I/O
streams through; with a write-back cache the injector's clock also
advances once per dirty element at flush time, when the deferred
parity actually lands.  Reads self-heal: an element hit by a latent
sector error (URE) is transparently computed through the same read
plans; a loss no plan can repair is beyond the code and raises
:class:`~repro.exceptions.UnrecoverableFaultError`.

Used by ``examples/file_storage_demo.py``, the fault-injection demo,
the stack benchmark (``python3 -m bench``), and the end-to-end tests.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import Callable, Collection, Mapping, Sequence
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, NamedTuple, TypeVar

import numpy as np

from ..exceptions import (
    ChecksumMismatchError,
    ConcurrentMutationError,
    InvalidParameterError,
    PlanError,
    TransientIOError,
    UnrecoverableFailureError,
    UnrecoverableFaultError,
)
from ..faults.checksum import CellSlots, ChecksumSidecar, _zeros_crc, crc_rows
from ..faults.healing import HealingStats
# Unused here, but kept importable from this module: the stack
# benchmark's tracer (``bench/trace.py``) looks both up by name on it.
from ..faults.healing import decode_resilient, recover_element  # noqa: F401
from ..journal import (
    COMPACT_FACTOR,
    FLAG_BYTES,
    JournalPiece,
    ParityIntentJournal,
    RecoveryReport,
    apply_record,
    undo_record,
)
from .iostats import DirtyCacheDiscarded, IOStats
from .stripe import ERASED, HEALTHY, LATENT, Stripe
from .stripe_cache import DirtyStripe, StripeCache

if TYPE_CHECKING:  # imported lazily to avoid a codes<->array cycle
    from ..codes.base import ArrayCode
    from ..engine.plan import XorPlan
    from ..faults.checksum import ScrubReport
    from ..faults.injector import FaultInjector

Position = tuple[int, int]
T = TypeVar("T")

#: Most loss states a store remembers (see :meth:`FileStore._loss`);
#: one failed disk, two, and a few latent cells on top stay far below.
LOSS_MEMO_SIZE = 256

#: Most entries :meth:`FileStore._memo` keeps: read windows, rebuild
#: and degraded-write plans, keyed by loss state.  A ``store-degraded``
#: block of the stack benchmark needs at most 1 260: 1 200 windows (600
#: reads of ≤ 10 elements, each over at most two stripes), 50 lost
#: slots its writes recover (a column of ten cells in each of five
#: rounds) and 10 rebuilds.  It held 598–619 at seeds 0–7 (557–575
#: windows), so a warm run never starts over mid-block.
DEGRADED_MEMO_SIZE = 2048


class Loss(NamedTuple):
    """One stripe loss state's slots, as the degraded paths ask for them."""

    #: every lost (erased or latent) slot, ascending: a read plan's erasure
    slots: tuple[int, ...]
    lost: frozenset[int]
    erased: frozenset[int]
    latent: frozenset[int]
    #: the state itself, ``stripe.state.tobytes()``: the memos' key
    state: bytes


class Window(NamedTuple):
    """What reading one stripe's data cells ``first..last - 1`` takes
    (see :meth:`FileStore._window`)."""

    #: the compiled ``read`` plan of the lost cells; None when none is
    plan: XorPlan | None
    #: the lost cells' positions in the window (``k - first``), in the
    #: order of the plan's outputs
    lost: tuple[int, ...]
    #: the disk of every element the ledger is charged
    disks: tuple[int, ...]


class FileStore:
    """A growable byte store protected by one RAID-6 array code."""

    def __init__(
        self,
        code: "ArrayCode",
        element_size: int = 4096,
        injector: "FaultInjector" | None = None,
        engine: str = "python",
        cache_stripes: int = 0,
        journal: "ParityIntentJournal | bool | None" = None,
    ) -> None:
        from .. import engine as engine_pkg

        if element_size <= 0:
            raise InvalidParameterError("element_size must be positive")
        if cache_stripes < 0:
            raise InvalidParameterError("cache_stripes must be >= 0")
        self.code = code
        self.element_size = element_size
        #: the requested name, for the encodes it runs and stores it spawns
        self.engine = engine
        #: what computes the bytes of every plan this store runs
        self._backend = engine_pkg.resolve_backend(engine)
        # The compiler as its *module*: the flush path looks
        # ``choose_update_strategy`` up on it per call, so whoever
        # instruments ``repro.engine.compile`` sees the store's calls.
        self._compiler = engine_pkg.compile
        # hot-path copies of the geometry
        self._eps = code.data_elements_per_stripe
        self._cols = code.cols
        self._data_positions = code.data_positions
        #: the data cells' slots and disks, in data-element order
        self._data_slots = tuple(r * code.cols + c for r, c in code.data_positions)
        self._data_disks = tuple(c for _, c in code.data_positions)
        #: each disk's column as ascending slots, by disk
        self._columns = tuple(
            tuple(range(disk, code.rows * code.cols, code.cols))
            for disk in range(code.cols)
        )
        #: ``stripe.state.tobytes()`` → its :class:`Loss`, by value (a
        #: memo of a pure function, never stale; see :meth:`_loss`)
        self._losses: dict[bytes, Loss] = {}
        #: what degraded ops on one loss state need, keyed by that state
        #: (see :meth:`_memo`)
        self._degraded: dict[tuple, Any] = {}
        #: the state of a stripe that has lost nothing
        self._intact = bytes(code.rows * code.cols)
        self.stripes: list[Stripe] = []
        self.failed_disks: set[int] = set()
        self.sidecar = ChecksumSidecar(code.rows, code.cols)
        self.injector = injector
        self.healing = HealingStats()
        self.stats = IOStats(code.cols)
        self.cache = StripeCache(cache_stripes) if cache_stripes else None
        # Write-ahead parity intent log.  ``None`` means "default":
        # journal exactly when parity is deferred (the write hole only
        # opens with a write-back cache); ``True``/``False``/an
        # instance overrides.
        if journal is None:
            journal = bool(cache_stripes)
        if journal is True:
            journal = ParityIntentJournal()
        elif journal is False:
            journal = None
        self.journal: ParityIntentJournal | None = journal
        #: most bytes the journal device holds once a write returns
        #: (see :meth:`_maybe_checkpoint`): ``COMPACT_FACTOR`` times the
        #: flag bytes of a cache whose every cell is dirty
        self.journal_bound = (
            COMPACT_FACTOR * cache_stripes * code.rows * code.cols * FLAG_BYTES
        )
        #: crash-harness trampoline: called with a site label at every
        #: durable-I/O boundary (see :mod:`repro.faults.crash`).
        self._crash_hook = None
        #: the store's one lock: the owning shard's lock and the
        #: structural-op tripwire (see :meth:`_exclusive`).
        self.lock = threading.RLock()
        #: logical data elements written (payload landing, not parity)
        self.data_writes = 0
        #: parity elements physically rewritten (the RMW overhead)
        self.parity_writes = 0
        if injector is not None:
            injector.attach(self)

    # -- context manager: flush on clean exit, discard on error ------------------

    def __enter__(self) -> "FileStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()
        else:
            # An exception is propagating: the dirty cache may hold a
            # half-applied write.  Folding it into parity would launder
            # poisoned bytes into consistency; roll back instead.
            self.discard_dirty()

    # -- geometry --------------------------------------------------------------

    @property
    def bytes_per_stripe(self) -> int:
        return self._eps * self.element_size

    @property
    def capacity(self) -> int:
        """Bytes currently addressable (grows on write)."""
        return len(self.stripes) * self._eps * self.element_size

    def _ensure_capacity(self, end_byte: int) -> None:
        while self.capacity < end_byte:
            # All-zero data: every code is linear, so the parity is zero too.
            stripe = self.code.make_stripe(self.element_size)
            self.sidecar.add_zero_stripe(self.element_size)
            for disk in self.failed_disks:
                stripe.erase_disks([disk])
            self.stripes.append(stripe)

    def reserve(self, num_stripes: int) -> None:
        """Pre-allocate the volume out to ``num_stripes`` stripes.

        The store normally grows lazily on write; a served shard wants
        its full extent encoded up front so capacity never changes
        under a concurrent op stream (and so a read ahead of any write
        is a defined, all-zero answer rather than a range error).
        """
        if num_stripes < 0:
            raise InvalidParameterError("num_stripes must be >= 0")
        self._ensure_capacity(num_stripes * self.bytes_per_stripe)

    # -- structural-op exclusivity ------------------------------------------------

    @contextmanager
    def _exclusive(self, op: str):
        """Tripwire: structural ops must not interleave across threads.

        ``flush``/``recover``/``fail_disk``/``rebuild``/``scrub`` rewrite
        parity, drain the cache, or re-shape loss state across many stripes;
        two threads interleaving them on one store would corrupt it in
        ways no counter could detect.  Callers serialize on
        :attr:`lock`, which is also the owning shard's lock
        (:class:`~repro.service.ShardLock`); the store does not wait on
        it here but *detects* the contract being broken — another
        thread holds :attr:`lock`, inside a structural op or not — and
        raises :class:`~repro.exceptions.ConcurrentMutationError`
        immediately instead of corrupting silently.  Reentrancy keeps
        the holder's own calls legal (``fail_disk`` and ``rebuild``
        flush internally; an injector's whole-disk crash fires
        ``fail_disk`` from inside a flush).
        """
        if not self.lock.acquire(blocking=False):
            raise ConcurrentMutationError(
                f"{op}() entered while another thread holds this store's "
                "lock; serialize through the shard's lock"
            )
        try:
            yield
        finally:
            self.lock.release()

    # -- fault plumbing ----------------------------------------------------------

    def _element_io(self, stripe_idx: int, pos: Position, kind: str) -> bool:
        """Advance the injector's clock for one element access.

        Returns False when a transient window on the element's disk
        outlasted the retry budget — the caller treats the element as
        lost for this operation and recovers through parity.
        """
        if self.injector is None:
            return True
        try:
            self.injector.on_element_io(stripe_idx, pos, kind)
        except TransientIOError:
            return False
        return True

    @property
    def crash_hook(self):
        return self._crash_hook

    @crash_hook.setter
    def crash_hook(self, hook) -> None:
        # Arming the hook also arms the journal's per-append
        # instrumentation (the two-half torn-write path); unarmed, the
        # journal appends in one shot with no per-frame callbacks, so
        # the harness costs nothing when it isn't watching.
        self._crash_hook = hook
        if self.journal is not None:
            self.journal.io_hook = self._crash_point if hook is not None else None

    def _crash_point(self, site: str) -> None:
        """Fire the crash hook at a durable-I/O boundary.

        Sites: ``journal-intent[-mid]``, ``journal-commit[-mid]``,
        ``journal-discard[-mid]``, ``journal-compact[-mid]``,
        ``journal-trim`` (fired by the journal), ``data-write``,
        ``flush-start``, ``parity-write``, ``rollback-write``.  A hook
        that raises models a power cut *at that instant*: everything
        already written stays, everything after is lost.
        """
        if self._crash_hook is not None:
            self._crash_hook(site)

    # -- journal plumbing --------------------------------------------------------

    def _journal_intent(self, stripe_idx: int, slots: Sequence[int]) -> None:
        """Flag the stripe's deferred parity before any data byte lands.

        Write-ahead discipline: the intent frame (the slots about to go
        dirty; no pre-images — only :meth:`discard_dirty` reads those,
        and frames them then) is on the journal device before the write
        mutates the stripe, so recovery always knows which stripes may
        hold landed data over stale parity.  The write-back path passes
        only *first touches* — a write that hits only already-dirty
        elements is absorbed by the flag that is already durable, which
        is what keeps the journal off the small-write hot path.
        Write-through and degraded writes frame their whole pattern:
        the stripe commits immediately after, so there is no flag to
        absorb into.
        """
        assert self.journal is not None
        self.stats.record_journal(self.journal.log_intent(stripe_idx, slots))

    def _journal_commit(self, stripe_idx: int) -> None:
        """Void the stripe's intents: its parity and sidecars landed."""
        if self.journal is not None:
            self.stats.record_journal(self.journal.log_commit(stripe_idx))

    def _maybe_checkpoint(self) -> None:
        """Truncate the journal once nothing is deferred any more; until
        then keep the device within :attr:`journal_bound`.

        Under sustained load the cache never drains and every evicted
        stripe leaves a dead intent and a commit behind; flags are
        idempotent, so past the bound the live ones are re-logged (one
        intent per dirty stripe) and the rest trimmed.
        """
        journal = self.journal
        if journal is None:
            return
        if not self.cache:  # no cache, or a drained one
            journal.checkpoint()
        elif len(journal.device.buf) > self.journal_bound:
            live = [(i, e.pattern()) for i, e in self.cache.items() if e.num_dirty]
            sizes = journal.compact(live)
            self.stats.record_journal(sum(sizes), len(sizes))

    # -- crash recovery ----------------------------------------------------------

    def discard_dirty(self) -> int:
        """Roll every dirty cached stripe back to its pre-images.

        The error-exit path: each dirty stripe frames a discard record
        carrying its pre-images (the cache's first-touch snapshots)
        *before* the first of them is restored.  A crash that tears the
        frame keeps the stripe's landed writes; once it is durable
        recovery finishes the rollback from it.  Returns the number of
        stripes rolled back and leaves a :class:`DirtyCacheDiscarded`
        note in :attr:`stats`.
        """
        if self.cache is None or not len(self.cache):
            return 0
        stripes_rolled = 0
        elements = 0
        es, cols = self.element_size, self._cols
        for idx, entry in self.cache.discard_all():
            if not entry.num_dirty:
                continue
            stripes_rolled += 1
            if self.journal is not None:
                undo = [JournalPiece(slot, 0, b"", old) for slot, old in entry.old.items()]
                self.stats.record_journal(self.journal.log_discard(idx, undo))
            stripe = self.stripes[idx]
            cells, state = memoryview(stripe.data).cast("B"), stripe.state.flat
            for slot, old in entry.old.items():
                if state[slot] == ERASED:
                    continue
                cells[slot * es : (slot + 1) * es] = old
                state[slot] = HEALTHY
                elements += 1
                self.stats.record_write(slot % cols)
                self._crash_point("rollback-write")
        if stripes_rolled:
            self.stats.record_note(DirtyCacheDiscarded(stripes_rolled, elements))
        self._maybe_checkpoint()
        return stripes_rolled

    def recover(self) -> RecoveryReport:
        """Replay the journal and restore parity consistency.

        The recovery contract (see ``docs/JOURNAL.md``): a write is
        durable once its data bytes landed under an intent flag that is
        fully on the journal device.  Replay trusts the log up to the
        first torn frame, finishes announced rollbacks from their
        discard records' pre-images (newest first), redoes any
        payload-carrying pending pieces (oldest first), then re-derives
        parity for every flagged stripe — healthy stripes through the
        engine's compiled encode plans, degraded ones chain-by-chain
        where every member is readable (the rest are reported
        ``unrecovered``).  Finishes with a checkpoint: the journal only
        ever describes in-flight work.
        """
        report = RecoveryReport()
        if self.journal is None:
            return report
        with self._exclusive("recover"):
            replay = self.journal.replay()
            report.records_scanned = len(replay.records)
            report.torn_bytes = replay.torn_bytes
            report.intents = replay.intents
            report.commits = replay.commits
            report.discards = replay.discards
            cols = self.code.cols
            for stripe_idx in replay.dirty_stripes():
                if stripe_idx >= len(self.stripes):
                    continue  # an intent can never precede capacity growth
                report.stripes_flagged += 1
                stripe = self.stripes[stripe_idx]
                for record in reversed(replay.discarded.get(stripe_idx, [])):
                    report.elements_undone += len(
                        undo_record(record, stripe, cols)
                    )
                for record in replay.pending.get(stripe_idx, []):
                    applied = apply_record(record, stripe, cols)
                    report.pieces_redone += len(applied)
                    for _, c in applied:
                        self.stats.record_write(c)
                self._restore_parity(stripe_idx, report)
            self.journal.checkpoint()
        return report

    def _restore_parity(self, idx: int, report: RecoveryReport) -> None:
        """Re-derive one flagged stripe's parity after replay.

        Healthy stripes re-encode through the compiled plans (after a
        cheap verify, so the report distinguishes "flagged but already
        consistent" from "actually repaired").  Degraded stripes
        recompute each parity whose chain is fully readable; a chain
        with an erased or latent member cannot be re-derived from data
        alone and is reported unrecovered — the write hole genuinely
        loses information when it overlaps a disk failure.
        """
        stripe = self.stripes[idx]
        if stripe.any_faults():
            repaired = False
            for chain in self.code.encode_order:
                r, c = chain.parity
                if stripe.state[r, c] == ERASED:
                    continue  # gone with its disk; a rebuild re-derives it
                if any(not stripe.readable(m) for m in chain.members):
                    report.chains_skipped += 1
                    report.unrecovered.append((idx, (r, c)))
                    continue
                fresh = stripe.xor_of(chain.members)
                if not np.array_equal(fresh, stripe.data[r, c]):
                    repaired = True
                stripe.set((r, c), fresh)
                self.sidecar.record(idx, (r, c), fresh)
                self.stats.record_write(c)
                self.parity_writes += 1
            if repaired:
                report.stripes_repaired += 1
            # Refresh sidecars of the readable data cells the redo may
            # have touched; erased cells keep their *logical* CRCs.
            for pos in self.code.data_positions:
                if stripe.readable(pos):
                    self.sidecar.record(idx, pos, stripe.data[pos])
        else:
            consistent = self.code.verify(stripe)
            self.code.encode(stripe, engine=self.engine)
            if not consistent:
                report.stripes_repaired += 1
            self.sidecar.record_stripe(idx, stripe)
            for pos in self.code.data_positions:
                self.stats.record_read(pos[1])
            for pos in self.code.parity_positions:
                self.stats.record_write(pos[1])
                self.parity_writes += 1

    @classmethod
    def reopen_from(
        cls, crashed: "FileStore"
    ) -> "tuple[FileStore, RecoveryReport]":
        """Reopen a crashed store's durable state and run recovery.

        Durable (adopted): the stripe buffers — they *are* the data
        disks — the checksum sidecar, the failed-disk set, and the
        journal device with whatever frames landed before the crash.
        Volatile (lost): the stripe cache, counters, hooks, and any
        attached injector.  Returns the recovered store and the
        :class:`RecoveryReport` describing what replay found.
        """
        cache_stripes = crashed.cache.capacity if crashed.cache is not None else 0
        journal: ParityIntentJournal | bool = False
        if crashed.journal is not None:
            journal = ParityIntentJournal(crashed.journal.device)
        store = cls(
            crashed.code,
            element_size=crashed.element_size,
            engine=crashed.engine,
            cache_stripes=cache_stripes,
            journal=journal,
        )
        store.stripes = crashed.stripes
        store.sidecar = crashed.sidecar
        store.failed_disks = set(crashed.failed_disks)
        report = store.recover()
        return store, report

    # -- failure management ----------------------------------------------------------

    def fail_disk(self, disk: int) -> None:
        """Lose a disk: its column is erased in every stripe."""
        if not 0 <= disk < self.code.cols:
            raise InvalidParameterError(
                f"disk {disk} outside 0..{self.code.cols - 1}"
            )
        if disk in self.failed_disks:
            return
        if len(self.failed_disks) >= 2:
            raise UnrecoverableFailureError(
                "a third concurrent disk failure exceeds RAID-6"
            )
        with self._exclusive("fail_disk"):
            # Deferred parity must land while every column is still
            # present; after the erasure the cached pre-images would
            # describe cells the decoder can no longer see consistently.
            self.flush()
            self.failed_disks.add(disk)
            for stripe in self.stripes:
                stripe.erase_disks([disk])

    def rebuild(self, disk: int) -> None:
        """Reconstruct a failed disk's content and bring it back.

        Every stripe goes through :meth:`_rebuild_stripe`: one compiled
        ``read`` plan restores the column and heals the stripe's latent
        cells — Fig. 9's hybrid chains when ``disk`` is the only loss
        (the plan :func:`~repro.recovery.cost.repair_cost` prices), the
        decode sliced to the wanted cells otherwise — found in the
        store's state-keyed memo (:meth:`_memo`), so stripes that lost
        the same cells share one entry.  Another failed disk's column
        stays erased and zeroed.  For a fault-aware, checkpointed
        rebuild use
        :class:`repro.faults.rebuild_orchestrator.RebuildOrchestrator`,
        which drives the same routine.
        """
        if disk not in self.failed_disks:
            raise InvalidParameterError(f"disk {disk} is not failed")
        with self._exclusive("rebuild"):
            self.flush()
            for idx in range(len(self.stripes)):
                self._rebuild_stripe(idx, disk)
            self.failed_disks.discard(disk)

    def _rebuild_stripe(self, idx: int, disk: int | None) -> int:
        """Restore stripe ``idx``'s cells on ``disk`` and heal its latent
        cells — only the latent cells when ``disk`` is None (the checksum
        scrub, which marks a flipped cell latent first): the one routine
        every rebuild and every scrub repair runs.  Returns the reads it
        charged to :attr:`healing`.

        The wanted cells' ``read`` plan runs into scratch through
        :meth:`_planned`, its reads charged to :attr:`healing`, not
        :attr:`stats`.  Plan, wanted slots (as an index array) and the
        CRC gate's rows (:meth:`_repair`) come from the memo, keyed by
        the stripe's loss state and ``disk`` (:meth:`_memo`).  Nothing
        lands until every wanted cell matched its CRC sidecar — one
        comparison of the whole column, the failing cell located only on
        a refusal — so a rebuild silently poisoned by an undetected flip
        fails loudly (scrub first), and a refused stripe keeps its state.
        """
        stripe = self.stripes[idx]
        loss = self._loss(stripe)
        plan, index, rows = self._memo((loss.state, "rebuild", disk), self._repair, loss, disk)
        self.healing.reads += len(plan.reads)
        values = self._planned(stripe, plan)
        crcs = crc_rows(values, rows)
        expected = self.sidecar.stripes[idx].flat[index]
        if crcs.tobytes() != expected.tobytes():
            bad = int(index[np.flatnonzero(crcs != expected)[0]])
            what, hint = (
                ("", "a second silent fault poisoned the decode")
                if disk is None
                else (f"rebuild of disk {disk}: ", "scrub before rebuilding")
            )
            raise ChecksumMismatchError(
                f"{what}stripe {idx} element {divmod(bad, self._cols)} "
                f"decoded to content that fails its checksum — {hint}"
            )
        stripe.flat_view()[index] = values
        stripe.state.flat[index] = HEALTHY
        return len(plan.reads)

    def scrub(self) -> list[int]:
        """Verify parity of every healthy stripe; return bad indices."""
        with self._exclusive("scrub"):
            if self.failed_disks:
                raise InvalidParameterError("scrub requires a healthy array")
            self.flush()
            return [
                idx
                for idx, stripe in enumerate(self.stripes)
                if not self.code.verify(stripe)
            ]

    def scrub_checksums(self, repair: bool = True) -> "ScrubReport":
        """CRC-scrub every element, repairing flips and latent errors.

        Unlike :meth:`scrub` this works on degraded stores too; see
        :func:`repro.faults.checksum.scrub_store`.
        """
        from ..faults.checksum import scrub_store

        self.flush()
        return scrub_store(self, repair=repair)

    # -- degraded plans: what a lost cell costs -------------------------------------

    def _memo(self, key: tuple, build: Callable[..., T], *args: Any) -> T:
        """``build(*args)``, kept under ``key``: what degraded ops on one
        loss state need, keyed by the value of that state
        (``Loss.state``) and of what is asked of it — ``(state, first,
        last)`` for a read window (:meth:`_window`), ``(state, "write",
        slot)`` for the plan of a lost slot a write recovers, ``(state,
        "rebuild", disk)`` for a rebuild or scrub repair
        (:meth:`_repair`).  Like :meth:`_loss`, the key is the whole
        input, so no entry goes stale.  At most
        :data:`DEGRADED_MEMO_SIZE` entries are kept; a full memo starts
        over.  An entry keeps its plan alive after the plan cache drops
        it, so a full memo may hold that many plans: on HV@11 a read
        window's entry, plan and native schedule included, averaged
        1.5 KiB over every one-disk window of up to ten cells and was at
        most 9.8 KiB (ten cells, two disks lost; ``tracemalloc``), so a
        full memo holds at most ≈ 20 MiB and typically ≈ 3 MiB.
        Readers sharing a store may race to build one entry; they build
        equal values, so whichever lands is right.
        """
        entry = self._degraded.get(key)
        if entry is None:
            entry = build(*args)
            if len(self._degraded) >= DEGRADED_MEMO_SIZE:
                self._degraded.clear()
            self._degraded[key] = entry
        return entry

    def _repair(
        self, loss: Loss, disk: int | None
    ) -> tuple[XorPlan, np.ndarray, CellSlots]:
        """What :meth:`_rebuild_stripe` needs for a stripe in ``loss``:
        the ``read`` plan of ``disk``'s column (none when ``disk`` is
        None) and of the latent cells, those slots as an index array,
        and the CRC rows of the plan's outputs."""
        column = self._columns[disk] if disk is not None else ()
        slots = tuple(sorted({*column, *loss.latent}))
        return (
            self._read_plan(loss, slots),
            np.array(slots, dtype=np.intp),
            CellSlots(range(len(slots))),
        )

    def _loss(self, stripe: Stripe) -> Loss:
        """``stripe``'s lost, erased and latent slots.

        Memoised by the value of its state (``state.tobytes()``), not by
        stripe: the key *is* the state, so nothing is kept beside it and
        nothing can go stale.  At most :data:`LOSS_MEMO_SIZE` states are
        kept; a full memo starts over.
        """
        state = stripe.state
        key = state.tobytes()
        loss = self._losses.get(key)
        if loss is None:
            slots = tuple(np.flatnonzero(state).tolist())
            latent = frozenset(np.flatnonzero(state == LATENT).tolist())
            lost = frozenset(slots)
            loss = Loss(slots, lost, lost - latent, latent, key)
            if len(self._losses) >= LOSS_MEMO_SIZE:
                self._losses.clear()
            self._losses[key] = loss
        return loss

    def _read_plan(
        self, loss: Loss, wanted: tuple[int, ...], free: tuple[int, ...] = ()
    ) -> "XorPlan":
        """The compiled ``read`` plan of the lost slots ``wanted`` — its
        erasure pattern a stripe's erased and latent cells (its ``loss``)
        and ``wanted``, the readable slots ``free`` fetched anyway.  A
        pattern the compiler rejects is beyond the code:
        :class:`UnrecoverableFaultError`.

        ``wanted`` and ``free`` are ascending distinct slots, and the
        pattern goes out canonical — ``free`` only beside a lone lost
        column, the one erasure it prices — so the compiler's probe
        answers it with one lookup.  Every degraded path asks for its
        plan through the state-keyed memo (:meth:`_memo`): a read window
        (:meth:`_window`), a lost slot a write recovers, a rebuild or a
        scrub repair (:meth:`_repair`), so a warm one pays no lookup.
        """
        erasure = loss.slots
        if not loss.lost.issuperset(wanted):  # a cell a read cannot fetch is lost to it
            erasure = tuple(sorted({*erasure, *wanted}))
        if free and erasure != self._columns[erasure[0] % self._cols]:
            free = ()  # only a lone lost column's plan prices them
        try:
            return self._compiler.compile_plan(
                self.code, "read", (erasure, wanted, free)
            )
        except PlanError as exc:
            raise UnrecoverableFaultError(str(exc)) from exc

    def _planned(
        self, stripe: Stripe, plan: "XorPlan", stats: IOStats | None = None
    ) -> np.ndarray:
        """The bytes of ``plan.outputs``, one row each, the live stripe
        left untouched (readers may share it).  On ``engine="python"``
        the oracle decodes a copy of the stripe instead of running the
        plan; every counter is the plan's either way.
        """
        self.healing.chain_repairs += len(plan.outputs)
        return self._backend.gather(self.code, plan, stripe, stats=stats)

    # -- byte I/O ----------------------------------------------------------------

    def read(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset`` (degraded reads included).

        A read writes no stripe (bar the flush a cached stripe needs
        before parity can recover one of its cells), so readers may
        share a store: lost elements are computed into scratch by their
        stripe's read plan (:meth:`_read_stripe`), and one ``bytes.join``
        copies every byte once.
        """
        if type(offset) is not int or type(size) is not int:
            offset, size = _index(offset, "offset"), _index(size, "size")
        if offset < 0 or size < 0:
            raise InvalidParameterError("offset and size must be >= 0")
        element_index, within = divmod(offset, self.element_size)
        if self.injector is None and 0 < size <= self.element_size - within:
            # Inside one element with no fault clock to advance, the
            # small-read hot path: a readable cell is one ledger charge
            # and one copy.  Everything else (and a range beyond
            # capacity) takes the general loop, which agrees with this.
            stripe_idx, slot = divmod(element_index, self._eps)
            if stripe_idx < len(self.stripes):
                stripe = self.stripes[stripe_idx]
                r, c = self._data_positions[slot]
                if not stripe.state[r, c]:
                    self.stats.record_read(c)
                    return stripe.data[r, c, within : within + size].tobytes()
        stripe_bytes = self._eps * self.element_size
        if offset + size > len(self.stripes) * stripe_bytes:
            raise InvalidParameterError(
                f"read [{offset}, {offset + size}) beyond capacity {self.capacity}"
            )
        pieces: list = []
        stripe_idx, start = divmod(offset, stripe_bytes)
        while size > 0:
            stop = min(start + size, stripe_bytes)
            self._read_stripe(stripe_idx, start, stop, pieces)
            size -= stop - start
            stripe_idx, start = stripe_idx + 1, 0
        return b"".join(pieces)

    def _read_stripe(self, stripe_idx: int, start: int, end: int, pieces: list) -> None:
        """Append bytes ``[start, end)`` of one stripe's data cells to
        ``pieces``, one buffer per cell: readable cells sliced out of the
        stripe's flat byte view, lost ones out of the rows one read plan
        computes — Fig. 7's minimal read set with one disk down (the
        readable cells read anyway count as free), the decode schedule
        sliced to the lost cells otherwise.  The ledger is charged the
        requested readable cells plus the plan's extra reads, never a
        lost cell: the plans :meth:`RAID6Volume.degraded_read` prices.

        With no injector, what the window needs — plan, lost positions,
        disks charged (:meth:`_window`) — is memoised by the stripe's
        state and the window (:meth:`_memo`), so a warm degraded read
        makes one ``gather`` call and one ledger call; a stripe that has
        lost nothing asks for no entry.  A cached stripe with a lost
        cell in the window is flushed first and its state read again,
        since the fold may heal a latent parity.  An injector's clock
        tick may flip, or zero with a disk crash, a cell already taken,
        so with one attached each cell's state is read after its tick,
        its bytes are copied out at once and the window is built from
        those states, uncached; otherwise the pieces are views, which
        :meth:`read` copies.
        """
        es, stripe, injector = self.element_size, self.stripes[stripe_idx], self.injector
        cells = memoryview(stripe.data).cast("B")
        first, last = start // es, (end - 1) // es + 1
        slots = self._data_slots[first:last]
        at = len(pieces)  # where the window's first piece goes
        unread: list[int] = []
        for k, slot in enumerate(slots, first):
            lo = start - k * es if k == first else 0
            hi = end - k * es if k == last - 1 else es
            piece = cells[slot * es + lo : slot * es + hi]
            if injector is not None:
                # a cell whose transient window outlasted the retries is lost to it
                served = self._element_io(stripe_idx, divmod(slot, self._cols), "read")
                if not served or stripe.state.flat[slot]:
                    unread.append(slot)
                    if self.cache is not None and stripe_idx in self.cache:
                        # Parity-based recovery needs the deferred deltas in.
                        self._flush_stripe(stripe_idx)
                    piece = b""  # its row of the plan lands here
                else:
                    piece = piece.tobytes()
            pieces.append(piece)
        if injector is None:
            state = stripe.state.tobytes()
            if state == self._intact:
                self.stats.record_reads(self._data_disks[first:last])
                return
            if (
                self.cache is not None
                and stripe_idx in self.cache
                and not self._loss(stripe).lost.isdisjoint(slots)
            ):
                # Parity-based recovery needs the deferred deltas in, and
                # their fold may heal a latent parity: the key is the
                # state after it.
                self._flush_stripe(stripe_idx)
                state = stripe.state.tobytes()
            key = (state, first, last)
            window = self._degraded.get(key) or self._memo(
                key, self._window, self._loss(stripe), slots
            )
        else:
            window = self._window(self._loss(stripe), slots, unread)
        plan, lost, disks = window
        if plan is not None:
            rows = memoryview(self._planned(stripe, plan, self.stats)).cast("B")
            for i, j in enumerate(lost):
                k = first + j
                lo = start - k * es if j == 0 else 0
                hi = end - k * es if k == last - 1 else es
                pieces[at + j] = rows[i * es + lo : i * es + hi]
        self.stats.record_reads(disks)

    def _window(
        self, loss: Loss, slots: tuple[int, ...], unread: Collection[int] | None = None
    ) -> Window:
        """What reading the data cells ``slots`` (one stripe's, ascending)
        of a stripe in ``loss`` takes when the cells ``unread`` — by
        default the lost ones — cannot be read: the ``read`` plan that
        computes them with the others free, their positions, and the
        disks the ledger is charged (the readable cells and the plan's
        reads).  A cell an injector's crash erased after it was read
        was read, but is no longer a free source for the plan.
        """
        if unread is None:
            unread = loss.lost
        cols = self._cols
        lost = tuple([k for k, slot in enumerate(slots) if slot in unread])
        if not lost:
            return Window(None, (), tuple([slot % cols for slot in slots]))
        free = tuple([slot for slot in slots if slot not in unread])  # read anyway
        readable = tuple([slot for slot in free if slot not in loss.lost])
        plan = self._read_plan(loss, tuple([slots[k] for k in lost]), readable)
        if len(plan.pattern[2]) == len(free):  # the plan priced them all
            disks = plan.derived("fetched_disks", _fetched_disks)
        else:
            disks = [slot % cols for slot in {*free, *plan.reads}]
        return Window(plan, lost, tuple(disks))

    def write(self, offset: int, data) -> None:
        """Write ``data``, any bytes-like object, at ``offset``, growing
        the store as needed; a buffer of another item format or shape
        lands as its C-order bytes."""
        if type(offset) is not int:
            offset = _index(offset, "offset")
        if offset < 0:
            raise InvalidParameterError("offset must be >= 0")
        try:
            view = memoryview(data)
        except TypeError:
            raise InvalidParameterError(
                f"write takes a bytes-like payload, not {type(data).__name__}"
            ) from None
        if not view.c_contiguous:
            view = memoryview(view.tobytes())
        if view.ndim != 1 or view.format != "B":
            view = view.cast("B")  # the store moves bytes, whatever they were
        size = view.nbytes
        if not size:
            return
        stripe_bytes = self._eps * self.element_size
        if offset + size > len(self.stripes) * stripe_bytes:
            self._ensure_capacity(offset + size)  # rare: past ``capacity``
        # Stripe by stripe from one ``divmod``; a slice past the end of
        # ``view`` clips to it.
        stripe_idx, start = divmod(offset, stripe_bytes)
        at = 0
        while at < size:
            stop = at + stripe_bytes - start
            self._write_stripe(stripe_idx, start, view[at:stop])
            at, stripe_idx, start = stop, stripe_idx + 1, 0

    # -- the write path, one stripe at a time -------------------------------------

    def _write_stripe(self, stripe_idx: int, start: int, view: memoryview) -> None:
        """Write ``view`` over bytes ``[start, start + view.nbytes)`` of one
        stripe's data cells."""
        stripe = self.stripes[stripe_idx]
        if self.injector is not None:
            es = self.element_size
            for pos in self._data_positions[start // es : (start + view.nbytes - 1) // es + 1]:
                self._element_io(stripe_idx, pos, "write")
        if self.cache is None:
            self._write_stripe_rmw(stripe_idx, start, view)
        elif not stripe.any_faults():
            self._write_stripe_cached(stripe_idx, start, view)
        else:
            # Stale deferred parity must land before the write recovers
            # a lost cell's old value through it.
            if stripe_idx in self.cache:
                self._flush_stripe(stripe_idx)
            self._write_stripe_rmw(stripe_idx, start, view)

    def _write_stripe_cached(self, stripe_idx: int, start: int, view: memoryview) -> None:
        """Write-back: land the data bytes now, defer the parity delta.

        Write-ahead discipline: the intent flag (the first-touched
        slots) is fully framed *before* the first data byte mutates, so
        recovery can re-derive the stripe's parity from whatever data
        landed; a crash mid-frame loses the write atomically.
        """
        cache = self.cache
        assert cache is not None
        es = self.element_size
        end = start + view.nbytes
        first, last = start // es, (end - 1) // es + 1
        slots = self._data_slots[first:last]
        entry = cache.entry(stripe_idx)
        # Every copy goes through the stripe's one flat byte view, not a
        # numpy assignment: numpy drops the GIL for copies above 500
        # elements, and a waiting thread would take it mid-op
        # (docs/ENGINE.md).
        cells = memoryview(self.stripes[stripe_idx].data).cast("B")
        old = entry.old
        fresh = [slot for slot in slots if slot not in old]
        if fresh:
            if self.journal is not None:
                self._journal_intent(stripe_idx, fresh)
            entry.snapshot(cells, fresh, es)
            cols = self._cols
            self.stats.record_reads([slot % cols for slot in fresh])  # the RMW old-data reads
        # Data element ``k`` sits ``(slot - k) * es`` bytes further on in
        # ``cells`` than in the stripe's data space.
        at = start
        for k, slot in enumerate(slots, first):
            stop = (k + 1) * es
            if stop > end:
                stop = end
            shift = (slot - k) * es
            cells[at + shift : stop + shift] = view[at - start : stop - start]
            at = stop
        self.stats.record_writes(self._data_disks[first:last])
        self.data_writes += last - first
        if self._crash_hook is not None:
            self._crash_hook("data-write")
        if self.injector is not None:
            over = len(cache) - cache.capacity
            if over > 0:
                self._ping_flush_io(cache.items()[:over])
        evicted = cache.evict_over_capacity()
        if evicted:
            self._flush_entries(evicted)
        else:
            self._maybe_checkpoint()  # a flush ends in one too

    def _write_stripe_rmw(self, stripe_idx: int, start: int, view: memoryview) -> None:
        """Immediate read-modify-write: the same plans :meth:`RAID6Volume.write` prices.

        Only the old values the disks cannot return are computed — of a
        written cell that is lost, through its own read plan (Fig. 7's
        cheapest chain with one disk down), and of a latent parity — then
        the new bytes land and :meth:`_fold` runs the compiled ``update``
        plan, so each dirtied parity is read and rewritten once however
        many written cells share it.  On a healthy stripe nothing is lost
        and this is the plain small write.  A lost written cell's CRC
        becomes its new content, which the parity now decodes to; every
        unwritten cell keeps its CRC, so a silent flip stays on record
        for scrub and rebuild.  Bytes move through the stripe's flat byte
        view; an erased written cell's delta is the one numpy XOR.
        """
        stripe = self.stripes[stripe_idx]
        es, cols = self.element_size, self._cols
        end = start + view.nbytes
        first, last = start // es, (end - 1) // es + 1
        # The written slots, ascending and distinct as ``data_positions``
        # lays them out: the canonical pattern, one probe.
        slots = self._data_slots[first:last]
        if self.journal is not None:
            # Recovery re-derives what parity the surviving chains allow.
            self._journal_intent(stripe_idx, slots)
        plan = self._compiler.compile_plan(self.code, "update", slots)
        loss = self._loss(stripe)
        cells = memoryview(stripe.data).cast("B")
        olds: dict[int, np.ndarray] = {}
        extra: set[int] = set()
        latent_parities = loss.latent.intersection(plan.outputs)
        for slot in loss.lost.intersection(slots).union(latent_parities):
            read = self._memo((loss.state, "write", slot), self._read_plan, loss, (slot,))
            olds[slot] = self._planned(stripe, read, self.stats)[0]
            extra.update(read.reads)
        for slot in latent_parities:  # healed by the fold's rewrite
            cells[slot * es : (slot + 1) * es] = olds[slot]
        # What each written slot held, as the fold's delta build sees it
        # (``live ⊕ pre``): an erased cell's slot stays zero, so its
        # pre-image is the whole delta.
        pre: dict[int, bytes | np.ndarray] = {}
        erased_news: dict[int, bytearray] = {}
        landed: list[int] = []
        for k, slot in enumerate(slots, first):
            lo = start - k * es if k == first else 0
            hi = end - k * es if k == last - 1 else es
            piece = view[k * es + lo - start : k * es + hi - start]
            base = slot * es
            if slot not in olds:
                pre[slot] = cells[base : base + es].tobytes()
            elif slot in loss.erased:
                new = erased_news[slot] = bytearray(olds[slot])
                new[lo:hi] = piece
                pre[slot] = olds[slot] ^ np.frombuffer(new, dtype=np.uint8)
                continue
            else:  # latent: its recovered value lands under the payload
                pre[slot] = olds[slot]
                cells[base : base + es] = olds[slot]
                stripe.state.flat[slot] = HEALTHY
            cells[base + lo : base + hi] = piece
            landed.append(slot % cols)
        self._crash_point("data-write")
        self._fold(plan, (stripe_idx,), (pre,), loss if loss.slots else None)
        for slot, new in erased_news.items():
            self.sidecar.record(stripe_idx, divmod(slot, cols), new)
        self.stats.record_reads(landed)
        self.stats.record_writes(landed)
        if extra:
            self.stats.record_reads([s % cols for s in extra.difference(slots)])
        self.data_writes += len(landed)
        self._journal_commit(stripe_idx)
        self._maybe_checkpoint()

    # -- the flush path: deferred parity deltas land in batches --------------------

    def flush(self) -> int:
        """Flush every dirty stripe's deferred parity; return how many.

        Must not interleave with another structural op from a second
        thread (see :meth:`_exclusive`).
        """
        if self.cache is None or not len(self.cache):
            return 0
        with self._exclusive("flush"):
            self._crash_point("flush-start")
            self._ping_flush_io(self.cache.items())
            return self._flush_entries(self.cache.pop_all())

    def _flush_stripe(self, stripe_idx: int) -> None:
        assert self.cache is not None
        entry = self.cache.peek(stripe_idx)
        if entry is not None:
            self._ping_flush_io([(stripe_idx, entry)])
        entry = self.cache.pop(stripe_idx)
        if entry is not None:
            self._flush_entries([(stripe_idx, entry)])

    def _ping_flush_io(self, entries: list[tuple[int, DirtyStripe]]) -> None:
        """Advance the injector's clock once per dirty element to flush.

        Runs *before* the entries are popped: a fired whole-disk crash
        calls :meth:`fail_disk`, which reentrantly flushes the still-
        cached entries while every column is present — deferred parity
        lands first, the erasure follows, and the write hole stays
        closed.  Entries drained by such a reentrant flush are skipped
        for the remaining pings (and the caller's subsequent pop finds
        them gone).
        """
        if self.injector is None:
            return
        for idx, entry in entries:
            for slot in entry.pattern():
                if idx not in self.cache:
                    break  # a reentrant flush already landed this entry
                self._element_io(idx, divmod(slot, self._cols), "flush")

    def _flush_entries(self, entries: list[tuple[int, DirtyStripe]]) -> int:
        """Land deferred parity for the given dirty stripes.

        Healthy stripes sharing a dirty pattern are grouped, in pattern
        order, and each group is folded under a single compiled
        ``update`` plan (:meth:`_fold`, the entries' ``old`` maps being
        its pre-images) or re-encoded when the cost model prefers it
        (:func:`~repro.engine.compile.choose_update_strategy`), on every
        engine; a lone eviction is a group of one.  A stripe with a lost
        or latent cell is folded alone, first.  Its pre-images are the
        cache's first-touch snapshots, except for a dirty data cell
        erased before its parity landed — the genuine write hole: the
        new bytes died with the disk, so its pre-image is its zeroed
        slot, its delta is zero and its CRC keeps the pre-image's; the
        cell's logical content stays the old data, which is what
        decoding the untouched parity reconstructs.

        An attached injector's clock was already advanced per dirty
        element by :meth:`_ping_flush_io` before these entries were
        popped.  Each flushed stripe is journal-committed once its
        parity and sidecars are durable.
        """
        groups: dict[tuple[int, ...], list[tuple[int, DirtyStripe]]] = {}
        flushed = 0
        for idx, entry in entries:
            if not entry.old:
                continue
            flushed += 1
            pattern = entry.pattern()
            stripe = self.stripes[idx]
            if stripe.any_faults():
                # A lost or latent cell cannot feed a re-encode.
                plan = self._compiler.compile_plan(self.code, "update", pattern)
                loss, flat = self._loss(stripe), stripe.flat_view()
                pre = {
                    slot: flat[slot] if slot in loss.erased else old
                    for slot, old in entry.old.items()
                }
                self._fold(plan, (idx,), (pre,), loss)
                self._journal_commit(idx)
                self.stats.record_flush(len(pattern))
            else:
                groups.setdefault(pattern, []).append((idx, entry))
        for pattern, group in sorted(groups.items()) if len(groups) > 1 else groups.items():
            strategy, plan = self._compiler.choose_update_strategy(self.code, pattern)
            if strategy == "reencode":
                self._flush_group_reencode(pattern, group)
                continue
            indices = [idx for idx, _ in group]
            self._fold(plan, indices, [entry.old for _, entry in group])
            for idx in indices:
                self._journal_commit(idx)
            self.stats.record_flush(len(group) * len(pattern))
        self._maybe_checkpoint()
        return flushed

    def _flush_group_reencode(
        self, pattern: tuple[int, ...], group: list[tuple[int, DirtyStripe]]
    ) -> None:
        """Mostly-dirty stripes: re-encoding beats the delta chain walk."""
        dirty_cells = tuple(divmod(slot, self._cols) for slot in pattern)
        parities = self.code.parity_positions
        # the clean inputs of the encode, and what it rewrites
        dirty = set(dirty_cells)
        clean_disks = [c for r, c in self._data_positions if (r, c) not in dirty]
        parity_disks = [c for _, c in parities]
        for idx, entry in group:
            stripe = self.stripes[idx]
            self.stats.record_reads(clean_disks)
            self.code.encode(stripe, engine=self.engine)
            self._crash_point("parity-write")
            self.sidecar.record_stripe(idx, stripe, dirty_cells + parities)
            self.stats.record_writes(parity_disks)
            self.parity_writes += len(parities)
            self._journal_commit(idx)
        self.stats.record_flush(len(group) * len(dirty_cells))

    # -- the one parity fold -----------------------------------------------------

    def _fold(
        self,
        plan: "XorPlan",
        indices: "Sequence[int]",
        pres: "Sequence[Mapping[int, bytes | np.ndarray]]",
        loss: Loss | None = None,
    ) -> None:
        """Fold an ``update`` plan's parity deltas into stripes ``indices``.

        Each stripe's pattern cells already hold their new bytes;
        ``pres[i]`` maps every slot of ``plan.pattern`` to what stripe
        ``indices[i]`` held there before, so ``live ⊕ pre`` is the delta.
        The engine's :meth:`~repro.engine.backends.KernelBackend.update`
        computes them — a kernel backend runs the compiled plan, the
        ``python`` oracle walks the chains
        (:meth:`ArrayCode.apply_parity_deltas`) — and re-checksums the
        touched cells into the stripes' sidecar rows.

        Every parity is read and rewritten — except, given the ``loss`` of
        one stripe with lost or latent cells (a flush group has none), a
        parity on a failed disk.  Its slot is zero (:meth:`Stripe.erase`),
        so it holds exactly its delta, which nested chains saw; its disk
        is neither read nor written, its CRC advances by that delta (CRC32
        is affine over XOR) and the slot is zeroed again.  A latent parity
        is healed by its rewrite.  An erased pattern cell keeps its CRC;
        its new one, the data side of the ledger and the journal commit
        are the caller's.
        """
        stripes = [self.stripes[idx] for idx in indices]
        sums = [self.sidecar.stripes[idx] for idx in indices]
        # An erased slot's CRC from before the call: a pattern cell's
        # goes back as it was, a parity's (its slot holds its delta)
        # advances by it, crc(x ⊕ δ) = crc(x) ⊕ crc(δ) ⊕ crc(0ⁿ).
        before = sums[0].copy().flat if loss is not None else None
        self._backend.update(self.code, plan, stripes, pres, stats=self.stats, sums=sums)
        if self._crash_hook is not None:
            self._crash_hook("parity-write")
        rewritten = plan.derived("parity_disks", _parity_disks)
        if loss is not None:  # one stripe's, with lost or latent cells
            (stripe,), crcs, es = stripes, sums[0].flat, self.element_size
            for s in loss.erased.intersection(plan.pattern):
                crcs[s] = before[s]
            for s in loss.erased.intersection(plan.outputs):
                crcs[s] ^= before[s] ^ _zeros_crc(es)
                memoryview(stripe.data).cast("B")[s * es : (s + 1) * es] = bytes(es)
            for s in loss.latent.intersection(plan.outputs):
                stripe.state.flat[s] = HEALTHY  # healed by its rewrite
            rewritten = [s % self._cols for s in plan.outputs if s not in loss.erased]
        for _ in stripes:
            self.stats.record_reads(rewritten)
            self.stats.record_writes(rewritten)
            self.parity_writes += len(rewritten)

    def __repr__(self) -> str:
        dirty = len(self.cache) if self.cache is not None else 0
        return (
            f"FileStore(code={self.code.name}, stripes={len(self.stripes)}, "
            f"capacity={self.capacity}, failed={sorted(self.failed_disks)}, "
            f"dirty={dirty})"
        )


def _fetched_disks(plan: "XorPlan") -> list[int]:
    """The disk of every cell a ``read`` plan that prices its free cells
    fetches: the free cells and the plan's reads, each once."""
    return [slot % plan.cols for slot in {*plan.pattern[2], *plan.reads}]


def _parity_disks(plan: "XorPlan") -> list[int]:
    """The disks :meth:`FileStore._fold` rewrites on a healthy stripe."""
    return [c for _, c in plan.output_positions]


def _index(value, what: str) -> int:
    """``value`` as the ``int`` it stands for (``operator.index``); a
    float, a string or ``None`` is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(
            f"{what} must be an integer, not {type(value).__name__}"
        ) from None
