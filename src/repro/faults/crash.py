"""The kill-anywhere crash harness: deterministic power cuts.

The journal's durability contract — *a write is durable once its data
bytes landed under a fully-framed intent flag* — is only worth
anything if it holds at **every** instruction boundary, not just the
convenient ones.  This module makes that exhaustive check cheap:

- :class:`CrashingStore` wraps a :class:`~repro.array.filestore.
  FileStore` and raises :class:`~repro.exceptions.CrashError` at the
  N-th durable-I/O boundary (the store's ``crash_hook`` fires at every
  journal half-frame, data landing, flush start, parity landing,
  journal trim, and rolled-back element — see
  :meth:`FileStore._crash_point`).
- :func:`run_crash_scenario` replays a seeded write trace (ended by
  a flush, or by the error exit's ``discard_dirty``), kills the
  store at one scheduled boundary, reopens it with
  :meth:`FileStore.reopen_from`, and differentially checks the
  recovered image against a **write-through oracle** that applied
  exactly the durable writes of the trace.
- :func:`crash_matrix` does that for *every* boundary of the flushed
  trace, of the same trace's rollback, and of a trace across a journal
  compaction: first a clean run counts the boundaries, then one
  scenario per crash index.  The result is a deterministic summary
  the crash-bench pins by hash.

Which writes are durable?  If the crash fired at one of the in-flight
write's own intent-frame boundaries (``journal-intent-mid`` or
``journal-intent``), its data had not landed yet and the write is
lost; from the ``data-write`` boundary on — and at every later site
inside an eviction, flush or compaction (whose re-logged intents fire
as ``journal-compact*`` for exactly this reason) — it is durable.  A
rollback takes back a stripe's writes since its last commit: all of
them once its DISCARD frame is whole (``journal-discard`` fired), none
before.  The traces used here keep each write inside a single element
precisely so that per-op site bookkeeping stays exact.

No wall clocks, no unseeded randomness: every scenario is a pure
function of (code, trace, crash index), which is what lets CI diff the
whole matrix as a single hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import CrashError, InvalidParameterError
from ..journal.log import FLAG_BYTES
from ..journal.recovery import RecoveryReport
from ..utils import RandomState, resolve_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..array.filestore import FileStore
    from ..codes.base import ArrayCode

#: Crash sites at which the in-flight write is NOT yet durable: its
#: intent frame was being (or had just been) appended, but its data
#: had not landed.  Commit/discard frames carry their own site labels,
#: so membership here is exact.
INTENT_SITES = ("journal-intent-mid", "journal-intent")


class CrashingStore:
    """A store wrapper that loses power at a scheduled I/O boundary.

    Every method call is delegated to the wrapped store; the store's
    ``crash_hook`` is pointed here so each durable-I/O boundary bumps
    :attr:`boundaries` (and is appended to :attr:`trace`).  When the
    bump reaches ``crash_at``, :class:`CrashError` propagates out of
    whatever operation was in flight — the caller must treat the
    wrapped store as dead and reopen it via ``FileStore.reopen_from``.
    With ``crash_at=None`` the wrapper only counts (the clean run that
    sizes an exhaustive matrix).
    """

    def __init__(self, store: "FileStore", crash_at: int | None = None) -> None:
        self.store = store
        self.crash_at = crash_at
        self.boundaries = 0
        self.trace: list[str] = []
        self.crashed_at: tuple[int, str] | None = None
        store.crash_hook = self._boundary

    def _boundary(self, site: str) -> None:
        index = self.boundaries
        self.boundaries += 1
        self.trace.append(site)
        if self.crash_at is not None and index == self.crash_at:
            self.crashed_at = (index, site)
            raise CrashError(
                f"simulated power cut at I/O boundary {index} ({site})"
            )

    def __getattr__(self, name: str):
        return getattr(self.store, name)

    def __enter__(self) -> "CrashingStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Never auto-flush: after a scheduled crash the wrapped store
        # is dead; before one, the scenario drives flushes explicitly.
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CrashingStore(boundaries={self.boundaries}, "
            f"crash_at={self.crash_at}, crashed={self.crashed_at})"
        )


WriteOp = tuple[int, bytes]


def seeded_write_trace(
    code: "ArrayCode",
    element_size: int,
    ops: int,
    seed: RandomState = 0,
    stripe_span: int = 3,
) -> list[WriteOp]:
    """A deterministic single-element write workload.

    Each op stays inside one element (offset and size drawn so the
    write never straddles a boundary), which keeps the durable-prefix
    bookkeeping exact: every site the op fires belongs to that op
    alone.  Offsets span ``stripe_span`` stripes so intent absorption,
    eviction, and multi-stripe flushes all occur.
    """
    if ops <= 0:
        raise InvalidParameterError("ops must be positive")
    rng = resolve_rng(seed)
    elements = stripe_span * code.data_elements_per_stripe
    trace: list[WriteOp] = []
    for _ in range(ops):
        element = int(rng.integers(0, elements))
        within = int(rng.integers(0, element_size))
        size = int(rng.integers(1, element_size - within + 1))
        payload = bytes(rng.integers(0, 256, size, dtype=np.uint8))
        trace.append((element * element_size + within, payload))
    return trace


@dataclass
class CrashScenarioResult:
    """One kill → reopen → recover → differential check."""

    crash_at: int | None
    crashed: bool
    site: str | None
    boundaries: int
    #: every boundary the run crossed, in order (the crash site last)
    sites: list[str]
    #: how many trace writes survive the crash (landed and not rolled back)
    durable_writes: int
    report: RecoveryReport
    byte_identical: bool
    parity_consistent: bool
    checksums_clean: bool

    @property
    def ok(self) -> bool:
        return self.byte_identical and self.parity_consistent and self.checksums_clean


def _make_store(code, element_size, cache_stripes, engine) -> "FileStore":
    from ..array.filestore import FileStore

    return FileStore(
        code,
        element_size=element_size,
        engine=engine,
        cache_stripes=cache_stripes,
    )


def run_crash_scenario(
    code: "ArrayCode",
    trace: list[WriteOp],
    crash_at: int | None,
    *,
    element_size: int = 16,
    cache_stripes: int = 2,
    engine: str = "fused",
    rollback: bool = False,
) -> CrashScenarioResult:
    """Kill a journaled store at one boundary and verify recovery.

    The trace ends in a flush, or with ``rollback`` in the error exit.
    The oracle is a plain write-through python-engine store replaying
    exactly the durable writes of the trace; the recovered image must
    match it stripe for stripe (data *and* parity *and* CRC sidecars).
    """
    from ..array.filestore import FileStore

    store = _make_store(code, element_size, cache_stripes, engine)
    wrapper = CrashingStore(store, crash_at=crash_at)
    applied = 0
    crashed = False
    cached = store.cache if store.cache is not None else ()
    #: per cached stripe, the writes landed since its last commit
    uncommitted: dict[int, list[int]] = {}
    order: list[int] = []
    try:
        for i, (offset, payload) in enumerate(trace):
            wrapper.write(offset, payload)
            applied += 1
            uncommitted.setdefault(offset // store.bytes_per_stripe, []).append(i)
            uncommitted = {s: w for s, w in uncommitted.items() if s in cached}
        if rollback:
            order = [idx for idx, _ in store.cache.items()] if cached else []
            wrapper.discard_dirty()
        else:
            wrapper.flush()
    except CrashError:
        crashed = True
    # A rollback takes stripes in cache order, and each is undone from
    # the instant its DISCARD frame is whole (only a rollback fires it).
    announced = wrapper.trace.count("journal-discard")
    undone = {i for idx in order[:announced] for i in uncommitted[idx]}
    site = wrapper.crashed_at[1] if wrapper.crashed_at else None
    durable = applied
    if crashed and applied < len(trace) and site not in INTENT_SITES:
        # The in-flight write's data landed before the lights went
        # out: recovery owes us that write too.
        durable = applied + 1
    recovered, report = FileStore.reopen_from(store)

    oracle = FileStore(code, element_size=element_size, engine="python")
    for i, (offset, payload) in enumerate(trace[:durable]):
        if i not in undone:
            oracle.write(offset, payload)
    # A torn final intent can leave the crashed store grown past the
    # oracle (capacity grows before the intent is framed).
    oracle._ensure_capacity(recovered.capacity)
    recovered._ensure_capacity(oracle.capacity)

    byte_identical = all(
        a == b for a, b in zip(recovered.stripes, oracle.stripes)
    ) and len(recovered.stripes) == len(oracle.stripes)
    parity_consistent = recovered.scrub() == []
    checksums_clean = recovered.scrub_checksums(repair=False).clean
    return CrashScenarioResult(
        crash_at=crash_at,
        crashed=crashed,
        site=site,
        boundaries=wrapper.boundaries,
        sites=wrapper.trace,
        durable_writes=durable - len(undone),
        report=report,
        byte_identical=byte_identical,
        parity_consistent=parity_consistent,
        checksums_clean=checksums_clean,
    )


def _trace_across_compaction(code, seed, **options) -> list[WriteOp]:
    """The seeded trace up to its first journal compaction, plus two
    more writes that land over the compacted device."""
    store = _make_store(code, **options)
    # Spread over four times the cache few writes are absorbed, and the
    # rest each append more than their one flag: these cross the bound.
    ops, span = store.journal_bound // FLAG_BYTES, 4 * options["cache_stripes"]
    trace = seeded_write_trace(code, options["element_size"], ops, seed, span)
    for done, (offset, payload) in enumerate(trace, start=1):
        store.write(offset, payload)
        if store.journal.device.truncations:  # the cache never drains: a trim
            return trace[: done + 2]
    raise CrashError(f"{code.name}: {len(trace)} writes never compacted the journal")


@dataclass
class CrashMatrixResult:
    """Every scheduled boundary of one code's runs, killed once each."""

    code: str
    boundaries: int
    scenarios: list[CrashScenarioResult] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(s.ok for s in self.scenarios)

    def site_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for s in self.scenarios:
            if s.site is not None:
                hist[s.site] = hist.get(s.site, 0) + 1
        return dict(sorted(hist.items()))

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "boundaries": self.boundaries,
            "all_ok": self.all_ok,
            "sites": self.site_histogram(),
            "failures": [
                {"crash_at": s.crash_at, "site": s.site}
                for s in self.scenarios
                if not s.ok
            ],
            "stripes_repaired": sum(
                s.report.stripes_repaired for s in self.scenarios
            ),
            "pieces_redone": sum(s.report.pieces_redone for s in self.scenarios),
            "torn_records": sum(
                1 for s in self.scenarios if s.report.torn_bytes
            ),
        }


def crash_matrix(
    code: "ArrayCode",
    *,
    element_size: int = 16,
    cache_stripes: int = 2,
    engine: str = "fused",
    ops: int = 10,
    seed: RandomState = 0,
) -> CrashMatrixResult:
    """Kill one store per durable-I/O boundary and verify each recovery.

    Three runs, each first executed cleanly to count its boundaries
    and then killed once per index: the seeded trace ended by a flush
    (every boundary); the same trace ended by the error exit (the
    rollback's boundaries — the earlier ones are the first run's); and
    a trace across a journal compaction (from the first re-logged
    intent on: around the trim, then two writes and the flush over the
    compacted device).  Deterministic end to end.
    """
    options = dict(element_size=element_size, cache_stripes=cache_stripes, engine=engine)
    trace = seeded_write_trace(code, element_size, ops, seed)
    runs: list[tuple[list[WriteOp], bool, str | None]] = [(trace, False, None)]
    if cache_stripes:  # nothing to roll back or compact without a cache
        long_trace = _trace_across_compaction(code, seed, **options)
        runs += [(trace, True, "journal-discard-mid"), (long_trace, False, "journal-compact-mid")]
    result = CrashMatrixResult(code=code.name, boundaries=0)
    for run_trace, rollback, first_site in runs:
        clean = run_crash_scenario(code, run_trace, None, rollback=rollback, **options)
        if not clean.ok:  # pragma: no cover - the differential base case
            raise CrashError("clean run failed its own differential check")
        start = clean.sites.index(first_site) if first_site else 0
        result.scenarios += [
            run_crash_scenario(code, run_trace, at, rollback=rollback, **options)
            for at in range(start, clean.boundaries)
        ]
    result.boundaries = len(result.scenarios)
    return result
