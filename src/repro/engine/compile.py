"""Lower a code's parity equations into executable :class:`XorPlan`\\ s.

One compiler per operation, all funneled through :func:`compile_plan`:

- ``encode`` — the chains in :attr:`ArrayCode.encode_order`, one step
  per parity cell;
- ``recover-double`` — two failed disks peeled like a ``decode``, laid
  out one dependency component after another (for HV, Algorithm 1's
  four parallel chains, in its order);
- ``decode`` — an arbitrary erasure pattern via chain peeling, with
  elimination where peeling stalls (below).
- ``update`` — a partial-stripe write: for a set of dirty data cells,
  one step per dirtied parity computing its *delta* (the XOR of the
  dirty members of its chain, nested parities included).  HV's row
  sharing and cross-row vertical-parity sharing collapse into single
  multi-source steps, and the pairwise CSE below deduplicates cell
  pairs shared between chains.
- ``read`` — a degraded read of some lost cells, pattern
  ``(erased, wanted, free)``: with one whole disk lost, the Fig. 7
  degraded-read planner (:func:`repro.recovery.single.degraded_read_choices`)
  chooses one chain per wanted cell, counting the ``free`` cells the
  request fetches anyway as already read; any other pattern runs the
  ``decode`` schedule sliced backward from the wanted cells
  (:func:`slice_plan`).  Every single-failure repair is a ``read``: a
  rebuild of disk ``d`` is ``(column, column, ())`` — Fig. 9's hybrid
  chains, one independent step per lost element — and a latent cell's
  repair is ``((cell,), (cell,), ())``.

A plan's shape is a function of its steps: :attr:`XorPlan.rounds` is
their dependency depth, and the ``groups`` of ``recover-double`` and
``update`` are their weakly connected dependency components
(:func:`_components`).

Where peeling stalls (EVENODD's S coupling, Liberation and Cauchy-RS
bit-matrix rows), one stuck cell is solved by GF(2) elimination and
peeling resumes (:func:`_solve_one`), so a ``decode`` plan exists
exactly when :meth:`ArrayCode.can_recover` holds: on a well-formed
pattern :class:`~repro.exceptions.PlanError` means beyond the code.

After lowering, :func:`eliminate_common_pairs` runs a greedy pairwise
common-subexpression elimination: the unordered source pair shared by
the most steps is hoisted into a scratch temporary, repeatedly, until
no pair occurs twice.  Only *pure inputs* (slots the plan never
writes) participate, so hoisted temporaries are computable up front
and the step order never needs repair.  On EVENODD this factors the
shared S-adjuster out of every diagonal chain.

Compiled plans are cached in a per-process LRU (:class:`PlanCache`)
keyed by code, geometry, op and pattern — compilation runs once,
execution many times.  :func:`choose_update_strategy` keeps its
decision on the update plan it priced (:meth:`XorPlan.derived`), so a
flush that repeats a dirty pattern costs one lookup and the decision
is evicted with its plan.  A pattern a caller already spells
canonically is its own key: one probe, nothing normalised (see
:func:`compile_plan`).
"""

from __future__ import annotations

import heapq
import operator
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from ..exceptions import DecodeError, InvalidParameterError, PlanError
from ..recovery.peeling import peel_schedule
from .plan import PLAN_OPS, Position, XorPlan, XorStep

if TYPE_CHECKING:  # imported lazily to avoid an engine<->codes cycle
    from ..codes.base import ArrayCode, ParityChain

#: Scratch-slot budget for common-subexpression elimination, above the
#: most any plan hoists (65, EVENODD@11 disks 0 and 4): a pair left
#: shared when it binds fails P002.
MAX_CSE_TEMPS = 128

#: Default :class:`PlanCache` capacity, sized from the update-pattern
#: space rather than the recovery one (a code has only ``cols²`` disk
#: patterns): a partial-stripe-write mix flushes a few hundred distinct
#: dirty runs per thousand ops (248-254 on the ``store-write``
#: benchmark) and replays them cyclically, LRU's worst case below that
#: count.  Byte budget, measured with tracemalloc on HV@11 over all
#: 3 240 contiguous runs of the 80-element stripe: 4.2 KB per update
#: plan with its key and strategy decision (13.7 MB in all), plus
#: 1.8 KB for the native schedule of one that has executed — about
#: 6 MB for a full cache, 1.5 MB for the benchmark's working set.
DEFAULT_PLAN_CACHE_SIZE = 1024


# -- the plan cache ---------------------------------------------------------------


@dataclass
class PlanCache:
    """A bounded LRU of compiled plans, keyed by :func:`plan_key`.

    The process-wide :data:`PLAN_CACHE` is shared by every shard of a
    :class:`~repro.service.VolumePool`, so lookups and stores take a
    small internal lock; plans themselves are immutable after
    compilation and safe to execute from any thread.

    ``hits`` counts lookups answered from the cache —
    :func:`compile_plan`'s canonical-key :meth:`probe` among them —
    ``misses`` lookups after which a plan had to be compiled.

    Two introspection hooks support the static layer:

    - ``verify=True`` turns on verify-on-compile debug mode: every
      plan :func:`compile_plan` lowers for this cache is symbolically
      proven by :func:`repro.static.planverify.verify_plan` before it
      is stored, so a compiler regression surfaces as a
      :class:`~repro.exceptions.CertificationError` at the first
      compile instead of as corrupt bytes downstream;
    - ``on_store`` (if set) is called as ``on_store(key, plan)`` after
      each store, outside the cache lock — the hook the plan auditors
      use to observe exactly what the engine will execute.
    """

    maxsize: int = DEFAULT_PLAN_CACHE_SIZE
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    verify: bool = False
    on_store: Callable[[tuple, XorPlan], None] | None = field(
        default=None, repr=False, compare=False
    )
    _plans: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.maxsize <= 0:
            raise InvalidParameterError("plan cache maxsize must be positive")

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._plans

    def lookup(self, key: tuple) -> XorPlan | None:
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def probe(self, key: tuple) -> XorPlan | None:
        """:meth:`lookup` for a key that may not be canonical: a hit
        counts as one, a miss counts nothing (the canonical lookup that
        follows it does)."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
            return plan

    def store(self, key: tuple, plan: XorPlan) -> XorPlan:
        """Cache ``plan`` under ``key`` and return the resident plan —
        the one already there when another thread compiled it first, so
        every caller executes the same object."""
        with self._lock:
            resident = self._plans.setdefault(key, plan)
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.evictions += 1
        return resident

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters, keeping cached plans."""
        with self._lock:
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, int]:
        """A snapshot of the cache counters (size, hits, misses, evictions)."""
        with self._lock:
            return {
                "size": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


#: The process-wide default cache :func:`compile_plan` uses.
PLAN_CACHE = PlanCache()


# -- the front end ----------------------------------------------------------------


def compile_plan(
    code: "ArrayCode",
    op: str,
    pattern: tuple = (),
    *,
    planner: str = "greedy",
    cse: bool = True,
    cache: PlanCache | None = PLAN_CACHE,
) -> XorPlan:
    """Compile (or fetch from cache) the plan for ``op`` on ``code``.

    ``pattern`` is op-specific: ``()`` for encode, ``(f1, f2)`` for
    double disk recovery, an iterable of erased cells for a generic
    decode or of dirty data cells for an update, and ``(erased, wanted,
    free)`` — three iterables of cells — for a read.  ``planner``
    selects the single-disk read minimizer of a ``read`` whose erasure
    is one whole column (``greedy`` is deterministic and within ~1% of
    the MILP; pass ``milp`` for the exact Fig. 9 optimum); every other
    plan is keyed under ``greedy`` whatever is passed, since the
    planner cannot shape it, so asking under two planners compiles
    and caches it once.  A cell is a
    slot ``r * cols + c`` or a ``(row, col)`` position, a disk an
    integer; anything else — a float, a string, ``None``, a bool, the
    wrong arity — raises :class:`~repro.exceptions.PlanError`.

    Canonical-key probe: a ``pattern`` already spelled as a canonical
    one (a tuple of ints, or three tuples of ints) is first tried as its
    own cache key.  That is sound because every key the cache holds was
    built from :func:`_canonical_pattern`'s output and canonicalising is
    idempotent: a hit means ``pattern == _canonical_pattern(pattern)``,
    so the plan is the one the slow path would return.  A miss falls
    through to canonicalising and the usual lookup, so every call moves
    ``hits + misses`` by exactly one.  Callers on a hot path (the
    store's degraded reads, writes and rebuilds) pass canonical
    patterns and pay one locked lookup.
    """
    if op not in PLAN_OPS:
        raise PlanError(f"unknown plan op {op!r}; known: {PLAN_OPS}")
    if cache is not None and _spelled_canonically(pattern):
        # the canonical-key probe (see above): a miss counts nothing
        plan = cache.probe(plan_key(code, op, pattern, planner, cse))
        if plan is not None:
            return plan
    canonical = _canonical_pattern(code, op, pattern)
    if planner != "greedy" and (
        op != "read" or _failed_disk(code, canonical[0]) is None
    ):
        planner = "greedy"  # it shapes only a read of one whole column
    key = plan_key(code, op, canonical, planner, cse)
    if cache is not None:
        cached = cache.lookup(key)
        if cached is not None:
            return cached
    if op == "encode":
        plan = _compile_encode(code)
    elif op == "recover-double":
        plan = _compile_double(code, canonical[0], canonical[1])
    elif op == "update":
        plan = _compile_update(code, canonical)
    elif op == "read":
        plan = _compile_read(code, canonical, planner, cache)
    else:
        plan = _compile_decode(code, canonical)
    if cse:
        plan = eliminate_common_pairs(plan)
    if cache is not None and cache.verify:
        # Lazy import: repro.static.planverify imports this module.
        from ..static.planverify import verify_plan

        verify_plan(code, plan)
    if cache is not None:
        resident = cache.store(key, plan)
        if resident is plan and cache.on_store is not None:
            cache.on_store(key, plan)
        return resident
    return plan


def plan_key(
    code: "ArrayCode",
    op: str,
    canonical: tuple,
    planner: str = "greedy",
    cse: bool = True,
) -> tuple:
    """The :class:`PlanCache` key of a plan with a canonical pattern.

    Name and ``p`` do not identify a code: Cauchy-RS reports its
    auto-chosen word size as ``p``, the same for 7 and for 11 data
    disks.  The stripe geometry tells such instances apart.
    """
    return (code.name, code.p, op, canonical, planner, cse, code.rows, code.cols)


def _canonical_pattern(code: "ArrayCode", op: str, pattern: tuple) -> tuple:
    """Normalize a pattern to the canonical cache/pin form.

    Idempotent: a canonical pattern is its own canonical form, which is
    what :func:`compile_plan`'s probe rests on.  Cell sets (``decode``,
    ``update`` and each part of ``read``) become sorted tuples of
    distinct slots, a disk pair a sorted tuple; every cell and disk is
    an exact ``int``.
    """
    pattern = _sequence(pattern, f"{op} pattern")
    if op == "encode":
        if pattern:
            raise PlanError("encode takes no erasure pattern")
        return ()
    if op == "recover-double":
        disks = tuple(sorted(_disk(code, d) for d in pattern))
        if len(disks) != 2 or disks[0] == disks[1]:
            raise PlanError("recover-double takes two distinct failed disks")
        return disks
    if op == "update":
        if not pattern:
            raise PlanError("update needs at least one dirty data cell")
        slots = _slots(code, pattern)
        for slot in slots:
            if not code.is_data(divmod(slot, code.cols)):
                raise PlanError(
                    f"{code.name}: update cell {divmod(slot, code.cols)} "
                    "is a parity element, not data"
                )
        return slots
    if op == "read":
        if len(pattern) != 3:
            raise PlanError("read takes (erased, wanted, free) cells")
        erased, wanted, free = (_slots(code, part) for part in pattern)
        if not wanted or not set(wanted) <= set(erased):
            raise PlanError("a read wants at least one cell, every one erased")
        if not set(free).isdisjoint(erased):
            raise PlanError("a read's free cells must be readable")
        # Only the single-disk planner prices the cells a request
        # fetches anyway; a sliced decode reads what its schedule reads.
        return erased, wanted, free if _failed_disk(code, erased) is not None else ()
    return _slots(code, pattern)  # decode: a set of erased cells


def _spelled_canonically(pattern) -> bool:
    """Whether ``pattern`` has a canonical pattern's spelling: a tuple
    of exact ints, or ``read``'s three tuples of exact ints.

    Only such a pattern is probed as its own key.  Python equality
    would otherwise let ``True``, ``1.0`` or a numpy integer hit the
    plan of ``1``, answering from the cache what
    :func:`_canonical_pattern` refuses.
    """
    if type(pattern) is not tuple:
        return False
    if pattern and type(pattern[0]) is tuple:  # ``read``'s three parts
        if len(pattern) != 3 or type(pattern[1]) is not tuple or type(pattern[2]) is not tuple:
            return False
        pattern = pattern[0] + pattern[1] + pattern[2]
    return _INT.issuperset(map(type, pattern))


_INT = frozenset((int,))


def _sequence(items, what: str) -> tuple:
    try:
        return tuple(items)
    except TypeError:
        raise PlanError(f"{what} {items!r} is not a sequence") from None


def _slots(code: "ArrayCode", cells) -> tuple[int, ...]:
    """Cells as a sorted tuple of distinct slots."""
    return tuple(sorted({_slot(code, cell) for cell in _sequence(cells, "cells")}))


def _slot(code: "ArrayCode", cell) -> int:
    """A cell, given as a slot or a ``(row, col)`` position, as its slot."""
    if type(cell) is not int:
        try:
            r, c = cell
        except (TypeError, ValueError):
            cell = _index(cell, "cell")
        else:
            r, c = _index(r, "cell row"), _index(c, "cell column")
            if not (0 <= r < code.rows and 0 <= c < code.cols):
                raise PlanError(
                    f"cell {(r, c)} outside {code.rows}x{code.cols} grid"
                )
            return r * code.cols + c
    if not 0 <= cell < code.rows * code.cols:
        raise PlanError(f"cell slot {cell} outside the stripe")
    return cell


def _disk(code: "ArrayCode", disk) -> int:
    index = _index(disk, "disk")
    if not 0 <= index < code.cols:
        raise PlanError(f"disk {disk!r} outside 0..{code.cols - 1}")
    return index


def _index(value, what: str) -> int:
    """``value`` as an exact ``int``; a bool or a non-integer is refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise PlanError(f"{what} {value!r} is not an integer index")


# -- per-op lowering ----------------------------------------------------------------


def _compile_encode(code: "ArrayCode") -> XorPlan:
    slot = lambda pos: pos[0] * code.cols + pos[1]  # noqa: E731
    steps = [
        XorStep(dst=slot(chain.parity), srcs=tuple(slot(m) for m in chain.members))
        for chain in code.encode_order
    ]
    return XorPlan(
        code_name=code.name,
        p=code.p,
        op="encode",
        pattern=(),
        rows=code.rows,
        cols=code.cols,
        steps=tuple(steps),
        outputs=tuple(step.dst for step in steps),
    )


def _chain_steps(code: "ArrayCode", choices: dict) -> tuple[XorStep, ...]:
    """One step per repaired cell, in cell order, XORing the rest of the
    chain chosen for it."""
    cols = code.cols
    return tuple(
        XorStep(
            dst=r * cols + c,
            srcs=tuple(
                sorted(m[0] * cols + m[1] for m in chain.equation_cells if m != (r, c))
            ),
        )
        for (r, c), chain in sorted(choices.items())
    )


def _compile_double(code: "ArrayCode", f1: int, f2: int) -> XorPlan:
    """Peel both columns and lay the steps out one dependency component
    after another, in Algorithm 1's order: first by the parity flavour
    (in ``code.chains`` order) of a component's first step, an
    eliminated one last, then by its column, highest first."""
    cols = code.cols
    erased = [(r, d) for d in (f1, f2) for r in range(code.rows)]
    plan = _peel_to_plan(code, "recover-double", (f1, f2), erased)
    flavours = list(dict.fromkeys(chain.kind for chain in code.chains))
    rank = {eq: flavours.index(ch.kind) for eq, ch in zip(code.equations, code.chains)}

    def start(group: tuple[int, ...]) -> tuple[int, int]:
        step = plan.steps[group[0]]
        cells = frozenset(divmod(s, cols) for s in (step.dst, *step.srcs))
        return rank.get(cells, len(flavours)), -(step.dst % cols)

    order = sorted(_components(plan.steps), key=start)
    steps = tuple(plan.steps[i] for group in order for i in group)
    outputs = tuple(step.dst for step in steps)
    return replace(plan, steps=steps, outputs=outputs, groups=_components(steps))


def _compile_update(code: "ArrayCode", pattern: tuple[int, ...]) -> XorPlan:
    """Lower a partial-stripe write into a parity-delta schedule.

    The plan runs on a *delta buffer*: the dirty data slots of
    ``pattern`` hold ``old ⊕ new`` and everything else starts
    undefined.  One step per dirtied parity (dependency closure over
    :attr:`ArrayCode.encode_order`, so RDP's diagonal-over-row-parity
    nesting lands after the row deltas it reads) computes that
    parity's delta as the XOR of its chain's dirty members.  Shared
    members — HV's row sharing, the cross-row vertical sharing — make
    a parity's delta a single multi-source kernel instead of one call
    per dirty cell.
    """
    order, fanout, cols = code.encode_order, code.encode_fanout, code.cols
    # Only the chains a dirty cell feeds are visited: ``fed`` maps their
    # encode-order index to the dirty members seen so far, and the heap
    # hands the indices out in that order while each emitted parity
    # feeds the chains nested over it (always later in the order).
    fed: dict[int, list[int]] = {}
    heap: list[int] = []

    def feed(slot: int) -> None:
        for index in fanout[slot]:
            if index in fed:
                fed[index].append(slot)
            else:
                fed[index] = [slot]
                heapq.heappush(heap, index)

    for slot in pattern:
        feed(slot)
    steps: list[XorStep] = []
    while heap:
        index = heapq.heappop(heap)
        r, c = order[index].parity
        dst = r * cols + c
        steps.append(XorStep(dst=dst, srcs=tuple(sorted(fed[index]))))
        feed(dst)
    outputs = tuple(step.dst for step in steps)
    return XorPlan(
        code_name=code.name,
        p=code.p,
        op="update",
        pattern=pattern,
        rows=code.rows,
        cols=code.cols,
        steps=tuple(steps),
        erased=outputs,
        outputs=outputs,
        groups=_components(steps),
    )


#: RMW-vs-re-encode crossover strategies :func:`choose_update_strategy`
#: can return.
UPDATE_STRATEGIES = ("rmw", "reencode")


def choose_update_strategy(
    code: "ArrayCode",
    cells: tuple,
    *,
    cache: PlanCache | None = PLAN_CACHE,
) -> tuple[str, XorPlan]:
    """Pick delta RMW or full re-encode for a dirty-cell set.

    Compares kernel counts end to end: the RMW side pays one delta
    build per dirty cell, the update plan itself, and one apply kernel
    per dirtied parity; the re-encode side pays the encode plan (the
    data is already in place).  Returns ``(strategy, plan)`` where the
    plan is the update plan for ``"rmw"`` and the encode plan for
    ``"reencode"`` — for a mostly-dirty stripe the re-encode touches
    every parity once and wins, which is exactly the paper's
    RMW-versus-reconstruct-write crossover.

    The decision is derived once per update plan and kept on it
    (:meth:`XorPlan.derived`): a repeated pattern costs the update
    plan's lookup alone, and an evicted plan takes its decision along.
    """
    update_plan = None
    if cache is not None and _spelled_canonically(cells):
        # ``cells`` already in canonical form (sorted slots, what the
        # stripe cache hands over) is the key itself: one probe, sound
        # for the reason :func:`compile_plan`'s probe is.
        update_plan = cache.probe(plan_key(code, "update", cells))
    if update_plan is None:
        update_plan = compile_plan(code, "update", cells, cache=cache)
    encode_plan = update_plan.derived(
        "reencode_plan", lambda plan: _cheaper_encode(code, plan, cache)
    )
    if encode_plan is None:
        return "rmw", update_plan
    return "reencode", encode_plan


def _cheaper_encode(
    code: "ArrayCode", update_plan: XorPlan, cache: PlanCache | None
) -> XorPlan | None:
    """The encode plan if it costs fewer kernels than ``update_plan``'s
    read-modify-write, else ``None``."""
    encode_plan = compile_plan(code, "encode", cache=cache)
    rmw_kernels = (
        len(update_plan.pattern)  # delta build: one XOR per dirty cell
        + update_plan.kernel_calls
        + len(update_plan.outputs)  # fold each parity delta into the stripe
    )
    return encode_plan if rmw_kernels > encode_plan.kernel_calls else None


def _failed_disk(code: "ArrayCode", erased: tuple[int, ...]) -> int | None:
    """The disk whose whole column is exactly the sorted slots ``erased``."""
    disk = erased[0] % code.cols
    if len(erased) == code.rows and all(slot % code.cols == disk for slot in erased):
        return disk
    return None


def _compile_read(
    code: "ArrayCode", pattern: tuple, planner: str, cache: PlanCache | None
) -> XorPlan:
    """Lower a degraded read: Fig. 7's chain choice, or a sliced decode."""
    erased, wanted, free = pattern
    disk = _failed_disk(code, erased)
    if disk is not None:
        from ..recovery.single import degraded_read_choices

        try:
            choices = degraded_read_choices(
                code,
                [divmod(slot, code.cols) for slot in wanted],
                [divmod(slot, code.cols) for slot in free],
                method=planner,
            )
        except DecodeError:
            pass  # no chain avoids the column: peeling may still reach it
        else:
            return XorPlan(
                code_name=code.name,
                p=code.p,
                op="read",
                pattern=pattern,
                rows=code.rows,
                cols=code.cols,
                steps=_chain_steps(code, choices),
                erased=erased,
                outputs=wanted,
            )
    decode = compile_plan(code, "decode", erased, cse=False, cache=cache)
    return slice_plan(decode, pattern)


def slice_plan(plan: XorPlan, pattern: tuple) -> XorPlan:
    """The ``read`` plan of ``pattern = (erased, wanted, free)`` cut
    from ``plan``, a schedule that repairs every erased cell.

    P001's dead-step walk run in reverse: walking the schedule backward
    from the wanted cells keeps exactly the steps they depend on, so
    the other erased cells are computed only as far as the wanted ones
    read them.
    """
    wanted = pattern[1]
    needed = set(wanted)
    kept: list[XorStep] = []
    for step in reversed(plan.steps):
        if step.dst in needed:
            needed.discard(step.dst)
            needed.update(step.srcs)
            kept.append(step)
    kept.reverse()
    return XorPlan(
        code_name=plan.code_name,
        p=plan.p,
        op="read",
        pattern=pattern,
        rows=plan.rows,
        cols=plan.cols,
        steps=tuple(kept),
        num_temps=plan.num_temps,
        erased=plan.erased,
        outputs=wanted,
    )


def _compile_decode(code: "ArrayCode", pattern: tuple[int, ...]) -> XorPlan:
    erased = [divmod(slot, code.cols) for slot in pattern]
    return _peel_to_plan(code, "decode", pattern, erased)


def _peel_to_plan(
    code: "ArrayCode",
    op: str,
    pattern: tuple,
    erased: list[Position],
) -> XorPlan:
    """Peel ``erased``, solving one stuck cell by elimination
    (:func:`_solve_one`) wherever peeling stalls, until every cell is
    reached; :class:`PlanError` exactly when ``can_recover`` fails."""
    cols, equations = code.cols, code.equations
    slot = lambda pos: pos[0] * cols + pos[1]  # noqa: E731
    steps: list[XorStep] = []
    remaining = erased
    while True:
        schedule = peel_schedule(equations, remaining)
        for rnd in schedule.rounds:
            for cell, eq_index in rnd:
                srcs = tuple(sorted(slot(c) for c in equations[eq_index] if c != cell))
                steps.append(XorStep(dst=slot(cell), srcs=srcs))
        if schedule.complete:
            break
        step = _solve_one(code, schedule.stuck)
        steps.append(step)
        remaining = schedule.stuck - {divmod(step.dst, cols)}
    return XorPlan(
        code_name=code.name,
        p=code.p,
        op=op,
        pattern=pattern,
        rows=code.rows,
        cols=code.cols,
        steps=tuple(steps),
        erased=tuple(sorted(slot(c) for c in erased)),
        outputs=tuple(step.dst for step in steps),
    )


def _components(steps: tuple[XorStep, ...]) -> tuple[tuple[int, ...], ...]:
    """The steps' weakly connected dependency components, each in
    schedule order, ordered by their first step: a step joins the
    component of every step that wrote a slot it reads."""
    parent = list(range(len(steps)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    writer: dict[int, int] = {}
    for i, step in enumerate(steps):
        for src in step.srcs:
            if src in writer:
                parent[root(i)] = root(writer[src])
        writer[step.dst] = i
    components: dict[int, list[int]] = {}
    for i in range(len(steps)):
        components.setdefault(root(i), []).append(i)
    return tuple(tuple(group) for group in components.values())


def _solve_one(code: "ArrayCode", stuck: set[Position]) -> XorStep:
    """The step that solves the stuck cell the fewest sources determine.

    GF(2) elimination over the parity-check rows that touch ``stuck``,
    each row a bitmask over slots and each pivot the sparsest row on its
    cell.  A reduced row with one stuck cell left determines that cell
    from its other cells, all known.  Only that one step is emitted:
    peeling usually finishes the rest more cheaply than the other
    reduced rows would.
    """
    cols = code.cols
    bits = [1 << (r * cols + c) for r, c in sorted(stuck)]
    unknown = sum(bits)
    rows = [sum(1 << (r * cols + c) for r, c in eq) for eq in code.equations]
    rows = [row for row in rows if row & unknown]
    pivots: list[int] = []
    for bit in bits:
        hits = [row for row in rows if row & bit]
        if hits:
            pivot = min(hits, key=lambda row: (row.bit_count(), row))
            rows = [row ^ pivot if row & bit else row for row in rows if row != pivot]
            pivots = [row ^ pivot if row & bit else row for row in pivots]
            pivots.append(pivot)
    solved = [
        (row.bit_count(), row & unknown, row)
        for row in pivots
        if (row & unknown).bit_count() == 1
    ]
    if not solved:
        raise PlanError(
            f"{code.name}(p={code.p}): no parity-check row determines any of "
            f"{sorted(stuck)} — the pattern is beyond the code"
        )
    _, cell, row = min(solved)
    row ^= cell
    srcs = tuple(s for s in range(row.bit_length()) if row >> s & 1)
    return XorStep(dst=cell.bit_length() - 1, srcs=srcs)


# -- common-subexpression elimination -----------------------------------------------


def eliminate_common_pairs(plan: XorPlan, max_temps: int = MAX_CSE_TEMPS) -> XorPlan:
    """Hoist source pairs shared by several steps into temporaries.

    Greedy pairwise factoring: while some unordered pair of *pure*
    sources (slots no step writes) appears in at least two steps'
    source lists, replace it with a scratch slot computed once up
    front.  Temporaries themselves become pure inputs, so nested
    factoring (EVENODD's full S chain) falls out of the iteration.
    The result computes exactly the same values — the differential
    tests check byte identity — with a strictly smaller
    :attr:`XorPlan.xors_per_word`.
    """
    if len(plan.steps) < 2:
        return plan  # no pair can be shared
    written = {step.dst for step in plan.steps}
    src_lists = [set(step.srcs) for step in plan.steps]
    temp_steps: list[XorStep] = []
    next_slot = plan.num_slots

    while len(temp_steps) < max_temps:
        counts: Counter = Counter()
        for srcs in src_lists:
            pure = sorted(s for s in srcs if s not in written)
            for i, a in enumerate(pure):
                for b in pure[i + 1 :]:
                    counts[(a, b)] += 1
        if not counts:
            break
        (a, b), best = min(
            counts.items(), key=lambda item: (-item[1], item[0])
        )
        if best < 2:
            break
        temp = next_slot
        next_slot += 1
        temp_steps.append(XorStep(dst=temp, srcs=(a, b)))
        for srcs in src_lists:
            if a in srcs and b in srcs:
                srcs.discard(a)
                srcs.discard(b)
                srcs.add(temp)

    if not temp_steps:
        return plan
    rewritten = tuple(
        XorStep(dst=step.dst, srcs=tuple(sorted(srcs)))
        for step, srcs in zip(plan.steps, src_lists)
    )
    shift = len(temp_steps)
    groups = tuple(
        tuple(i + shift for i in group) for group in plan.groups
    )
    return XorPlan(
        code_name=plan.code_name,
        p=plan.p,
        op=plan.op,
        pattern=plan.pattern,
        rows=plan.rows,
        cols=plan.cols,
        steps=tuple(temp_steps) + rewritten,
        num_temps=plan.num_temps + len(temp_steps),
        erased=plan.erased,
        outputs=plan.outputs,
        # Hoisted temporaries run serially before the concurrent groups.
        groups=groups,
        preamble=plan.preamble + shift if groups else 0,
    )
