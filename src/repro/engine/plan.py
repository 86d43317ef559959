"""The XOR-plan IR: a compiled, flat schedule of ``dst = src ^ src ^ ...``.

A :class:`XorPlan` is what :mod:`repro.engine.compile` lowers a code's
parity equations into, and what :mod:`repro.engine.executor` runs over
word-viewed stripe buffers.  The IR deliberately knows nothing about
chains, rows, peeling, or planners — only *buffer slots*:

- slots ``0 .. rows*cols - 1`` are stripe cells in row-major order
  (``(r, c)`` lives at slot ``r * cols + c``);
- slots ``rows*cols ..`` are scratch temporaries introduced by
  common-subexpression elimination.

Every step *overwrites* its destination with the XOR of its sources
(a single-source step is a copy).  Steps are topologically ordered: a
slot is never read before the step that defines it (temporaries and
initially-erased cells start undefined), which :meth:`XorPlan.validate`
checks and the compiler tests exercise for every code.

Most ops run on the stripe itself.  The ``update`` op is the one
exception: it runs on a *delta buffer* with the stripe's geometry —
the dirty data slots (the plan's ``pattern``) hold ``old ⊕ new``
deltas and every other slot starts undefined.  The plan writes each
dirtied parity slot to the XOR of the dirty members of its chain
(nested parities included), i.e. the *parity delta*; the executor's
:func:`~repro.engine.executor.apply_update` then folds those deltas
into the live stripe's parity cells.

A ``read`` plan is a decode with *partial outputs*: its ``outputs``
are the lost cells a degraded read wants, and the other erased cells
may stay undefined.  It is also every single-failure repair: a
rebuild of one disk wants the whole column, a latent cell's repair
that one cell.  The store runs it into scratch
(:meth:`~repro.engine.backends.KernelBackend.gather`), never in place:
readers sharing a stripe must not see a half-computed cell.

Plans are immutable and hashable by content: :attr:`XorPlan.plan_hash`
is the SHA-256 of the canonical JSON serialization, so a hash pinned in
:mod:`repro.static.pins` detects any schedule drift — a changed chain
layout, planner decision, or CSE ordering.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TypeVar

from ..exceptions import PlanError

T = TypeVar("T")

#: A cell coordinate ``(row, col)``, 0-based.
Position = tuple[int, int]

#: Operations a plan can encode (the ``op`` field).
PLAN_OPS = (
    "encode",
    "recover-double",
    "decode",
    "update",
    "read",
)


@dataclass(frozen=True)
class XorStep:
    """One schedule entry: ``buffer[dst] = XOR(buffer[s] for s in srcs)``."""

    dst: int
    srcs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.srcs:
            raise PlanError("an XOR step needs at least one source")
        if self.dst in self.srcs:
            raise PlanError(f"step writes slot {self.dst} it also reads")
        if len(set(self.srcs)) != len(self.srcs):
            raise PlanError(f"step for slot {self.dst} lists a source twice")

    @property
    def xors(self) -> int:
        """Word-XOR operations per buffer word (a copy costs zero)."""
        return len(self.srcs) - 1


@dataclass(frozen=True)
class XorPlan:
    """A compiled, topologically ordered XOR schedule for one operation.

    Attributes
    ----------
    code_name, p, op, pattern:
        Provenance: which code/operation/erasure pattern the plan was
        compiled for.  ``pattern`` is the op-specific canonical tuple
        (empty for encode, the failed disks for ``recover-double``,
        sorted cell slots for a decode or an update, and three such
        tuples ``(erased, wanted, free)`` for a read).
    rows, cols:
        Stripe geometry the slot numbering assumes.
    steps:
        The schedule, in execution order.
    num_temps:
        Scratch slots appended after the ``rows*cols`` cell slots.
    erased:
        Cell slots that start undefined (the erasure pattern).
    outputs:
        Cell slots the plan writes, in repair/encode order — the
        engine clears their erasure flags after execution, and decode
        reporting maps them back to positions.
    groups:
        Optional partition of step indices into mutually independent
        sequential groups: the compiler's are the steps' dependency
        components, each in schedule order (for HV ``recover-double``,
        Algorithm 1's four recovery chains).
        :mod:`repro.static.planverify` proves them race-free; the
        schedule's parallelism, reported and certified, not threads.
    preamble:
        When ``groups`` is set, the first ``preamble`` steps (hoisted
        CSE temporaries) run serially before the groups start; the
        groups then partition the remaining step indices.
    """

    code_name: str
    p: int
    op: str
    pattern: tuple
    rows: int
    cols: int
    steps: tuple[XorStep, ...]
    num_temps: int = 0
    erased: tuple[int, ...] = ()
    outputs: tuple[int, ...] = ()
    groups: tuple[tuple[int, ...], ...] = field(default=(), compare=False)
    preamble: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.op not in PLAN_OPS:
            raise PlanError(f"unknown plan op {self.op!r}; known: {PLAN_OPS}")
        self.validate()

    # -- geometry ----------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols

    @property
    def num_slots(self) -> int:
        return self.num_cells + self.num_temps

    def slot_of(self, pos: Position) -> int:
        r, c = pos
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise PlanError(f"position {pos} outside {self.rows}x{self.cols} grid")
        return r * self.cols + c

    def position_of(self, slot: int) -> Position:
        if not 0 <= slot < self.num_cells:
            raise PlanError(f"slot {slot} is not a cell slot")
        return divmod(slot, self.cols)

    @cached_property
    def pattern_positions(self) -> tuple[Position, ...]:
        """:attr:`pattern` as positions, for the ops whose pattern is
        a tuple of cell slots (``update``, ``decode``)."""
        if self.op not in ("update", "decode"):
            raise PlanError(
                f"{self.op} pattern {self.pattern!r}: only an update or "
                "decode pattern is a tuple of cells"
            )
        return tuple(self.position_of(slot) for slot in self.pattern)

    @cached_property
    def output_positions(self) -> tuple[Position, ...]:
        """:attr:`outputs` as positions, in the same order."""
        return tuple(self.position_of(slot) for slot in self.outputs)

    def derived(self, name: str, build: Callable[["XorPlan"], T]) -> T:
        """``build(self)``, computed once and kept as long as the plan.

        The seam a backend hangs its lowered form of the schedule on:
        the value lives in the instance dict, beside :attr:`reads` and
        :attr:`plan_hash`, so it is found without hashing the plan and
        is freed with it — no side table to outlive an evicted plan.
        Never part of :meth:`to_dict`.
        """
        try:
            return self.__dict__[name]
        except KeyError:
            value = self.__dict__[name] = build(self)
            return value

    def __getstate__(self) -> dict:
        # A copy or pickle carries the fields only: a derived value may
        # hold what is valid for this object alone (a buffer address).
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    # -- cost model --------------------------------------------------------------

    @cached_property
    def xors_per_word(self) -> int:
        """Word-XOR operations one buffer word costs under this plan."""
        return sum(step.xors for step in self.steps)

    @cached_property
    def kernel_calls(self) -> int:
        """Cost-model kernel count: one binary XOR per extra source of
        each step, one for a copy.  It prices a plan, it does not count what
        a backend issues — :func:`~repro.engine.compile.choose_update_strategy`
        compares it across the update-versus-re-encode crossover.
        """
        return sum(max(step.xors, 1) for step in self.steps)

    @property
    def fused_kernel_calls(self) -> int:
        """Kernel invocations ``execute`` charges per tile (``fused``)
        or region (``native``): one multi-source reduction per
        destination, however many sources a step has.  Always ≤ :attr:`kernel_calls`.  A cost-model
        property only — not part of :meth:`to_dict`, so plan hashes are
        unaffected.
        """
        return len(self.steps)

    @cached_property
    def depths(self) -> dict[int, int]:
        """Each written slot's level: one above the deepest slot its
        step reads (an input is level 0); a hoisted CSE temporary adds
        no level."""
        depth: dict[int, int] = {}
        for step in self.steps:
            below = max(depth.get(src, 0) for src in step.srcs)
            depth[step.dst] = below + (step.dst < self.num_cells)
        return depth

    @cached_property
    def rounds(self) -> int:
        """Parallel-round count: the deepest written level (the paper's
        recovery ``Lc``; dependency depth for encode)."""
        return max(self.depths.values(), default=0)

    @cached_property
    def reads(self) -> tuple[int, ...]:
        """Cell slots the plan reads before (or without) writing them."""
        written: set[int] = set()
        reads: set[int] = set()
        for step in self.steps:
            reads.update(
                s for s in step.srcs if s < self.num_cells and s not in written
            )
            written.add(step.dst)
        return tuple(sorted(reads))

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Check topological soundness; raise :class:`PlanError` if broken."""
        erased_set = set(self.erased)
        defined = {
            slot for slot in range(self.num_cells) if slot not in erased_set
        }
        written: set[int] = set()
        for i, step in enumerate(self.steps):
            if not 0 <= step.dst < self.num_slots:
                raise PlanError(f"step {i} writes slot {step.dst} of {self.num_slots}")
            for src in step.srcs:
                if not 0 <= src < self.num_slots:
                    raise PlanError(f"step {i} reads slot {src} of {self.num_slots}")
                if src not in defined:
                    raise PlanError(
                        f"{self.code_name} {self.op} plan: step {i} reads "
                        f"slot {src} before any step defines it"
                    )
            defined.add(step.dst)
            written.add(step.dst)
        missing = [slot for slot in self.outputs if slot not in written]
        if missing:
            raise PlanError(
                f"{self.code_name} {self.op} plan: declared outputs "
                f"{missing} are never written"
            )
        if self.groups:
            flat = [i for group in self.groups for i in group]
            if sorted(flat) != list(range(self.preamble, len(self.steps))):
                raise PlanError(
                    "plan groups must partition the step indices after "
                    "the preamble"
                )

    # -- serialization / hashing ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "code": self.code_name,
            "p": self.p,
            "op": self.op,
            "pattern": list(self.pattern),
            "rows": self.rows,
            "cols": self.cols,
            "steps": [[step.dst, list(step.srcs)] for step in self.steps],
            "num_temps": self.num_temps,
            "erased": list(self.erased),
            "outputs": list(self.outputs),
            "rounds": self.rounds,
        }

    def canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, no whitespace."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @cached_property
    def plan_hash(self) -> str:
        """SHA-256 of the canonical JSON — the schedule fingerprint."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @property
    def key(self) -> str:
        """The pin-table key, e.g. ``"HV@5:recover-double:d0d2"``; a
        read spells its parts, ``"HV@5:read:e0e4e8e12:w0w4w8w12"``
        (``:f…`` follows when it has free cells)."""
        if self.op == "read":
            parts = zip("ewf", self.pattern)
        else:
            parts = [("d", self.pattern)]
        suffix = "".join(
            ":" + "".join(f"{tag}{x}" for x in cells) for tag, cells in parts if cells
        )
        return f"{self.code_name}@{self.p}:{self.op}{suffix}"

    def __repr__(self) -> str:
        return (
            f"XorPlan({self.code_name}@{self.p} {self.op} pattern={self.pattern}, "
            f"{len(self.steps)} steps, {self.xors_per_word} xors/word, "
            f"{self.num_temps} temps, {self.rounds} rounds)"
        )
