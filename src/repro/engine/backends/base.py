"""The engine contract and the helpers every kernel backend shares.

Whatever :func:`~repro.engine.backends.resolve_backend` returns answers
``encode``, ``decode``, ``gather`` and ``update`` (their ``code``
argument is for the chain-walking ``python`` oracle, :mod:`.oracle`).
A :class:`KernelBackend` is an *execution strategy* for a compiled
:class:`~repro.engine.plan.XorPlan`: same IR in, same bytes out, only
the kernel shape differs (tiled numpy regions, a native C inner
loop).  Backends never touch the compiler or the plan — the plan-hash
pins stay untouched by construction — and every backend must:

- be **byte-identical** to the scalar oracle
  (:func:`~repro.engine.executor.execute_plan_scalar`) for any
  :data:`Target`, including uint8-lane fallbacks for unaligned element
  sizes and degraded stripes;
- **charge the ledger**: word-XOR and kernel counts are recorded on
  the caller's :class:`~repro.array.iostats.IOStats`, XOR work
  normalized to 64-bit words (:func:`charge_stats`; lint rule R010
  enforces that every backend entry point takes the ``stats`` seam);
- **clear outputs**: erased/latent flags of the cells the plan wrote
  are lifted exactly like :func:`~repro.engine.executor.execute_plan`
  does.

:meth:`KernelBackend.gather` is the one entry point that writes no
stripe: it runs a plan with every cell it writes moved to scratch and
hands the outputs back — how a degraded read computes lost cells of a
stripe other readers share.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Union

import numpy as np

from ...array.stripe import ERASED, Stripe, StripeBatch
from ...exceptions import InvalidParameterError, PlanError, UnrecoverableFailureError
from .. import compile as _compile
from .. import executor as _executor
from ..plan import XorStep

if TYPE_CHECKING:
    from ...array.iostats import IOStats
    from ...codes.base import ArrayCode, DecodeReport
    from ..plan import XorPlan

#: What every backend accepts as a target (mirrors the executor).
Target = Union[Stripe, StripeBatch, Sequence[Stripe]]


class KernelBackend:
    """One execution strategy for compiled XOR plans.

    Subclasses set :attr:`name` and implement :meth:`execute`;
    :meth:`available` gates optional backends (a native backend with
    no C compiler on the host reports False and the registry's
    ``auto`` resolution skips it).
    """

    #: Registry key and the ``engine=`` string that selects it.
    name = "abstract"

    def available(self) -> bool:
        """True when this backend can run on the current host."""
        return True

    def execute(
        self,
        plan: "XorPlan",
        target: Target,
        *,
        stats: "IOStats | None" = None,
    ) -> None:
        """Run ``plan`` in place on ``target`` (see module contract)."""
        raise NotImplementedError

    def encode(self, code: "ArrayCode", stripe: Stripe, *, stats: "IOStats | None" = None) -> None:
        """Fill every parity cell of ``stripe`` by ``code``'s ``encode`` plan."""
        self.execute(_compile.compile_plan(code, "encode"), stripe, stats=stats)

    def decode(self, code: "ArrayCode", stripe: Stripe) -> "DecodeReport":
        """Recover every erased cell of ``stripe`` by its erasure
        pattern's plan (the mask's flat indices are the canonical
        pattern); a pattern with none is beyond the code."""
        from ...codes.base import DecodeReport  # codes import this package

        pattern = tuple(np.flatnonzero(stripe.state == ERASED).tolist())
        if not pattern:
            return DecodeReport()
        try:
            plan = _compile.compile_plan(code, "decode", pattern)
        except PlanError as exc:
            raise UnrecoverableFailureError(str(exc)) from exc
        self.execute(plan, stripe)
        return DecodeReport(peeled=list(plan.output_positions), rounds=plan.rounds)

    def update(
        self,
        code: "ArrayCode",
        plan: "XorPlan",
        stripes: Sequence[Stripe],
        olds: "Sequence[Mapping[int, bytes | np.ndarray]]",
        *,
        stats: "IOStats | None" = None,
        sums: "Sequence[np.ndarray] | None" = None,
    ) -> None:
        """Fold an ``update`` plan's parity deltas into live stripes.

        Each of ``stripes`` already holds its *new* data; ``olds[i]``
        maps every dirty cell slot of ``plan.pattern`` to the bytes
        ``stripes[i]`` held there before (``bytes`` or a uint8 array).
        The group's ``old ⊕ new`` deltas are built in one
        :class:`StripeBatch`, the plan runs over it through
        :meth:`execute`, and :func:`~repro.engine.executor.apply_update`
        folds each parity delta into its stripe — so a backend that
        implements only :meth:`execute` has a correct parity update.
        Given ``sums`` (``sums[i]`` the uint32 CRC per cell of
        ``stripes[i]``, its sidecar row), the CRC of every cell the fold
        touched, ``plan.pattern + plan.outputs``, is refreshed there.
        """
        cells = plan.pattern_positions
        delta = StripeBatch(
            plan.rows, plan.cols, stripes[0].element_size, len(stripes)
        )
        for i, (stripe, old) in enumerate(zip(stripes, olds)):
            for slot, pos in zip(plan.pattern, cells):
                pre = np.frombuffer(old[slot], dtype=np.uint8)
                np.bitwise_xor(stripe.data[pos], pre, out=delta.data[i][pos])
        self.execute(plan, delta, stats=stats)
        # Through the module, so whoever instruments ``apply_update``
        # on ``repro.engine.executor`` sees this call too.
        _executor.apply_update(plan, delta, stripes, stats=stats)
        refresh_sums(plan, stripes, sums)

    def gather(
        self,
        code: "ArrayCode",
        plan: "XorPlan",
        stripe: Stripe,
        *,
        stats: "IOStats | None" = None,
    ) -> np.ndarray:
        """Run ``plan`` over ``stripe`` without writing it; return the
        bytes of ``plan.outputs``, one row each, in that order.

        Every cell the plan writes lives in a scratch row instead
        (:func:`scratch_steps`), so threads reading one stripe under a
        shared lock never see another's half-computed cell — the
        degraded read's contract.  The rows are the caller's.
        """
        from .fused import run_plan_region, tile_columns  # fused builds on this module

        _executor._check_geometry(plan, stripe)
        steps, rows = plan.derived("scratch_steps", scratch_steps)
        buf = _executor._word_view(stripe)
        words = buf.shape[-1]
        scratch = np.empty((rows, words), dtype=buf.dtype)
        ntiles = run_plan_region(
            buf, steps, plan.num_cells, scratch, tile_columns(buf.dtype, words)
        )
        charge_stats(stats, plan, buf, len(steps) * ntiles)
        return scratch[: len(plan.outputs)].view(np.uint8)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"


def scratch_steps(plan: "XorPlan") -> "tuple[tuple[XorStep, ...], int]":
    """``plan``'s steps with every cell it writes moved to scratch, and
    the scratch rows that takes.

    Slot ``num_cells + i`` is scratch row ``i``: the outputs first, in
    order, then the other cells the plan writes, then its temporaries.
    Cells the plan only reads stay where they are.
    """
    cells = plan.num_cells
    written = [step.dst for step in plan.steps if step.dst < cells]
    moved = {
        slot: cells + i
        for i, slot in enumerate(dict.fromkeys([*plan.outputs, *written]))
    }
    if not moved.keys().isdisjoint(plan.reads):
        raise PlanError(
            f"{plan.code_name} {plan.op} plan reads a cell before writing it; "
            "it cannot run into scratch"
        )

    def slot_of(slot: int) -> int:
        return slot + len(moved) if slot >= cells else moved.get(slot, slot)

    steps = tuple(
        XorStep(slot_of(step.dst), tuple(map(slot_of, step.srcs)))
        for step in plan.steps
    )
    return steps, len(moved) + plan.num_temps


def refresh_sums(
    plan: "XorPlan", stripes: "Sequence[Stripe]", sums: "Sequence[np.ndarray] | None"
) -> None:
    """:meth:`KernelBackend.update`'s ``sums`` contract, after a fold."""
    if sums is not None:
        from ...faults.checksum import CellSlots, crc_rows  # faults builds on engine

        touched = plan.derived("touched_cells", lambda p: CellSlots(p.pattern + p.outputs))
        for stripe, crcs in zip(stripes, sums):
            crc_rows(stripe.data, touched, crcs)


def split_targets(target: Target) -> "list[Stripe | StripeBatch]":
    """Normalize a target into region-executable pieces.

    A :class:`Stripe` or :class:`StripeBatch` is one contiguous region;
    a plain sequence of stripes becomes one region per stripe (their
    allocations are unrelated, so they cannot share kernels).
    """
    if isinstance(target, (Stripe, StripeBatch)):
        return [target]
    if isinstance(target, Sequence):
        return list(target)
    raise InvalidParameterError(
        f"cannot execute a plan on {type(target).__name__}"
    )


def charge_stats(
    stats: "IOStats | None",
    plan: "XorPlan",
    buf: np.ndarray,
    kernels: int,
) -> None:
    """Record a region execution on the ledger.

    ``buf`` is the word (or uint8-fallback) view the region ran over;
    XOR work is normalized to 64-bit words so the counter has one unit
    regardless of backend or dtype path.  ``kernels`` is
    backend-specific: one per step per tile on ``fused``, one per step
    per region on ``native``'s ``execute``, one per call on its
    ``gather`` and ``update``.
    """
    if stats is None:
        return
    words = buf.shape[-1]
    lanes = buf.shape[0] if buf.ndim == 3 else 1
    per_call_words = words if buf.dtype == np.uint64 else max(words // 8, 1)
    stats.record_xor(plan.xors_per_word * per_call_words * lanes, kernels)
