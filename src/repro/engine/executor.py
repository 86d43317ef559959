"""Run :class:`XorPlan` schedules over word-viewed stripe buffers.

Two execution tiers, byte-identical (the differential tests assert
it):

- :func:`execute_plan` — dispatch through the kernel-backend registry
  (:mod:`repro.engine.backends`): ``fused`` by default, the one numpy
  executor, which reinterprets the stripe (or a whole
  :class:`~repro.array.stripe.StripeBatch`) as a ``(..., cells, words)``
  ``uint64`` view and runs the plan tile by tile; ``native`` or
  ``auto`` by name.
- :func:`execute_plan_scalar` — the pure-Python oracle: the same plan
  executed word by word with Python integers, no numpy.  Slow by
  design; it exists so the compiled schedule can be checked against an
  implementation with nothing in common with the numpy kernels.

Element sizes that are not a multiple of 8 fall back from the
``uint64`` view to a ``uint8`` view transparently.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Union

import numpy as np

from ..array.stripe import HEALTHY, Stripe, StripeBatch
from ..exceptions import InvalidParameterError, PlanError
from .plan import XorPlan

if TYPE_CHECKING:
    from ..array.iostats import IOStats

#: What the executor accepts as a target.
Target = Union[Stripe, StripeBatch, Sequence[Stripe]]


def _word_view(target: Stripe | StripeBatch) -> np.ndarray:
    """``(..., cells, words)`` view, widest dtype the alignment allows."""
    if target.element_size % 8 == 0:
        return target.as_words()
    return target.flat_view()


def _check_geometry(plan: XorPlan, target: Stripe | StripeBatch) -> None:
    if (target.rows, target.cols) != (plan.rows, plan.cols):
        raise PlanError(
            f"plan for a {plan.rows}x{plan.cols} stripe cannot run on a "
            f"{target.rows}x{target.cols} target"
        )


def execute_plan(
    plan: XorPlan,
    target: Target,
    *,
    stats: "IOStats | None" = None,
    backend: str | None = None,
) -> None:
    """Execute ``plan`` in place on a stripe, batch, or list of stripes.

    ``stats`` (an :class:`~repro.array.iostats.IOStats`) accumulates
    the word-XOR and kernel-invocation counts of the run.  ``backend``
    selects a registered kernel backend by name (``fused``, ``native``,
    ``auto``); ``None`` means ``fused``.
    """
    from .backends import resolve_backend

    resolve_backend(backend or "fused").execute(plan, target, stats=stats)


def _clear_outputs(plan: XorPlan, target: Stripe | StripeBatch) -> None:
    """Repaired cells are no longer erased or latent."""
    if not plan.outputs:
        return
    rows = [slot // plan.cols for slot in plan.outputs]
    cols = [slot % plan.cols for slot in plan.outputs]
    target.state[..., rows, cols] = HEALTHY


# -- the write pipeline: fold parity deltas into live stripes ------------------------


def apply_update(
    plan: XorPlan,
    delta: Stripe | StripeBatch,
    target: Target,
    *,
    stats: "IOStats | None" = None,
) -> None:
    """XOR an executed update plan's parity deltas into ``target``.

    ``delta`` is the buffer :func:`execute_plan` ran the ``update``
    plan over: its dirty data slots held ``old ⊕ new`` and its
    :attr:`~repro.engine.plan.XorPlan.outputs` slots now hold parity
    deltas.  Each output is folded into the matching cell of
    ``target`` in place (``parity ^= delta``) — one kernel per parity
    per batch, never per stripe, when both sides are batches.

    A :class:`~repro.array.stripe.StripeBatch` delta may also be
    applied to a *sequence* of stripes (lane ``i`` of the batch folds
    into ``target[i]``) — the shape the write-back cache's flush path
    uses, where the live stripes are separate allocations.
    """
    if plan.op != "update":
        raise PlanError(f"apply_update needs an 'update' plan, got {plan.op!r}")
    if not plan.outputs:
        return
    _check_geometry(plan, delta)
    dbuf = _word_view(delta)
    if isinstance(target, (Stripe, StripeBatch)):
        _check_geometry(plan, target)
        tbuf = _word_view(target)
        if tbuf.shape != dbuf.shape:
            raise PlanError(
                f"delta shape {dbuf.shape} does not match target {tbuf.shape}"
            )
        for slot in plan.outputs:
            np.bitwise_xor(
                tbuf[..., slot, :], dbuf[..., slot, :], out=tbuf[..., slot, :]
            )
        lanes = tbuf.shape[0] if tbuf.ndim == 3 else 1
        words = tbuf.shape[-1]
        kernels = len(plan.outputs)
    elif isinstance(target, Sequence):
        if dbuf.ndim != 3 or len(target) != dbuf.shape[0]:
            raise PlanError(
                f"applying to {len(target)} stripes needs a batch delta "
                "with one lane per stripe"
            )
        views = []
        for stripe in target:
            _check_geometry(plan, stripe)
            views.append(_word_view(stripe))
        for i, tbuf in enumerate(views):
            for slot in plan.outputs:
                np.bitwise_xor(tbuf[slot], dbuf[i, slot], out=tbuf[slot])
        lanes = len(views)
        words = dbuf.shape[-1]
        kernels = len(plan.outputs) * lanes
    else:
        raise InvalidParameterError(
            f"cannot apply an update to {type(target).__name__}"
        )
    if stats is not None:
        per_call_words = words if dbuf.dtype == np.uint64 else max(words // 8, 1)
        stats.record_xor(len(plan.outputs) * per_call_words * lanes, kernels)


# -- the pure-Python oracle ---------------------------------------------------------


def execute_plan_scalar(plan: XorPlan, stripe: Stripe) -> None:
    """Execute ``plan`` with Python integers only — the reference tier.

    Every buffer is a plain list of ints; every step XORs word by word
    in interpreted Python.  Nothing here touches numpy's kernels, so a
    bug in a compiled backend cannot hide in this path (and vice
    versa).
    """
    _check_geometry(plan, stripe)
    flat = stripe.flat_view()
    cells: dict[int, list[int]] = {
        slot: [int(b) for b in flat[slot]] for slot in range(plan.num_cells)
    }
    for t in range(plan.num_temps):
        cells[plan.num_cells + t] = [0] * stripe.element_size
    for step in plan.steps:
        srcs = [cells[s] for s in step.srcs]
        out = list(srcs[0])
        for src in srcs[1:]:
            for i in range(len(out)):  # noqa: R006 — the oracle is scalar on purpose
                out[i] ^= src[i]
        cells[step.dst] = out
    for slot in {step.dst for step in plan.steps if step.dst < plan.num_cells}:
        flat[slot] = np.asarray(cells[slot], dtype=np.uint8)
    _clear_outputs(plan, stripe)
