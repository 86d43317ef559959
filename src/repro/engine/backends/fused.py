"""The fused region executor: tiled, multi-stripe, cache-resident.

The one place numpy interprets a plan's steps.  Per step and tile it
issues one ``bitwise_xor`` per extra source; what it adds to a plain
step loop is the region and the tiling:

- the region — a :class:`~repro.array.stripe.StripeBatch` is executed
  as one ``(lanes, cells, words)`` array, so each kernel covers every
  stripe of the batch and per-step Python overhead amortizes across
  the whole region;
- the tiling — the word axis is cut into L2-sized blocks
  (:data:`FUSED_TILE_BYTES` per cell) and the *entire plan* runs block
  by block, so a step's sources are still cache-hot from the steps
  that produced them instead of being re-fetched from DRAM.

Each destination is one fused reduction per tile in the cost model
(:attr:`~repro.engine.plan.XorPlan.fused_kernel_calls`), which is what
the ledger records.

:func:`run_plan_region` is the engine-room: a pure function over an
ndarray region, no Stripe objects.  :meth:`FusedBackend.execute`, the
default :meth:`~.base.KernelBackend.gather` and
:func:`~repro.engine.executor.execute_plan` all run through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..executor import _check_geometry, _clear_outputs, _word_view
from .base import KernelBackend, Target, charge_stats, split_targets

if TYPE_CHECKING:
    from collections.abc import Iterable

    from ...array.iostats import IOStats
    from ..plan import XorPlan, XorStep

#: Per-cell tile budget: the word axis is processed in blocks of
#: ``FUSED_TILE_BYTES / itemsize`` columns so consecutive steps reuse
#: cache-resident data.  128 KiB per cell measured best across the
#: 64 KiB..1 MiB element sweep on the benchmark host.
FUSED_TILE_BYTES = 128 * 1024


def tile_columns(dtype: np.dtype, words: int) -> int:
    """Columns of the last axis one tile covers (at least 1)."""
    return max(1, min(words, FUSED_TILE_BYTES // dtype.itemsize))


def run_plan_region(
    buf: np.ndarray,
    steps: "Iterable[XorStep]",
    num_cells: int,
    scratch: np.ndarray | None,
    tile: int,
) -> int:
    """Execute a step schedule over one region, tiled; returns tile count.

    ``buf`` is ``(cells, words)`` or ``(lanes, cells, words)``; dtype
    is whatever view the caller holds (uint64 fast path or the uint8
    fallback for unaligned elements).  Slot ``num_cells + i`` is row
    ``i`` of ``scratch``, which is either ``tile`` columns wide —
    temporaries reused by every tile, so scratch stays small however
    large the region is — or as wide as ``buf``: rows the caller keeps.
    """
    words = buf.shape[-1]
    full = scratch is not None and scratch.shape[-1] == words
    ntiles = 0
    for start in range(0, words, tile):
        stop = min(start + tile, words)
        base = start if full else 0
        ntiles += 1

        def view(slot: int) -> np.ndarray:
            if slot < num_cells:
                return buf[..., slot, start:stop]
            assert scratch is not None
            return scratch[..., slot - num_cells, base : base + stop - start]

        for step in steps:
            dst = view(step.dst)
            srcs = step.srcs
            if len(srcs) == 1:
                np.copyto(dst, view(srcs[0]))
                continue
            np.bitwise_xor(view(srcs[0]), view(srcs[1]), out=dst)
            for s in srcs[2:]:
                np.bitwise_xor(dst, view(s), out=dst)
    return ntiles


class FusedBackend(KernelBackend):
    """Tiled whole-region execution with plain numpy kernels."""

    name = "fused"

    def execute(
        self,
        plan: "XorPlan",
        target: Target,
        *,
        stats: "IOStats | None" = None,
    ) -> None:
        """Run ``plan`` tile by tile over each contiguous region."""
        for piece in split_targets(target):
            _check_geometry(plan, piece)
            buf = _word_view(piece)
            tile = tile_columns(buf.dtype, buf.shape[-1])
            temps = (
                np.empty(buf.shape[:-2] + (plan.num_temps, tile), dtype=buf.dtype)
                if plan.num_temps
                else None
            )
            ntiles = run_plan_region(buf, plan.steps, plan.num_cells, temps, tile)
            charge_stats(stats, plan, buf, plan.fused_kernel_calls * ntiles)
            _clear_outputs(plan, piece)
