"""The fused region executor: tiled, multi-stripe, cache-resident.

The classic vector executor issues one numpy kernel per XOR source per
step over the *whole* buffer.  At megabyte regions that streams every
cell through DRAM once per step; at L2-resident sizes the per-call
dispatch overhead dominates.  The fused executor fixes both ends:

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
the ledger records — the regression test pins that
``kernel_invocations`` drops versus the per-step vector path.

:func:`run_plan_region` is the engine-room: a pure function over an
ndarray region, no Stripe objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..executor import _check_geometry, _clear_outputs, _word_view
from .base import KernelBackend, Target, charge_stats, split_targets

if TYPE_CHECKING:
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
    steps: "tuple[XorStep, ...]",
    num_cells: int,
    num_temps: int,
    tile: int,
) -> int:
    """Execute a step schedule over one region, tiled; returns tile count.

    ``buf`` is ``(cells, words)`` or ``(lanes, cells, words)``; dtype
    is whatever view the caller holds (uint64 fast path or the uint8
    fallback for unaligned elements).  Temporaries live per tile, so
    scratch stays small no matter how large the region is.
    """
    words = buf.shape[-1]
    temps = (
        np.empty(buf.shape[:-2] + (num_temps, tile), dtype=buf.dtype)
        if num_temps
        else None
    )
    ntiles = 0
    for start in range(0, words, tile):
        stop = min(start + tile, words)
        n = stop - start
        ntiles += 1

        def view(slot: int) -> np.ndarray:
            if slot < num_cells:
                return buf[..., slot, start:stop]
            assert temps is not None
            return temps[..., slot - num_cells, :n]

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
        workers: int | None = None,
    ) -> None:
        """Run ``plan`` tile by tile over each contiguous region.

        ``workers`` is accepted for seam compatibility and ignored —
        fusion is a single-thread strategy.
        """
        for piece in split_targets(target):
            _check_geometry(plan, piece)
            buf = _word_view(piece)
            tile = tile_columns(buf.dtype, buf.shape[-1])
            ntiles = run_plan_region(
                buf, plan.steps, plan.num_cells, plan.num_temps, tile
            )
            charge_stats(stats, plan, buf, plan.fused_kernel_calls * ntiles)
            _clear_outputs(plan, piece)
