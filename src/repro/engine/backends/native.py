"""The native backend: a ctypes inner loop compiled on first use.

The numpy paths pay two costs the plan IR does not require: one kernel
dispatch per XOR *source* (a step with k sources is k-1 binary
``bitwise_xor`` calls, each re-reading the destination) and one full
memory pass per call.  The C kernel collapses each step into a single
multi-source reduction — every source read once, the destination
written once — and walks the whole schedule tile by tile in one
``ctypes`` call per region, so per-step overhead disappears entirely.
Measured on the benchmark host this is 1.6–2x over the fused numpy
path at both L2-resident and DRAM-resident region sizes
(docs/ENGINE.md).

The backend is **optional by construction**: the C source below is
compiled with whatever ``cc``/``gcc``/``clang`` the host has, at first
use, in a temporary directory that is removed once the library is
loaded.  No compiler, a failed compile, or ``REPRO_DISABLE_NATIVE=1``
in the environment all make :meth:`NativeBackend.available` report
False and the registry's ``auto`` resolution falls back to the fused
numpy backend — presence of the backend can never be a correctness or
import-time concern.

The kernel is byte-oriented (sizes and strides in bytes), so the
unaligned uint8-lane fallback needs no second entry point: gcc/clang
auto-vectorize the byte XOR loops to the same SIMD the uint64 view
would get.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
from typing import TYPE_CHECKING

import numpy as np

from ...exceptions import InvalidParameterError, PlanError
from ..executor import _check_geometry, _clear_outputs
from .base import (
    KernelBackend,
    Target,
    charge_stats,
    scratch_steps,
    split_targets,
)

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Mapping, Sequence

    from ...array.iostats import IOStats
    from ...array.stripe import Stripe
    from ..plan import XorPlan

#: Per-cell tile budget in bytes (same heuristic as the fused backend).
NATIVE_TILE_BYTES = 128 * 1024

_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>

/* Execute a flat XOR schedule over one contiguous region.
 *
 * buf:    lane 0's cell 0; cell c of lane l starts at
 *         buf + l*lane_stride + c*cell_bytes.
 * temps:  scratch area of num_temps * cell_bytes bytes (may be NULL
 *         when the plan hoisted no temporaries); reused per lane.
 * enc:    the schedule, flattened as [dst, nsrc, src...] per step.
 * tile:   bytes of each cell processed per pass, so one tile's live
 *         cells stay cache-resident across the whole schedule.
 */
void xor_exec_plan(uint8_t *buf, uint8_t *temps,
                   ptrdiff_t lanes, ptrdiff_t lane_stride,
                   ptrdiff_t cell_bytes,
                   const int32_t *enc, int32_t n_steps, int32_t num_cells,
                   ptrdiff_t tile)
{
    for (ptrdiff_t lane = 0; lane < lanes; lane++) {
        uint8_t *base = buf + lane * lane_stride;
        for (ptrdiff_t t0 = 0; t0 < cell_bytes; t0 += tile) {
            ptrdiff_t n = cell_bytes - t0 < tile ? cell_bytes - t0 : tile;
            const int32_t *p = enc;
            for (int32_t s = 0; s < n_steps; s++) {
                int32_t dslot = *p++;
                int32_t nsrc = *p++;
                uint8_t *restrict dst =
                    (dslot < num_cells
                         ? base + (ptrdiff_t)dslot * cell_bytes
                         : temps + (ptrdiff_t)(dslot - num_cells) * cell_bytes)
                    + t0;
                const uint8_t *srcs[64];
                for (int32_t k = 0; k < nsrc; k++) {
                    int32_t sl = p[k];
                    srcs[k] = (sl < num_cells
                                   ? base + (ptrdiff_t)sl * cell_bytes
                                   : temps + (ptrdiff_t)(sl - num_cells) * cell_bytes)
                              + t0;
                }
                p += nsrc;
                /* One fused multi-source reduction per destination:
                 * each source is read once, dst written once. */
                switch (nsrc) {
                case 1:
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i];
                    break;
                case 2:
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i] ^ srcs[1][i];
                    break;
                case 3:
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i] ^ srcs[1][i] ^ srcs[2][i];
                    break;
                case 4:
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i] ^ srcs[1][i] ^ srcs[2][i]
                               ^ srcs[3][i];
                    break;
                case 5:
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i] ^ srcs[1][i] ^ srcs[2][i]
                               ^ srcs[3][i] ^ srcs[4][i];
                    break;
                case 6:
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i] ^ srcs[1][i] ^ srcs[2][i]
                               ^ srcs[3][i] ^ srcs[4][i] ^ srcs[5][i];
                    break;
                default: {
                    /* Wide steps: fixed-width passes so every loop
                     * auto-vectorizes (a runtime-length reduction in a
                     * scalar accumulator does not).  dst stays
                     * tile-resident, so the extra passes are cheap. */
                    for (ptrdiff_t i = 0; i < n; i++)
                        dst[i] = srcs[0][i] ^ srcs[1][i] ^ srcs[2][i]
                               ^ srcs[3][i];
                    int32_t k = 4;
                    for (; k + 3 <= nsrc; k += 3)
                        for (ptrdiff_t i = 0; i < n; i++)
                            dst[i] ^= srcs[k][i] ^ srcs[k + 1][i]
                                   ^ srcs[k + 2][i];
                    for (; k < nsrc; k++)
                        for (ptrdiff_t i = 0; i < n; i++)
                            dst[i] ^= srcs[k][i];
                }
                }
            }
        }
    }
}
"""

#: Lazily-populated compile state: None = not tried, False = failed,
#: otherwise the loaded ctypes function.
_KERNEL: "ctypes._CFuncPtr | None | bool" = None


def _find_compiler() -> str | None:
    for cand in ("cc", "gcc", "clang"):
        found = shutil.which(cand)
        if found:
            return found
    return None


def _compile_kernel() -> "ctypes._CFuncPtr | None":
    """Compile and load the C kernel; None on any failure."""
    if os.environ.get("REPRO_DISABLE_NATIVE"):
        return None
    compiler = _find_compiler()
    if compiler is None:
        return None
    # The build directory goes as soon as the library is mapped (the
    # mapping outlives the file), and on every failure path.
    with tempfile.TemporaryDirectory(prefix="repro-native-") as workdir:
        src = os.path.join(workdir, "xor_kernel.c")
        lib = os.path.join(workdir, "xor_kernel.so")
        with open(src, "w") as fh:
            fh.write(_C_SOURCE)
        base_cmd = [compiler, "-O3", "-shared", "-fPIC", src, "-o", lib]
        for extra in (["-march=native"], []):
            try:
                result = subprocess.run(
                    base_cmd[:2] + extra + base_cmd[2:],
                    capture_output=True,
                    timeout=120,
                )
            except (OSError, subprocess.SubprocessError):
                return None
            if result.returncode == 0:
                break
        else:
            return None
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            return None
    fn = dll.xor_exec_plan
    fn.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_ssize_t,
        ctypes.c_ssize_t,
        ctypes.c_ssize_t,
        ctypes.c_void_p,
        ctypes.c_int32,
        ctypes.c_int32,
        ctypes.c_ssize_t,
    ]
    fn.restype = None
    return fn


def _address(buf: np.ndarray) -> int:
    """Where a writable, C-contiguous array's bytes start (anything
    else is refused with ``TypeError``/``ValueError``) — a third of
    the cost of ``buf.ctypes.data``, which builds a helper object per
    call."""
    return ctypes.addressof(ctypes.c_char.from_buffer(buf))


def _kernel() -> "ctypes._CFuncPtr | None":
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _compile_kernel() or False
    return _KERNEL or None


class _Schedule:
    """A plan lowered to the C kernel's int32 wire format
    (``[dst, nsrc, src...]`` per step), with everything a call needs
    that is fixed per plan.  Built once per plan object and kept on it
    (:meth:`XorPlan.derived`), so a schedule is freed with its plan.
    """

    __slots__ = ("enc", "addr", "n_steps", "scratch_rows", "xors")

    def __init__(
        self, steps: "Iterable[tuple[int, Sequence[int]]]", scratch_rows: int = 0
    ) -> None:
        enc: list[int] = []
        self.n_steps = self.xors = 0
        for dst, srcs in steps:
            enc += (dst, len(srcs), *srcs)
            self.n_steps += 1
            self.xors += len(srcs) - 1
        #: the program; ``addr`` is only valid while this array lives
        self.enc = np.asarray(enc, dtype=np.int32)
        self.addr = self.enc.ctypes.data
        #: update schedules: scratch rows to allocate per call
        self.scratch_rows = scratch_rows


def _plain_schedule(plan: "XorPlan") -> _Schedule:
    return _Schedule((step.dst, step.srcs) for step in plan.steps)


def _gather_schedule(plan: "XorPlan") -> _Schedule:
    steps, rows = plan.derived("scratch_steps", scratch_steps)
    return _Schedule(((step.dst, step.srcs) for step in steps), scratch_rows=rows)


def _update_schedule(plan: "XorPlan") -> _Schedule:
    """The extended ``[delta build | plan | fold]`` schedule of an
    update plan.

    Layout: the live stripe is the ``buf`` region (``num_cells``
    cells); the *delta domain* lives entirely in scratch.  Cell slot
    ``s`` of the delta buffer maps to scratch slot
    ``num_cells + index(s)`` (only the slots the plan actually touches
    get scratch, compacted: the dirty cells first, in pattern order,
    so scratch row ``i`` takes the ``i``-th pre-image), and the plan's
    own temps follow.  The schedule is three phases in one flat
    program:

    1. delta build — scratch holds the dirty cells' *old* bytes
       (preloaded by the caller); one in-place XOR against the live
       (new) cell turns each into ``old ⊕ new``;
    2. the update plan's steps, slot-remapped into scratch, which
       leave each dirtied parity's *delta* in scratch;
    3. masked fold — each output parity cell of the live stripe is
       XORed with its delta, exactly like
       :func:`~repro.engine.executor.apply_update`.

    The scratch is handed over uninitialised apart from the pre-image
    rows, so a plan that reads any other cell before writing it is
    refused here, once, instead of computing on garbage.
    """
    dirty = set(plan.pattern)
    undefined = sorted(set(plan.reads) - dirty)
    if undefined:
        raise PlanError(
            f"{plan.code_name} update plan reads slots {undefined} that "
            "are neither dirty nor computed by an earlier step"
        )
    ncells = plan.num_cells
    computed = {step.dst for step in plan.steps if step.dst < ncells}
    touched = (*plan.pattern, *sorted((computed | set(plan.outputs)) - dirty))
    index = {slot: i for i, slot in enumerate(touched)}

    def delta_slot(slot: int) -> int:
        # A delta-domain slot, remapped into the scratch region.
        if slot < ncells:
            return ncells + index[slot]
        return ncells + len(touched) + (slot - ncells)

    def program() -> "Iterator[tuple[int, Sequence[int]]]":
        for slot in plan.pattern:
            d = delta_slot(slot)
            yield d, (d, slot)  # scratch(old) ^= live(new)
        for step in plan.steps:
            yield delta_slot(step.dst), [delta_slot(s) for s in step.srcs]
        for out in plan.outputs:
            yield out, (out, delta_slot(out))  # parity ^= delta

    return _Schedule(program(), scratch_rows=len(touched) + plan.num_temps)


class NativeBackend(KernelBackend):
    """Compiled C inner loop behind ``ctypes``, one call per region."""

    name = "native"

    def available(self) -> bool:
        return _kernel() is not None

    def execute(
        self,
        plan: "XorPlan",
        target: Target,
        *,
        stats: "IOStats | None" = None,
    ) -> None:
        """Run the whole schedule in one C call per contiguous region."""
        fn = _kernel()
        if fn is None:
            raise InvalidParameterError(
                "native backend unavailable on this host (no C compiler); "
                "use engine='auto' for graceful fallback"
            )
        schedule = plan.derived("native_schedule", _plain_schedule)
        for piece in split_targets(target):
            _check_geometry(plan, piece)
            flat = piece.flat_view()  # (..., cells, element_size) uint8
            cell_bytes = flat.shape[-1]
            lanes = flat.shape[0] if flat.ndim == 3 else 1
            temps = (
                np.empty((plan.num_temps, cell_bytes), dtype=np.uint8)
                if plan.num_temps
                else None
            )
            tile = max(1, min(cell_bytes, NATIVE_TILE_BYTES))
            fn(
                _address(flat),
                _address(temps) if temps is not None else None,
                lanes,
                plan.num_cells * cell_bytes,
                cell_bytes,
                schedule.addr,
                schedule.n_steps,
                plan.num_cells,
                tile,
            )
            charge_stats(stats, plan, flat, plan.fused_kernel_calls)
            _clear_outputs(plan, piece)

    def gather(
        self,
        plan: "XorPlan",
        stripe: "Stripe",
        *,
        stats: "IOStats | None" = None,
    ) -> np.ndarray:
        """:meth:`KernelBackend.gather` in one C call: the plan's
        scratch rows are the kernel's temporaries."""
        fn = _kernel()
        if fn is None:
            raise InvalidParameterError(
                "native backend unavailable on this host (no C compiler); "
                "use engine='auto' for graceful fallback"
            )
        schedule = plan.derived("native_gather_schedule", _gather_schedule)
        _check_geometry(plan, stripe)
        cell_bytes = stripe.element_size
        scratch = np.empty((schedule.scratch_rows, cell_bytes), dtype=np.uint8)
        fn(
            _address(stripe.data),
            _address(scratch),
            1,
            0,
            cell_bytes,
            schedule.addr,
            schedule.n_steps,
            plan.num_cells,
            min(cell_bytes, NATIVE_TILE_BYTES),
        )
        if stats is not None:
            stats.record_xor(schedule.xors * max(cell_bytes // 8, 1), 1)
        return scratch[: len(plan.outputs)]

    # -- the end-to-end update path -------------------------------------------

    def update(
        self,
        plan: "XorPlan",
        stripes: "Sequence[Stripe]",
        olds: "Sequence[Mapping[int, np.ndarray]]",
        *,
        stats: "IOStats | None" = None,
    ) -> None:
        """One fused :meth:`execute_update` call per stripe: no delta
        batch, no separate fold."""
        for stripe, old in zip(stripes, olds):
            self.execute_update(plan, stripe, old, stats=stats)

    def execute_update(
        self,
        plan: "XorPlan",
        stripe: "Stripe",
        old: "Mapping[int, np.ndarray]",
        *,
        stats: "IOStats | None" = None,
    ) -> None:
        """Fold an update plan's parity deltas into a live stripe.

        One C call covers what the numpy flush path spreads over three
        layers (delta build, plan execution, ``apply_update``):
        ``stripe`` holds the *new* data, ``old`` maps each dirty cell
        slot (``r * cols + c``) to its pre-image bytes, and on return
        every dirtied parity cell has been updated in place.  The
        extended schedule is kept on the plan like the plain one.
        """
        fn = _kernel()
        if fn is None:
            raise InvalidParameterError(
                "native backend unavailable on this host (no C compiler); "
                "use engine='auto' for graceful fallback"
            )
        if plan.op != "update":
            raise InvalidParameterError(
                f"execute_update needs an 'update' plan, got {plan.op!r}"
            )
        schedule = plan.derived("native_update_schedule", _update_schedule)
        _check_geometry(plan, stripe)
        cell_bytes = stripe.element_size
        # Every row but the pre-images is written before it is read.
        # Filled through the buffer protocol: a numpy assignment above
        # 500 elements drops the GIL around the copy (docs/ENGINE.md).
        scratch = np.empty(schedule.scratch_rows * cell_bytes, dtype=np.uint8)
        rows = memoryview(scratch)
        try:
            for start, slot in zip(range(0, len(rows), cell_bytes), plan.pattern):
                rows[start : start + cell_bytes] = old[slot]
        except KeyError as exc:
            raise InvalidParameterError(
                f"missing pre-image for dirty slot {exc.args[0]}"
            ) from None
        fn(
            _address(stripe.data),
            _address(scratch),
            1,
            0,
            cell_bytes,
            schedule.addr,
            schedule.n_steps,
            plan.num_cells,
            min(cell_bytes, NATIVE_TILE_BYTES),
        )
        if stats is not None:
            stats.record_xor(schedule.xors * max(cell_bytes // 8, 1), 1)
