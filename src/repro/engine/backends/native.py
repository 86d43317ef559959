"""The native backend: a ctypes inner loop built once per source.

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
loaded.  A loaded build is then copied into the user's cache directory
(``$XDG_CACHE_HOME/hvcode-repro``, else ``~/.cache/hvcode-repro``; only
a directory this user owns that no one else can write) under a key, the
SHA-256 of the source, the flags and the compiler's predefined macros —
its version and every target feature ``-march=native`` turns on — so a
later process on the same source, compiler and CPU loads it instead of
compiling.  Each entry ends with ``sha256(key + library)``: a truncated
entry or one published under another key is never mapped, but rebuilt
and renamed over.  The cache is best-effort — a missing, unusable or
full cache directory only means the build is not kept.  No compiler,
a failed compile, a library that will not load or lacks an entry
point, or ``REPRO_DISABLE_NATIVE`` set to ``1`` (or to anything but
``0`` or empty, a reason that names the value) all make
:meth:`NativeBackend.available` report False (:data:`UNAVAILABLE_REASON`
says which) and the registry's ``auto`` resolution falls back to the
fused numpy backend — presence of the backend can never be a
correctness or import-time concern.

The XOR kernel is byte-oriented (sizes and strides in bytes), so the
unaligned uint8-lane fallback needs no second entry point: gcc/clang
auto-vectorize the byte XOR loops to the same SIMD the uint64 view
would get.

The library also carries the checksum sidecar's CRC-32, zlib's values
(``crc32_cells``, behind :func:`repro.faults.checksum.crc_rows` and at
the end of ``xor_update_crc``, a flushed stripe's fold): a
PCLMULQDQ fold through GCC vector builtins where the build has
``__PCLMUL__`` and ``__SSE4_1__`` (an intrinsics header would slow the
compile), slicing-by-8 tables otherwise.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from typing import TYPE_CHECKING, Literal, NamedTuple

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
    from ...codes.base import ArrayCode
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

/* CRC-32 as zlib computes it (reflected polynomial 0xedb88320, the
 * register inverted on entry and exit).  The tables fill once, at load. */
static uint32_t crc_table[8][256];

__attribute__((constructor)) static void crc_table_init(void)
{
    for (uint32_t i = 0; i < 256; i++) {
        uint32_t c = i;
        for (int k = 0; k < 8; k++)
            c = c >> 1 ^ (0xedb88320u & -(c & 1));
        crc_table[0][i] = c;
    }
    for (int t = 1; t < 8; t++)
        for (int i = 0; i < 256; i++)
            crc_table[t][i] = crc_table[t - 1][i] >> 8
                              ^ crc_table[0][crc_table[t - 1][i] & 0xff];
}

#if defined(__PCLMUL__) && defined(__SSE4_1__)
typedef long long v2di __attribute__((vector_size(16)));
typedef long long v2du __attribute__((vector_size(16), may_alias, aligned(1)));
typedef int v4si __attribute__((vector_size(16)));
#define CLMUL __builtin_ia32_pclmulqdq128
#define LOAD(p) ((v2di)*(const v2du *)(p))

/* x carried 512 (k12) or 128 (k34) bits forward, plus the next block */
static v2di fold(v2di x, v2di k, v2di next)
{
    return CLMUL(x, k, 0x00) ^ CLMUL(x, k, 0x11) ^ next;
}

/* n >= 64, a multiple of 16: four 128-bit lanes folded over 64-byte
 * blocks, then into one, then 128 -> 64 -> 32 bits by k4 and k5 and a
 * Barrett reduction by P' and mu. */
static uint32_t crc_fold(uint32_t crc, const uint8_t *p, ptrdiff_t n)
{
    const v2di k12 = {0x154442bd4, 0x1c6e41596}, k34 = {0x1751997d0, 0x0ccaa009e},
               k5 = {0x163cd6124, 0}, pu = {0x1db710641, 0x1f7011641},
               lo32 = {0xffffffff, 0};
    v2di x0 = LOAD(p) ^ (v2di){crc, 0}, x1 = LOAD(p + 16), x2 = LOAD(p + 32),
         x3 = LOAD(p + 48);
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
        x0 = fold(x0, k12, LOAD(p));
        x1 = fold(x1, k12, LOAD(p + 16));
        x2 = fold(x2, k12, LOAD(p + 32));
        x3 = fold(x3, k12, LOAD(p + 48));
    }
    for (x0 = fold(fold(fold(x0, k34, x1), k34, x2), k34, x3); n; p += 16, n -= 16)
        x0 = fold(x0, k34, LOAD(p));
    x0 = CLMUL(x0, k34, 0x10) ^ (v2di){x0[1], 0};
    v4si w = (v4si)x0;
    x0 = CLMUL(x0 & lo32, k5, 0x00) ^ (v2di)(v4si){w[1], w[2], w[3], 0};
    x0 ^= CLMUL(CLMUL(x0 & lo32, pu, 0x10) & lo32, pu, 0x00);
    return ((v4si)x0)[1];
}
#endif

/* For each of the n slots s: out[s] = CRC-32 of cell s of base. */
void crc32_cells(const uint8_t *base, ptrdiff_t cell_bytes,
                 const int32_t *slots, ptrdiff_t n, uint32_t *out)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        const uint8_t *p = base + (ptrdiff_t)slots[i] * cell_bytes;
        ptrdiff_t left = cell_bytes;
        uint32_t crc = 0xffffffffu;
#if defined(__PCLMUL__) && defined(__SSE4_1__)
        if (left >= 64) {
            crc = crc_fold(crc, p, left & ~(ptrdiff_t)15);
            p += left & ~(ptrdiff_t)15;
            left &= 15;
        }
#else
        /* slicing-by-8: zlib's speed without the instruction */
        for (; left >= 8; p += 8, left -= 8) {
            uint32_t lo = crc ^ (p[0] | p[1] << 8 | p[2] << 16 | (uint32_t)p[3] << 24);
            crc = crc_table[7][lo & 0xff] ^ crc_table[6][lo >> 8 & 0xff]
                  ^ crc_table[5][lo >> 16 & 0xff] ^ crc_table[4][lo >> 24]
                  ^ crc_table[3][p[4]] ^ crc_table[2][p[5]]
                  ^ crc_table[1][p[6]] ^ crc_table[0][p[7]];
        }
#endif
        for (; left > 0; left--)
            crc = crc >> 8 ^ crc_table[0][(crc ^ *p++) & 0xff];
        out[slots[i]] = ~crc;
    }
}

/* A flushed stripe's fold and its CRC refresh: the update schedule over
 * buf (one lane), then crc32_cells over the n cells in slots. */
void xor_update_crc(uint8_t *buf, uint8_t *scratch, ptrdiff_t cell_bytes,
                    const int32_t *enc, int32_t n_steps, int32_t num_cells,
                    ptrdiff_t tile, const int32_t *slots, ptrdiff_t n, uint32_t *out)
{
    xor_exec_plan(buf, scratch, 1, 0, cell_bytes, enc, n_steps, num_cells, tile);
    crc32_cells(buf, cell_bytes, slots, n, out);
}
"""

class _Kernel(NamedTuple):
    """One loaded library: ``xor_exec_plan`` and ``xor_update_crc``
    through ``CDLL`` (a call releases the GIL), ``crc32_cells`` through
    ``PYFUNCTYPE`` (it holds it)."""

    xor: "ctypes._CFuncPtr"
    crc: "ctypes._CFuncPtr"
    update: "ctypes._CFuncPtr"


#: Lazily-populated compile state: None = not tried, False = failed,
#: otherwise the loaded :class:`_Kernel`.
_KERNEL: "_Kernel | Literal[False] | None" = None

#: Why the kernel did not load, once a build was tried and failed.
UNAVAILABLE_REASON: str | None = None


def _find_compiler() -> str | None:
    for cand in ("cc", "gcc", "clang"):
        found = shutil.which(cand)
        if found:
            return found
    return None


def _cache_dir() -> str | None:
    """The build cache, ``$XDG_CACHE_HOME/hvcode-repro`` (else
    ``$HOME/.cache/hvcode-repro``), created ``0o700``.  None — build in
    a temporary directory — when neither variable holds an absolute
    path, or the directory cannot be made, is not a directory, is not
    this user's, is writable by group or others, or is not writable."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        home = os.environ.get("HOME", "")
        if not os.path.isabs(home):
            return None
        base = os.path.join(home, ".cache")
    path = os.path.join(base, "hvcode-repro")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.stat(path)
    except OSError:
        return None
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.geteuid()
        or info.st_mode & 0o022
        or not os.access(path, os.W_OK | os.X_OK)
    ):
        return None
    return path


def _build_key(compiler: str, flags: "Sequence[str]") -> str:
    """SHA-256 of the source, the flags and the compiler's predefined
    macros under them (``__VERSION__`` and every target macro
    ``-march=native`` resolves to), so a cached library is never one
    built by another compiler or for another CPU; empty when the
    compiler will not say."""
    try:
        probe = subprocess.run(
            [compiler, "-O3", *flags, "-dM", "-E", "-x", "c", os.devnull],
            capture_output=True,
            timeout=120,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    if probe.returncode != 0:
        return ""
    digest = hashlib.sha256()
    for part in (_C_SOURCE.encode(), "\0".join(flags).encode(), probe.stdout):
        digest.update(len(part).to_bytes(8, "little") + part)
    return digest.hexdigest()


def _seal(key: str, body: bytes) -> bytes:
    """The 32 bytes a cache entry ends with: ``sha256(key + body)``.
    The loader maps segments, not the file's tail, so a sealed library
    loads as before."""
    return hashlib.sha256(key.encode() + body).digest()


def _sealed(path: str, key: str) -> bool:
    """Whether a cache entry is whole and was published under ``key``.
    Checked before ``dlopen``, which dies of SIGBUS on a truncated or
    zero-filled copy instead of failing."""
    try:
        with open(path, "rb") as fh:
            body = fh.read()
    except OSError:
        return False
    return len(body) > 32 and _seal(key, body[:-32]) == body[-32:]


def _load(lib: str) -> "_Kernel | str":
    """Load a built library and check its entry points; on any failure,
    the reason instead."""
    try:
        dll = ctypes.CDLL(lib)
    except OSError:
        return "load failed"
    ptr, size, i32 = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int32
    buf = ctypes.POINTER(ctypes.c_ubyte)
    try:
        xor = dll.xor_exec_plan
        update = dll.xor_update_crc
        crc = ctypes.PYFUNCTYPE(None, buf, size, ptr, size, buf)(("crc32_cells", dll))
    except AttributeError:
        return "missing symbol"
    xor.argtypes = [ptr, ptr, size, size, size, ptr, i32, i32, size]
    update.argtypes = [buf, buf, size, ptr, i32, i32, size, ptr, size, buf]
    xor.restype = update.restype = None
    return _Kernel(xor, crc, update)


def _publish(lib: str, cached: str, key: str) -> None:
    """Copy a loaded library, sealed, into the build cache, on a
    best-effort basis: the copy is written to a private temporary file
    beside the entry and renamed over it, so a reader never sees a
    partial file, and a full disk or an unwritable cache leaves the
    cache as it was."""
    tmp = None
    try:
        with open(lib, "rb") as fh:
            body = fh.read()
        fd, tmp = tempfile.mkstemp(
            prefix=".xor_kernel-", suffix=".tmp", dir=os.path.dirname(cached)
        )
        with os.fdopen(fd, "wb") as fh:
            fh.write(body + _seal(key, body))
        os.replace(tmp, cached)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _compile_kernel(
    flag_sets: "Sequence[Sequence[str]]" = (("-march=native",), ()),
) -> "_Kernel | str":
    """Load the C kernel built with the first of ``flag_sets`` that
    builds — from the build cache when it holds a sound copy, else
    built now — and on any failure, the reason instead."""
    disable = os.environ.get("REPRO_DISABLE_NATIVE", "")
    if disable == "1":
        return "disabled by REPRO_DISABLE_NATIVE"
    if disable not in ("", "0"):
        return f"REPRO_DISABLE_NATIVE={disable!r}: expected 0 or 1"
    compiler = _find_compiler()
    if compiler is None:
        return "no compiler"
    cache = _cache_dir()
    for flags in flag_sets:
        key = _build_key(compiler, flags) if cache else ""
        cached = os.path.join(cache, f"xor_kernel-{key}.so") if key else None
        if cached and _sealed(cached, key):
            kernel = _load(cached)
            if isinstance(kernel, _Kernel):
                return kernel
        # A miss, or a cached file that will not load or is not this
        # build's: build anew.  The build directory goes as soon as the
        # library is mapped (the mapping outlives the file), and on
        # every failure path.
        with tempfile.TemporaryDirectory(prefix="repro-native-") as workdir:
            src = os.path.join(workdir, "xor_kernel.c")
            lib = os.path.join(workdir, "xor_kernel.so")
            with open(src, "w") as fh:
                fh.write(_C_SOURCE)
            try:
                result = subprocess.run(
                    [compiler, "-O3", *flags, "-shared", "-fPIC", src, "-o", lib],
                    capture_output=True,
                    timeout=120,
                )
            except (OSError, subprocess.SubprocessError) as exc:
                return f"compile failed: {exc}"
            if result.returncode != 0:
                continue
            kernel = _load(lib)
            if cached and isinstance(kernel, _Kernel):
                _publish(lib, cached, key)
            return kernel
    stderr = result.stderr.decode(errors="replace").splitlines()
    return f"compile failed: {stderr[0] if stderr else ''}".rstrip()


def _address(buf: np.ndarray) -> int:
    """Where a writable, C-contiguous array's bytes start (anything
    else is refused with ``TypeError``/``ValueError``) — a third of
    the cost of ``buf.ctypes.data``, which builds a helper object per
    call."""
    return ctypes.addressof(ctypes.c_char.from_buffer(buf))


def _kernel() -> "_Kernel | None":
    global _KERNEL, UNAVAILABLE_REASON
    if _KERNEL is None:
        built = _compile_kernel()
        if isinstance(built, str):
            UNAVAILABLE_REASON, _KERNEL = built, False
        else:
            _KERNEL = built
    return _KERNEL or None


class _Schedule:
    """A plan lowered to the C kernel's int32 wire format
    (``[dst, nsrc, src...]`` per step), with everything a call needs
    that is fixed per plan.  Built once per plan object and kept on it
    (:meth:`XorPlan.derived`), so a schedule is freed with its plan.
    """

    __slots__ = (
        "enc", "addr", "n_steps", "scratch_rows", "xors", "cells", "crc_slots", "n_crc",
        "outputs",
    )

    def __init__(
        self,
        steps: "Iterable[tuple[int, Sequence[int]]]",
        scratch_rows: int = 0,
        cells: int = 0,
        crc_slots: "Sequence[int]" = (),
        outputs: int = 0,
    ) -> None:
        enc: list[int] = []
        self.n_steps = self.xors = 0
        for dst, srcs in steps:
            enc += (dst, len(srcs), *srcs)
            self.n_steps += 1
            self.xors += len(srcs) - 1
        #: the program, then ``crc_slots``; the addresses are only valid
        #: while this array lives
        self.enc = np.asarray([*enc, *crc_slots], dtype=np.int32)
        self.addr = self.enc.ctypes.data
        #: update and gather schedules: scratch rows to allocate per
        #: call and the stripe's cells; update schedules: the slots
        #: whose CRCs a call refreshes; gather schedules: the rows that
        #: hold the plan's outputs
        self.scratch_rows, self.cells = scratch_rows, cells
        self.crc_slots, self.n_crc = self.addr + 4 * len(enc), len(crc_slots)
        self.outputs = outputs


def _plain_schedule(plan: "XorPlan") -> _Schedule:
    return _Schedule((step.dst, step.srcs) for step in plan.steps)


def _gather_schedule(plan: "XorPlan") -> _Schedule:
    steps, rows = plan.derived("scratch_steps", scratch_steps)
    return _Schedule(
        ((step.dst, step.srcs) for step in steps),
        scratch_rows=rows,
        cells=plan.num_cells,
        outputs=len(plan.outputs),
    )


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
    if plan.op != "update":
        raise InvalidParameterError(
            f"execute_update needs an 'update' plan, got {plan.op!r}"
        )
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

    rows = len(touched) + plan.num_temps
    return _Schedule(program(), rows, ncells, plan.pattern + plan.outputs)


def _unavailable() -> InvalidParameterError:
    """The error a call on a kernel that did not load raises, naming why."""
    return InvalidParameterError(
        f"native backend unavailable: {UNAVAILABLE_REASON}; "
        "use engine='auto' for graceful fallback"
    )


class NativeBackend(KernelBackend):
    """Compiled C inner loop behind ``ctypes``, one call per region."""

    name = "native"

    def available(self) -> bool:
        return _kernel() is not None

    def unavailable_reason(self) -> str | None:
        return None if self.available() else UNAVAILABLE_REASON

    def execute(
        self,
        plan: "XorPlan",
        target: Target,
        *,
        stats: "IOStats | None" = None,
    ) -> None:
        """Run the whole schedule in one C call per contiguous region."""
        kernel = _kernel()
        if kernel is None:
            raise _unavailable()
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
            kernel.xor(
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
        code: "ArrayCode",
        plan: "XorPlan",
        stripe: "Stripe",
        *,
        stats: "IOStats | None" = None,
    ) -> np.ndarray:
        """:meth:`KernelBackend.gather` in one C call: the plan's
        scratch rows are the kernel's temporaries.  A degraded read pays
        this per stripe, so the call carries no more Python than it
        must: the geometry is checked inline (the error raised on a
        mismatch), and the rows come back without a slice when the
        outputs are all of them."""
        kernel = _KERNEL or _kernel()
        if kernel is None:
            raise _unavailable()
        schedule = plan.derived("native_gather_schedule", _gather_schedule)
        if stripe.rows != plan.rows or stripe.cols != plan.cols:
            _check_geometry(plan, stripe)
        cell_bytes = stripe.element_size
        scratch = np.empty((schedule.scratch_rows, cell_bytes), dtype=np.uint8)
        kernel.xor(
            _address(stripe.data),
            _address(scratch),
            1,
            0,
            cell_bytes,
            schedule.addr,
            schedule.n_steps,
            schedule.cells,
            cell_bytes if cell_bytes < NATIVE_TILE_BYTES else NATIVE_TILE_BYTES,
        )
        if stats is not None:
            stats.record_xor(schedule.xors * (cell_bytes // 8 or 1), 1)
        outputs = schedule.outputs
        return scratch if outputs == schedule.scratch_rows else scratch[:outputs]

    # -- the end-to-end update path -------------------------------------------

    def update(
        self,
        code: "ArrayCode",
        plan: "XorPlan",
        stripes: "Sequence[Stripe]",
        olds: "Sequence[Mapping[int, bytes | np.ndarray]]",
        *,
        stats: "IOStats | None" = None,
        sums: "Sequence[np.ndarray] | None" = None,
    ) -> None:
        """One fused :meth:`execute_update` call per stripe, its CRC
        refresh inside: no delta batch, no separate fold."""
        for i, (stripe, old) in enumerate(zip(stripes, olds)):
            crcs = None if sums is None else sums[i]
            self.execute_update(plan, stripe, old, stats=stats, sums=crcs)

    def execute_update(
        self,
        plan: "XorPlan",
        stripe: "Stripe",
        old: "Mapping[int, bytes | np.ndarray]",
        *,
        stats: "IOStats | None" = None,
        sums: np.ndarray | None = None,
    ) -> None:
        """Fold an update plan's parity deltas into a live stripe.

        One C call covers what the numpy flush path spreads over four
        layers (delta build, plan execution, ``apply_update``, CRC):
        ``stripe`` holds the *new* data, ``old`` maps each dirty cell
        slot (``r * cols + c``) to its pre-image bytes, and on return
        every dirtied parity cell has been updated in place and, given
        ``sums`` (the stripe's uint32 CRC per cell), the CRC of every
        cell the plan touched is in it.  The extended schedule is kept
        on the plan like the plain one.
        """
        kernel = _KERNEL or _kernel()
        if kernel is None:
            raise _unavailable()
        schedule = plan.derived("native_update_schedule", _update_schedule)
        _check_geometry(plan, stripe)
        crcs, n_crc = None, 0  # no sums: the kernel checksums no cell
        if sums is not None:
            if sums.dtype != np.uint32 or sums.size != schedule.cells:
                raise InvalidParameterError("sums must hold one uint32 CRC per cell")
            crcs, n_crc = ctypes.c_ubyte.from_buffer(sums), schedule.n_crc
        cell_bytes = stripe.element_size
        # Every row but the pre-images is written before it is read.
        # Filled through the buffer protocol: a numpy assignment above
        # 500 elements drops the GIL around the copy (docs/ENGINE.md).
        rows = memoryview(np.empty(schedule.scratch_rows * cell_bytes, dtype=np.uint8))
        try:
            for i, slot in enumerate(plan.pattern):
                rows[i * cell_bytes : (i + 1) * cell_bytes] = old[slot]
        except KeyError as exc:
            raise InvalidParameterError(
                f"missing pre-image for dirty slot {exc.args[0]}"
            ) from None
        # Buffers go as ``c_ubyte`` views, taken by reference by their
        # pointer parameters; the kernel clips the last tile to the cell.
        kernel.update(
            ctypes.c_ubyte.from_buffer(stripe.data), ctypes.c_ubyte.from_buffer(rows),
            cell_bytes, schedule.addr, schedule.n_steps, schedule.cells, NATIVE_TILE_BYTES,
            schedule.crc_slots, n_crc, crcs,
        )
        if stats is not None:
            stats.record_xor(schedule.xors * max(cell_bytes // 8, 1), 1)
