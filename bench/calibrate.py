"""Host-speed calibration and the arithmetic that normalises timings.

The shared host drifts between a fast and a slower state for tens of
seconds at a time with nothing preempted (cpu/wall stays ~0.99), so raw
wall-clock throughput of identical runs spreads far wider than any
bound worth gating on.  :class:`Calibrator` is a fixed loop timed before
and after every block; the ratio of its committed reference time to the
median of the calibrations around a block is that block's
``host_speed``, and every timing metric is computed on
``wall time x host_speed``.  The raw twins are reported beside them.

The loop mixes what the program itself does per op — a strided copy
out of an arena larger than the last-level cache, a numpy XOR kernel,
a zlib CRC and some dict/list churn — so it slows down with the host
roughly the way the layers do.
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

#: Medians of the two loops in this host's fast state (2 vCPU, pinned,
#: Python 3.11, numpy 2.4).  Only a scale: changing one rescales every
#: normalised metric of the workloads it scores by the same factor on
#: every commit.
CAL_REF_S = {"mix": 0.0090, "stream": 0.0085}

MIX_ITERATIONS = 3000
ARENA_BYTES = 32 << 20
WINDOW_BYTES = 4096
STREAM_BYTES = 16 << 20
STREAM_PASSES = 4

#: Blocks on each side whose calibrations vote on a block's host speed.
SPEED_HALF_WINDOW = 4


class Calibrator:
    """A fixed calibration loop; call the instance to time one pass.

    Two loops, because the host's slow state is not one number: measured
    over seven minutes of drift it slowed interpreter, numpy-dispatch
    and CRC work 1.4-1.5x — and the three workloads made of those by
    the same 1.5x — but a streaming XOR over DRAM, and ``engine-batch``
    with it, only 1.1x.  A workload is scored by the loop bound by the
    resource it is bound by:

    ``mix``
        3 000 iterations of copy-a-4-KiB-window out of a 32 MiB arena,
        ``np.bitwise_xor``, ``zlib.crc32`` and dict/list churn — what
        the service, store and journal layers do per op.
    ``stream``
        four ``np.bitwise_xor`` passes over 16 MiB — what a kernel does.
    """

    def __init__(self, loop: str) -> None:
        rng = np.random.default_rng(0xCA1)
        self.ref_s = CAL_REF_S[loop]
        if loop == "mix":
            self._arena = rng.integers(0, 256, ARENA_BYTES, dtype=np.uint8)
            self._key = rng.integers(0, 256, WINDOW_BYTES, dtype=np.uint8)
            self._offsets = rng.integers(
                0, ARENA_BYTES - WINDOW_BYTES, MIX_ITERATIONS
            ).tolist()
            self._loop = self._mix
        else:
            self._src = rng.integers(0, 256, STREAM_BYTES, dtype=np.uint8)
            self._dst = np.empty_like(self._src)
            self._loop = self._stream

    def __call__(self) -> float:
        return self._loop()

    def _mix(self) -> float:
        arena, key = self._arena, self._key
        table: dict[int, int] = {}
        recent: list[int] = []
        crc = 0
        start = time.perf_counter()
        for i, off in enumerate(self._offsets):
            window = arena[off : off + WINDOW_BYTES].copy()
            np.bitwise_xor(window, key, out=window)
            crc = zlib.crc32(window, crc)
            table[i & 63] = crc
            recent.append(crc)
            if len(recent) > 32:
                recent.clear()
        return time.perf_counter() - start

    def _stream(self) -> float:
        start = time.perf_counter()
        for _ in range(STREAM_PASSES):
            np.bitwise_xor(self._src, 0x5A, out=self._dst)
        return time.perf_counter() - start


def host_speeds(calibrations: list[float], ref: float) -> list[float]:
    """Per-block host speed from the calibration series around the blocks.

    ``calibrations[i]`` ran just before block ``i`` and
    ``calibrations[i + 1]`` just after it, so ``n`` blocks come with
    ``n + 1`` calibrations.  Block ``i`` is scored by the median of the
    calibrations bracketing blocks ``i - 4 .. i + 4``.
    """
    blocks = len(calibrations) - 1
    speeds = []
    for i in range(blocks):
        lo = max(0, i - SPEED_HALF_WINDOW)
        hi = min(blocks, i + SPEED_HALF_WINDOW) + 1
        speeds.append(ref / statistics.median(calibrations[lo : hi + 1]))
    return speeds


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def pooled(per_block: list[np.ndarray], speeds: list[float] | None = None) -> np.ndarray:
    """Per-op samples of all blocks in one array, normalised per block."""
    if not per_block:
        return np.empty(0)
    if speeds is None:
        return np.concatenate(per_block)
    return np.concatenate([s * k for s, k in zip(per_block, speeds)])
