"""Seeded op lists and the byte model they are checked against.

Everything here is the benchmark's own: the generators draw from
``numpy.random.default_rng(seed)`` and import nothing from
``repro.workloads``, so the program only ever sees the ops, never the
generator.  Shapes that a workload mixes in fixed shares are
*stratified* — the share is exact, only order and placement are drawn —
so the element I/O and payload volume of a list barely move with the
seed and the per-op metrics of different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import NamedTuple

import numpy as np


class BenchOp(NamedTuple):
    """One byte-addressed op; ``payload`` is None for a read."""

    kind: str
    offset: int
    size: int
    payload: bytes | None


def _op(rng: np.random.Generator, write: bool, offset: int, size: int) -> BenchOp:
    if write:
        return BenchOp("write", offset, size, rng.bytes(size))
    return BenchOp("read", offset, size, None)


def _shuffled_flags(rng: np.random.Generator, count: int, share: float) -> np.ndarray:
    """``count`` booleans, exactly ``round(count * share)`` of them True."""
    flags = np.zeros(count, dtype=bool)
    flags[: round(count * share)] = True
    rng.shuffle(flags)
    return flags


def zipf_ops(
    rng: np.random.Generator,
    count: int,
    *,
    stripes: int,
    groups: int,
    stripe_bytes: int,
    skew: float,
    write_share: float,
    max_bytes: int,
) -> list[BenchOp]:
    """Small ops inside one stripe each, stripe popularity Zipf(``skew``).

    Popularity ranks are dealt round-robin over ``groups`` equal
    contiguous ranges of stripes (the pool's range shards) and land on a
    seeded stripe inside their range: which stripes are hot is drawn,
    how evenly the heat is spread over the shards is not, so a seed
    cannot hand one shard's cache the whole hot set.
    """
    weights = np.arange(1, stripes + 1, dtype=float) ** -skew
    weights /= weights.sum()
    per_group = stripes // groups
    within_group = [rng.permutation(per_group) for _ in range(groups)]
    order = np.array(
        [
            (rank % groups) * per_group + within_group[rank % groups][rank // groups]
            for rank in range(per_group * groups)
        ]
    )
    chosen = order[rng.choice(stripes, size=count, p=weights)]
    sizes = rng.integers(1, max_bytes + 1, size=count)
    within = rng.integers(0, stripe_bytes - sizes + 1)
    writes = _shuffled_flags(rng, count, write_share)
    return [
        _op(rng, bool(w), int(s) * stripe_bytes + int(o), int(n))
        for w, s, o, n in zip(writes, chosen, within, sizes)
    ]


def element_run_ops(
    rng: np.random.Generator,
    write: bool,
    runs: list[int],
    *,
    stripes: int,
    stripe_elements: int,
    element_size: int,
) -> list[BenchOp]:
    """Element-aligned contiguous runs, one op per entry of ``runs``
    (its length in elements).

    The stripe is drawn; the position inside the stripe walks an even
    grid (seeded phase, shuffled order) per run length, so how many
    runs of a length cross a given disk column hardly moves with the
    seed.  A run may spill into the next stripe.
    """
    ops = []
    for length in sorted(set(runs)):
        count = runs.count(length)
        phase = rng.random()
        for i in range(count):
            position = int((phase + i) * stripe_elements / count) % stripe_elements
            spills = position + length > stripe_elements
            stripe = int(rng.integers(0, stripes - spills))
            start = stripe * stripe_elements + position
            ops.append(_op(rng, write, start * element_size, length * element_size))
    return [ops[i] for i in rng.permutation(len(ops))]


def partial_write_mix(
    rng: np.random.Generator,
    count: int,
    *,
    elements: int,
    element_size: int,
    write_share: float,
) -> list[BenchOp]:
    """The paper's partial-stripe-write mix (Fig. 6) as a byte stream.

    Three fifths of the ops are sub-element (1..element_size bytes
    inside one element), a fifth ``w_10`` and a fifth ``w_30`` (10 and
    30 contiguous elements); ``write_share`` of each shape are writes,
    the rest reads of the same shape.  The small shape holds a clear
    majority on purpose: at an even split the median latency would sit
    on the cliff between two shapes and jump with the seed.
    """
    small = count * 3 // 5
    w10 = (count - small) // 2
    shapes = [0] * small + [10] * w10 + [30] * (count - small - w10)
    writes = np.concatenate(
        [
            _shuffled_flags(rng, n, write_share)
            for n in (small, w10, count - small - w10)
        ]
    )
    ops = []
    for i in rng.permutation(count):
        run = shapes[i]
        if run:
            start = int(rng.integers(0, elements - run + 1))
            offset, size = start * element_size, run * element_size
        else:
            size = int(rng.integers(1, element_size + 1))
            element = int(rng.integers(0, elements))
            offset = element * element_size + int(
                rng.integers(0, element_size - size + 1)
            )
        ops.append(_op(rng, bool(writes[i]), offset, size))
    return ops


def ops_sha256(ops: list[BenchOp]) -> str:
    """Content hash of an op list: kinds, ranges and payload bytes."""
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.kind}:{op.offset}:{op.size};".encode())
        if op.payload is not None:
            h.update(op.payload)
    return h.hexdigest()


class ByteModel:
    """The oracle: the volume as one flat ``bytearray``."""

    def __init__(self, capacity: int) -> None:
        self.buf = bytearray(capacity)

    def apply(self, op: BenchOp) -> int | None:
        """Land a write, or return the CRC32 a read must produce."""
        if op.payload is not None:
            self.buf[op.offset : op.offset + op.size] = op.payload
            return None
        return zlib.crc32(memoryview(self.buf)[op.offset : op.offset + op.size])

    def settle(self, ops: list[BenchOp]) -> list[int | None]:
        """Replay ``ops`` to their fixed point; return per-op read CRCs.

        Every write carries fixed bytes, so after one replay the volume
        no longer changes from block to block and a second replay sees
        exactly what every later block's reads must see.
        """
        for op in ops:
            self.apply(op)
        return [self.apply(op) for op in ops]
