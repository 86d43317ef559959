"""Synthetic workload generators beyond the paper's traces.

The paper's Section II motivates partial-stripe writes with "backup
and virtual machine migration" (long sequential bursts) and argues
load balance matters because real stripe popularity is skewed.  These
generators make both assumptions concrete:

- :func:`sequential_write_trace` — back-to-back segments sweeping the
  volume, the backup/migration pattern;
- :func:`zipf_write_trace` — stripe popularity drawn from a Zipf
  distribution (the skew the rotation ablation relies on).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import WorkloadError
from ..utils import RandomState, resolve_rng
from .traces import WritePattern, WriteTrace


def sequential_write_trace(
    volume_elements: int,
    segment_length: int = 32,
    num_segments: int | None = None,
    start: int = 0,
    seed: int | None = None,
) -> WriteTrace:
    """Consecutive segments sweeping the volume from ``start``.

    Models a backup / VM-migration stream: segment ``i`` begins where
    segment ``i-1`` ended, wrapping at the end of the volume.
    """
    if segment_length <= 0 or segment_length > volume_elements:
        raise WorkloadError(
            f"segment length {segment_length} does not fit "
            f"{volume_elements} elements"
        )
    if num_segments is None:
        num_segments = volume_elements // segment_length
    patterns = []
    cursor = start % volume_elements
    for _ in range(num_segments):
        if cursor + segment_length > volume_elements:
            cursor = 0
        patterns.append(WritePattern(cursor, segment_length))
        cursor += segment_length
    return WriteTrace(name=f"sequential_w_{segment_length}", patterns=tuple(patterns))


def zipf_write_trace(
    volume_elements: int,
    stripe_elements: int,
    num_patterns: int = 1000,
    length: int = 10,
    skew: float = 1.2,
    seed: RandomState = 0,
) -> WriteTrace:
    """Writes whose *stripe* popularity follows a Zipf law.

    ``skew`` is the Zipf exponent (1.0 = classic heavy skew grows with
    it); the offset within the chosen stripe is uniform.
    """
    if skew <= 1.0:
        raise WorkloadError("zipf skew must exceed 1.0")
    if length > stripe_elements:
        raise WorkloadError("pattern length must fit within one stripe")
    num_stripes = volume_elements // stripe_elements
    if num_stripes < 1:
        raise WorkloadError("volume smaller than one stripe")
    rng = resolve_rng(seed)
    ranks = np.arange(1, num_stripes + 1, dtype=float)
    weights = ranks**-skew
    weights /= weights.sum()
    # Deterministic popularity permutation so the hottest stripe is not
    # always stripe 0.
    order = rng.permutation(num_stripes)
    patterns = []
    for _ in range(num_patterns):
        stripe = order[rng.choice(num_stripes, p=weights)]
        offset = int(rng.integers(0, stripe_elements - length + 1))
        patterns.append(WritePattern(int(stripe) * stripe_elements + offset, length))
    return WriteTrace(name=f"zipf_{skew:g}", patterns=tuple(patterns))


