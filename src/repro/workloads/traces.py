"""Partial-stripe-write traces (paper Section V.A).

Two trace families drive Fig. 6:

- **uniform traces** ``uniform_w_L``: a fixed number of write patterns
  (1000 in the paper), each writing ``L`` continuous data elements
  from a uniformly chosen start;
- **random traces**: patterns ``(S, L, F)`` — start, length, frequency
  — drawn from a random integer generator.  The paper prints its
  generated trace in Table II; :data:`PAPER_TABLE_II` embeds it
  verbatim (starts are 1-based there, converted on use).

Traces are generated against a *logical volume size* so the identical
logical workload replays against every code regardless of its stripe
geometry — the fairness requirement Section V.A states ("ensure the
same number of data elements ... is written for each code").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..exceptions import WorkloadError
from ..utils import RandomState, resolve_rng

#: The paper's Table II random write trace, verbatim ``(S, L, F)`` with
#: 1-based starts: "(28,34,66) means the write operation will start
#: from the 28th data element and the 34 continuous data elements will
#: be written for 66 times".
PAPER_TABLE_II: tuple[tuple[int, int, int], ...] = (
    (28, 34, 66), (34, 22, 69), (4, 45, 3), (30, 18, 64), (24, 32, 70),
    (29, 26, 48), (6, 3, 51), (34, 42, 50), (37, 9, 1), (34, 38, 93),
    (6, 44, 75), (10, 44, 2), (34, 15, 43), (2, 6, 49), (28, 17, 57),
    (20, 33, 39), (48, 28, 27), (48, 13, 30), (40, 2, 32), (16, 24, 7),
    (19, 4, 77), (22, 14, 31), (49, 31, 82), (35, 26, 1), (31, 1, 48),
)


@dataclass(frozen=True)
class WritePattern:
    """One write access pattern: ``length`` elements from ``start``.

    ``start`` is a 0-based logical data-element index; ``frequency``
    is how many times the pattern executes (the paper's ``F``).
    """

    start: int
    length: int
    frequency: int = 1

    def __post_init__(self) -> None:
        if self.start < 0:
            raise WorkloadError(f"pattern start must be >= 0, got {self.start}")
        if self.length <= 0:
            raise WorkloadError(f"pattern length must be positive, got {self.length}")
        if self.frequency <= 0:
            raise WorkloadError(
                f"pattern frequency must be positive, got {self.frequency}"
            )

    @property
    def end(self) -> int:
        """One past the last written element."""
        return self.start + self.length


@dataclass(frozen=True)
class WriteTrace:
    """A named sequence of write patterns."""

    name: str
    patterns: tuple[WritePattern, ...]

    def __iter__(self) -> Iterator[WritePattern]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    @property
    def total_elements_written(self) -> int:
        """Data elements written, counting repeats."""
        return sum(p.length * p.frequency for p in self.patterns)

    @property
    def max_end(self) -> int:
        """Smallest volume (in data elements) the trace fits in."""
        return max(p.end for p in self.patterns)


def uniform_write_trace(
    length: int,
    volume_elements: int,
    num_patterns: int = 1000,
    seed: RandomState = 0,
) -> WriteTrace:
    """The paper's ``uniform_w_L`` trace.

    ``num_patterns`` writes of ``length`` continuous elements, starts
    uniform over ``[0, volume_elements - length]``.  ``seed`` may be an
    explicit :class:`numpy.random.Generator` threaded by the caller.
    """
    if length > volume_elements:
        raise WorkloadError(
            f"pattern length {length} exceeds volume of {volume_elements}"
        )
    rng = resolve_rng(seed)
    starts = rng.integers(0, volume_elements - length + 1, size=num_patterns)
    return WriteTrace(
        name=f"uniform_w_{length}",
        patterns=tuple(WritePattern(int(s), length) for s in starts),
    )


def paper_random_trace() -> WriteTrace:
    """The paper's exact Table II trace (starts converted to 0-based)."""
    return WriteTrace(
        name="random (Table II)",
        patterns=tuple(
            WritePattern(start=s - 1, length=l, frequency=f)
            for s, l, f in PAPER_TABLE_II
        ),
    )
