"""Deterministic, seedable fault schedules.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent`\\ s, each
armed to fire at a specific element-I/O index (``at_op``).  Plans are
plain data: the same plan applied to two stores built from the same
seed produces bit-identical outcomes, which is what lets the scenario
runner compare codes under *identical* adversity and lets a test assert
that two runs of one seed give the same :class:`RebuildReport`.

``FaultPlan.random`` draws a plan from an explicit ``random.Random``
seed — the stdlib generator, kept separate from the numpy streams the
workload generators use, so a fault plan never perturbs a workload
drawn from the same scenario seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from ..exceptions import InvalidParameterError


class FaultKind(str, Enum):
    """The four fault classes the injector models.

    Mirrors the unit states of disk-reliability simulators (CR-SIM's
    ``Crashed`` / ``LatentError`` / ``Corrupted``), plus the transient
    errors a retry loop is expected to absorb.
    """

    DISK_CRASH = "disk-crash"
    TRANSIENT_IO = "transient-io"
    LATENT_SECTOR = "latent-sector"
    BIT_FLIP = "bit-flip"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes
    ----------
    kind:
        What happens.
    at_op:
        Element-I/O index at which the event fires (the injector's op
        counter; 0 fires before the first I/O).
    disk:
        Target column for crashes and transient windows.
    stripe, row:
        Target element for latent errors and bit flips (``disk`` is the
        column of the element).
    count:
        For :attr:`FaultKind.TRANSIENT_IO`: how many consecutive
        requests to the disk fail before service resumes.
    byte_index, mask:
        For :attr:`FaultKind.BIT_FLIP`: which byte is corrupted and by
        which XOR mask.
    """

    kind: FaultKind
    at_op: int = 0
    disk: int = 0
    stripe: int = 0
    row: int = 0
    count: int = 1
    byte_index: int = 0
    mask: int = 0x01

    def __post_init__(self) -> None:
        if self.at_op < 0:
            raise InvalidParameterError("at_op must be >= 0")
        if self.count <= 0:
            raise InvalidParameterError("count must be positive")
        if not 0 < self.mask < 256:
            raise InvalidParameterError(f"mask must be in 1..255, got {self.mask}")

    @property
    def position(self) -> tuple[int, int]:
        """The element coordinate within its stripe."""
        return (self.row, self.disk)


@dataclass
class FaultPlan:
    """An ordered, replayable schedule of faults.

    Events are kept sorted by ``at_op`` (stable on ties, preserving
    insertion order) so applying a plan is deterministic.
    """

    events: list[FaultEvent] = field(default_factory=list)
    seed: int | None = None

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.at_op)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def add(self, event: FaultEvent) -> "FaultPlan":
        """Insert an event, keeping the schedule sorted."""
        self.events.append(event)
        self.events.sort(key=lambda e: e.at_op)
        return self

    def to_dict(self) -> dict:
        """A JSON-friendly rendering (used by reports and the CLI)."""
        return {
            "seed": self.seed,
            "events": [
                {
                    "kind": e.kind.value,
                    "at_op": e.at_op,
                    "disk": e.disk,
                    "stripe": e.stripe,
                    "row": e.row,
                    "count": e.count,
                    "byte_index": e.byte_index,
                    "mask": e.mask,
                }
                for e in self.events
            ],
        }

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        rows: int,
        cols: int,
        stripes: int,
        element_size: int,
        crashes: int = 1,
        latent: int = 1,
        flips: int = 1,
        transients: int = 1,
        horizon: int = 64,
    ) -> "FaultPlan":
        """Draw a deterministic plan for a ``rows x cols`` geometry.

        ``horizon`` bounds the ``at_op`` indices so every event fires
        within a scenario of that many element I/Os.  Crashed disks are
        distinct; latent errors and flips land on columns that are not
        crashed by the plan, so the scenario exercises the paper's
        one-disk-plus-one-sector tolerance rather than instantly
        exceeding it.
        """
        if stripes <= 0:
            raise InvalidParameterError("plan needs at least one stripe")
        if crashes > 2:
            raise InvalidParameterError("RAID-6 plans allow at most 2 crashes")
        if crashes >= 2 and (latent or flips):
            raise InvalidParameterError(
                "2 crashes plus sector faults exceed RAID-6; reduce one"
            )
        rng = random.Random(seed)
        events: list[FaultEvent] = []
        crashed = rng.sample(range(cols), k=crashes) if crashes else []
        for disk in crashed:
            events.append(
                FaultEvent(
                    FaultKind.DISK_CRASH,
                    at_op=rng.randrange(horizon),
                    disk=disk,
                )
            )
        survivors = [c for c in range(cols) if c not in crashed]
        for _ in range(latent):
            events.append(
                FaultEvent(
                    FaultKind.LATENT_SECTOR,
                    at_op=rng.randrange(horizon),
                    disk=rng.choice(survivors),
                    stripe=rng.randrange(stripes),
                    row=rng.randrange(rows),
                )
            )
        for _ in range(flips):
            events.append(
                FaultEvent(
                    FaultKind.BIT_FLIP,
                    at_op=rng.randrange(horizon),
                    disk=rng.choice(survivors),
                    stripe=rng.randrange(stripes),
                    row=rng.randrange(rows),
                    byte_index=rng.randrange(element_size),
                    mask=1 << rng.randrange(8),
                )
            )
        for _ in range(transients):
            events.append(
                FaultEvent(
                    FaultKind.TRANSIENT_IO,
                    at_op=rng.randrange(horizon),
                    disk=rng.choice(survivors),
                    count=rng.randint(1, 3),
                )
            )
        return cls(events=events, seed=seed)
