"""Symbolic peeling: schedule lost cells into parallel recovery rounds.

Peeling is the decoding discipline every code in the paper actually
uses: an equation with exactly one lost cell repairs that cell; newly
repaired cells unlock further equations.  Scheduling the repairs into
*rounds* — all cells solvable from the current state repair together,
then the state advances — yields exactly the paper's recovery-chain
parallelism: the number of rounds equals the length of the longest
recovery chain ``Lc``, and the round-1 width is the number of chains
that can run in parallel.

This module is purely structural (no data buffers).  Two callers use
it: the plan compiler lowers a schedule into the ``decode`` and
``recover-double`` plans (:mod:`repro.engine.compile`), whose price
Fig. 9(b) reads (:mod:`repro.recovery.cost`), and the static certifier
peels every disk pair as its independent proof.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

Position = tuple[int, int]


@dataclass
class PeelSchedule:
    """The outcome of peeling a lost-cell set.

    Attributes
    ----------
    rounds:
        ``rounds[k]`` lists the repairs of parallel round ``k`` as
        ``(cell, equation_index)`` pairs.
    stuck:
        Cells peeling could not reach (the plan compiler solves one
        by elimination and peels again; empty for all the paper's
        evaluated codes under any two-disk failure).
    """

    rounds: list[list[tuple[Position, int]]]
    stuck: set[Position]

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def recovered(self) -> list[Position]:
        """All repaired cells in schedule order."""
        return [cell for rnd in self.rounds for cell, _ in rnd]

    @property
    def parallelism(self) -> int:
        """Width of the first round: how many chains start in parallel."""
        return len(self.rounds[0]) if self.rounds else 0

    @property
    def complete(self) -> bool:
        return not self.stuck


def peel_schedule(
    equations: Sequence[frozenset[Position]],
    erased: Iterable[Position],
) -> PeelSchedule:
    """Schedule the repair of ``erased`` cells using XOR ``equations``.

    Each equation is the cell set of one XOR-to-zero constraint.  The
    scheduler is deterministic: within a round, cells repair in sorted
    order, and when several equations could repair the same cell the
    lowest-indexed equation wins.
    """
    remaining = set(erased)
    rounds: list[list[tuple[Position, int]]] = []
    while remaining:
        claimed: dict[Position, int] = {}
        for idx, eq in enumerate(equations):
            lost = [cell for cell in eq if cell in remaining]
            if len(lost) == 1:
                cell = lost[0]
                if cell not in claimed:
                    claimed[cell] = idx
        if not claimed:
            break
        this_round = sorted(claimed.items())
        rounds.append(this_round)
        for cell, _ in this_round:
            remaining.discard(cell)
    return PeelSchedule(rounds=rounds, stuck=remaining)
