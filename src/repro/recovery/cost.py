"""One repair price, read off the compiled recovery plan.

The paper's recovery results are prices of one object, the recovery
schedule:

- Fig. 9(a) — reads per lost element of the single-disk repair;
- Fig. 9(b) — ``Lc x Re``, ``Lc`` being the longest recovery chain;
- Table III — how many recovery chains start in parallel.

:func:`repair_cost` reads all of them off the compiled
:class:`~repro.engine.plan.XorPlan` that
:func:`~repro.engine.compile.compile_plan` returns, with its default
cache and common-subexpression elimination.  One lost disk ``d`` is
priced by the ``read`` plan ``(column, column, ())`` — the very cache
entry :meth:`FileStore.rebuild(d) <repro.array.filestore.FileStore.rebuild>`
runs — so the priced schedule is the served one; two lost disks by
their ``recover-double`` plan, Algorithm 1's layout.  Every registered
code has one for every disk pair: where its chains cannot peel a
two-disk loss (EVENODD's S coupling) the compiler solves by
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exceptions import InvalidParameterError
from ..utils import mean, pairs

if TYPE_CHECKING:  # imported lazily to avoid a codes<->recovery cycle
    from ..codes.base import ArrayCode


@dataclass(frozen=True)
class RepairCost:
    """What repairing one failure pattern of one stripe costs.

    Attributes
    ----------
    reads_per_disk:
        Element reads charged to each disk (the failed ones read
        nothing).
    lost:
        Lost elements the plan restores.
    rounds:
        The plan's dependency depth: the paper's ``Lc``.
    parallelism:
        Lost elements repaired at depth 1, i.e. the recovery chains
        that start at once (hoisted common subexpressions are not a
        level).
    """

    reads_per_disk: tuple[int, ...]
    lost: int
    rounds: int
    parallelism: int

    @property
    def reads(self) -> int:
        return sum(self.reads_per_disk)

    @property
    def reads_per_lost_element(self) -> float:
        return self.reads / self.lost


def repair_cost(
    code: ArrayCode, failed: tuple[int, ...], planner: str = "greedy"
) -> RepairCost:
    """Price the repair of one stripe with the ``failed`` disks down.

    ``failed`` names one or two distinct disks; ``planner`` picks the
    single-disk read minimizer, as for :func:`compile_plan`.
    """
    # Lazy: repro.engine.compile imports repro.recovery.peeling.
    from ..engine.compile import compile_plan

    if len(failed) not in (1, 2) or len(set(failed)) != len(failed):
        raise InvalidParameterError(
            f"a repair takes one or two distinct failed disks, not {failed}"
        )
    for disk in failed:
        if not 0 <= disk < code.cols:
            raise InvalidParameterError(f"disk {disk} outside 0..{code.cols - 1}")
    if len(failed) == 1:
        column = tuple(range(failed[0], code.rows * code.cols, code.cols))
        plan = compile_plan(code, "read", (column, column, ()), planner=planner)
    else:
        plan = compile_plan(code, "recover-double", tuple(failed))
    reads = [0] * code.cols
    for slot in plan.reads:
        reads[slot % code.cols] += 1
    return RepairCost(
        reads_per_disk=tuple(reads),
        lost=len(plan.outputs),
        rounds=plan.rounds,
        parallelism=sum(1 for slot in plan.outputs if plan.depths[slot] == 1),
    )


def expected_recovery_reads_per_element(
    code: ArrayCode, planner: str = "greedy"
) -> float:
    """Fig. 9(a)'s metric: reads per lost element, averaged over disks."""
    return mean(
        repair_cost(code, (d,), planner).reads_per_lost_element
        for d in range(code.cols)
    )


def expected_double_rounds(code: ArrayCode) -> float:
    """Fig. 9(b)'s ``Lc``, averaged over every failed-disk pair."""
    return mean(repair_cost(code, pair).rounds for pair in pairs(code.cols))
