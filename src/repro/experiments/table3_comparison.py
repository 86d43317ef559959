"""Table III: the all-around comparison, derived from the code objects.

The paper's Table III summarizes five traits per code.  Instead of
transcribing the paper, this experiment *measures* each trait from the
implementations — load balance from the parity placement, update
complexity from the dependency closure, partial-write cost from
two-element writes, recovery-chain parallelism from the compiled
recovery plans, and chain lengths from the chain structure — so any
construction bug would show up as a mismatch with the paper's table
(the tests assert the match).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..codes.base import ArrayCode
from ..codes.registry import evaluated_codes
from ..metrics.balance import is_parity_balanced
from ..recovery.cost import repair_cost
from ..utils import mean, pairs
from .runner import ExperimentResult


def average_two_element_write_cost(code: ArrayCode) -> float:
    """Mean parity writes for every two continuous data elements.

    This is the paper's partial-stripe-write discriminator: 3.0 is the
    proven optimum for a lowest-density MDS code; X-Code sits at 4
    (no shared parity), HDP above 3 (update cost 3 per element).
    """
    cells = code.data_positions
    costs = []
    for left, right in zip(cells, cells[1:]):
        dirty = code.update_targets(left) | code.update_targets(right)
        costs.append(len(dirty))
    return mean(costs)


def chain_length_label(code: ArrayCode) -> str:
    """Chain lengths per flavor, rendered like the paper's last column."""
    lengths = sorted(set(chain.length for chain in code.chains))
    return ", ".join(str(n) for n in lengths)


def run(p: int = 13, codes: Sequence[ArrayCode] | None = None) -> ExperimentResult:
    """Build the measured Table III for the given prime."""
    codes = list(codes) if codes is not None else evaluated_codes(p)
    rows: list[list[object]] = []
    for code in codes:
        rows.append(
            [
                code.name,
                code.cols,
                is_parity_balanced(code),
                code.average_update_complexity(),
                average_two_element_write_cost(code),
                min(repair_cost(code, pair).parallelism for pair in pairs(code.cols)),
                chain_length_label(code),
            ]
        )
    return ExperimentResult(
        experiment="table3",
        title="Table III — measured comparison of the evaluated codes",
        parameters={"p": p},
        headers=[
            "code",
            "disks",
            "balanced",
            "update cost",
            "2-elem write cost",
            "recovery chains",
            "chain lengths",
        ],
        rows=rows,
        notes=(
            "update cost = parity writes per data update; 2-elem write "
            "cost optimum is 3; recovery chains = guaranteed parallel "
            "chains over all disk pairs"
        ),
    )
