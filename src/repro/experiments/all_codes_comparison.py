"""Extension experiment: the full code zoo, one table.

Beyond the paper's five evaluated codes, this package implements
EVENODD, P-Code, Liberation and Cauchy RS (the background-section
lineage).  This experiment measures the whole family side by side on
the structural metrics: disks, storage efficiency, parity balance,
update complexity, chain length, and single-disk recovery reads —
useful both as a sanity panorama and as the data behind "why did each
generation of codes exist".
"""

from __future__ import annotations

from ..codes.base import ArrayCode
from ..codes.registry import available_codes, get_code
from ..metrics.balance import is_parity_balanced
from ..recovery.cost import expected_recovery_reads_per_element
from .runner import ExperimentResult


def _max_chain_length(code: ArrayCode) -> int:
    return max(chain.length for chain in code.chains)


def run(p: int = 7) -> ExperimentResult:
    """Structural comparison of every registered code at one prime."""
    rows: list[list[object]] = []
    for name in available_codes():
        code = get_code(name, p)
        rows.append(
            [
                code.name,
                code.cols,
                code.rows,
                code.storage_efficiency,
                is_parity_balanced(code),
                code.average_update_complexity(),
                _max_chain_length(code),
                expected_recovery_reads_per_element(code, "greedy"),
            ]
        )
    rows.sort(key=lambda r: str(r[0]))
    return ExperimentResult(
        experiment="zoo",
        title="Extension — every implemented code, measured",
        parameters={"p": p},
        headers=[
            "code",
            "disks",
            "rows",
            "storage eff",
            "balanced",
            "update cost",
            "max chain",
            "recovery reads/elem",
        ],
        rows=rows,
        notes=(
            "greedy recovery planner for comparability; Cauchy-RS takes "
            "p as its data-disk count"
        ),
    )
