"""Fig. 9: disk-failure recovery (paper Sections V.C and V.D).

- **Fig. 9(a)** — single-disk recovery I/O: the minimal number of
  elements retrieved per lost element under hybrid parity-chain
  selection, averaged over every choice of failed disk, for each
  evaluated prime.
- **Fig. 9(b)** — double-disk recovery time: the paper's ``Lc x Re``
  model, where ``Lc`` is the longest recovery chain (the compiled
  recovery plan's round count) and ``Re`` the per-element recovery
  time, averaged over every failed-disk pair.

Both read the price off :func:`repro.recovery.cost.repair_cost`.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..array.latency import LatencyModel
from ..codes.registry import EVALUATED_CODE_NAMES, get_code
from ..recovery.cost import expected_double_rounds, expected_recovery_reads_per_element
from ..utils import EVALUATION_PRIMES
from .runner import ExperimentResult


#: Largest prime for which the exact MILP planner runs in seconds; the
#: multi-restart greedy (within ~1% of the optimum, identical across
#: codes so comparisons stay fair) takes over beyond it.
MILP_PRIME_LIMIT = 13


def run_fig9a(
    primes: Sequence[int] = EVALUATION_PRIMES,
    method: str = "auto",
    code_names: Sequence[str] = EVALUATED_CODE_NAMES,
) -> ExperimentResult:
    """Single-disk recovery I/O per lost element (Fig. 9(a))."""
    rows: list[list[object]] = []
    for name in code_names:
        row: list[object] = [name]
        for p in primes:
            code = get_code(name, p)
            planner = method
            if method == "auto":
                planner = "milp" if p <= MILP_PRIME_LIMIT else "greedy"
            row.append(expected_recovery_reads_per_element(code, planner))
        rows.append(row)
    return ExperimentResult(
        experiment="fig9a",
        title="Fig. 9(a) — recovery I/O per lost element, single disk failure",
        parameters={"primes": tuple(primes), "method": method},
        headers=["code"] + [f"p={p}" for p in primes],
        rows=rows,
        notes="minimal hybrid-chain retrieval, expectation over failed disk",
    )


def run_fig9b(
    primes: Sequence[int] = EVALUATION_PRIMES,
    latency: LatencyModel | None = None,
    code_names: Sequence[str] = EVALUATED_CODE_NAMES,
) -> ExperimentResult:
    """Double-disk recovery time, ``Lc x Re`` model (Fig. 9(b))."""
    latency = latency or LatencyModel()
    re_seconds = latency.recovery_element_seconds()
    rows: list[list[object]] = []
    for name in code_names:
        row: list[object] = [name]
        for p in primes:
            code = get_code(name, p)
            row.append(expected_double_rounds(code) * re_seconds)
        rows.append(row)
    return ExperimentResult(
        experiment="fig9b",
        title="Fig. 9(b) — double-disk recovery time (s, Lc x Re model)",
        parameters={
            "primes": tuple(primes),
            "re_seconds": round(re_seconds, 4),
        },
        headers=["code"] + [f"p={p}" for p in primes],
        rows=rows,
        notes="expectation of longest-recovery-chain length over all disk pairs",
    )
