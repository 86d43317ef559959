"""The one chain chooser: minimal-I/O degraded reads and single-disk recovery.

With one disk down, each lost element can be repaired through any of
its parity chains whose other cells survive; picking *which* chain per
element so that the retrieved cells overlap as much as possible is the
hybrid-recovery optimization of Xiang et al. (SIGMETRICS'10) that the
paper's Fig. 9(a) applies to every code.  A degraded read (Fig. 7)
wants some of the column's cells, and the cells the request fetches
anyway are free, so the objective only counts *extra* cells; a
single-disk recovery is the read that wants the whole column with
nothing free.  :func:`degraded_read_choices` answers both, and the
compiler lowers its choice into the ``read`` plan the store runs.

The selection problem — minimize the union of read cells subject to
one chain choice per lost element — is a tiny set-union integer
program.  We solve it *exactly* with ``scipy.optimize.milp`` (the
default), with a greedy + local-search fallback and an exhaustive
checker used by the tests; ``paper_scale/test_ablation_recovery_planner.py``
compares the planners.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import DecodeError, InvalidParameterError
from ..utils import resolve_rng

if TYPE_CHECKING:  # imported lazily to avoid a codes<->recovery cycle
    from ..codes.base import ArrayCode, ParityChain

#: A cell coordinate ``(row, col)``, 0-based.
Position = tuple[int, int]

#: Max candidate combinations the exhaustive planner will enumerate.
EXHAUSTIVE_LIMIT = 1 << 14


def degraded_read_choices(
    code: ArrayCode,
    lost: Iterable[Position],
    free: Iterable[Position],
    method: str = "milp",
) -> dict[Position, ParityChain]:
    """Fig. 7's repair chain for each ``lost`` cell a degraded read wants.

    Every chosen chain avoids the lost cells' columns, and the cells in
    ``free`` (the alive cells the read fetches anyway) cost nothing, so
    the choice minimises the extra cells fetched: ``free`` plus each
    chain's other cells is the paper's ``L'``.  With ``lost`` a whole
    column and nothing free it is Fig. 9(a)'s hybrid single-disk
    recovery.  Raises :class:`DecodeError` when some lost cell has no
    such chain.
    """
    return _minimize_reads(_candidates(code, lost), frozenset(free), method)


# -- planner internals ------------------------------------------------------------


def _candidates(
    code: ArrayCode, lost: Iterable[Position]
) -> dict[Position, list[ParityChain]]:
    """Usable repair equations per lost cell: other members all off the
    lost cells' columns (a read may want only some of a failed one)."""
    lost_set = set(lost)
    down = {c for _, c in lost_set}
    table: dict[Position, list[ParityChain]] = {}
    for cell in lost_set:
        options = [
            chain
            for chain in code.chains
            if cell in chain.equation_cells
            and all(c == cell or c[1] not in down for c in chain.equation_cells)
        ]
        if not options:
            raise DecodeError(f"{code.name}: no single-pass repair equation for {cell}")
        table[cell] = options
    return table


def _minimize_reads(
    candidates: dict[Position, list[ParityChain]],
    free: frozenset[Position],
    method: str,
) -> dict[Position, ParityChain]:
    """Choose one equation per lost cell minimizing chargeable reads."""
    if method == "auto":
        # With a single lost cell the greedy pick (cheapest chain given
        # the free set) is already optimal; the integer program only
        # earns its overhead when choices interact through overlap.
        method = "greedy" if len(candidates) == 1 else "milp"
    if method == "milp":
        return _solve_milp(candidates, free)
    if method == "greedy":
        return _solve_greedy(candidates, free)
    if method == "exhaustive":
        return _solve_exhaustive(candidates, free)
    raise InvalidParameterError(f"unknown planner method {method!r}")


def _reads_of(cell: Position, chain: ParityChain) -> frozenset[Position]:
    return chain.equation_cells - {cell}


def _cost(choices: dict[Position, ParityChain], free: frozenset[Position]) -> int:
    union: set[Position] = set()
    for cell, chain in choices.items():
        union |= _reads_of(cell, chain)
    return len(union - free)


def _solve_exhaustive(
    candidates: dict[Position, list[ParityChain]],
    free: frozenset[Position],
) -> dict[Position, ParityChain]:
    cells = sorted(candidates)
    combos = 1
    for cell in cells:
        combos *= len(candidates[cell])
        if combos > EXHAUSTIVE_LIMIT:
            raise InvalidParameterError(
                f"exhaustive planner: {combos}+ combinations exceed "
                f"limit {EXHAUSTIVE_LIMIT}; use milp"
            )
    best: dict[Position, ParityChain] | None = None
    best_cost = None
    for combo in product(*(candidates[c] for c in cells)):
        choices = dict(zip(cells, combo))
        cost = _cost(choices, free)
        if best_cost is None or cost < best_cost:
            best, best_cost = choices, cost
    assert best is not None
    return best


#: Construction orders tried by the greedy planner before keeping the
#: best local optimum.  More restarts close the gap to the integer
#: optimum at the price of linear extra work.
GREEDY_RESTARTS = 12


def _solve_greedy(
    candidates: dict[Position, list[ParityChain]],
    free: frozenset[Position],
) -> dict[Position, ParityChain]:
    """Randomized-restart greedy with local search.

    Each restart builds a marginal-cost greedy assignment in a
    different element order (rotations plus seeded shuffles — fully
    deterministic), then improves it with single-element moves to a
    local optimum; the cheapest local optimum wins.  Measured against
    the MILP this stays within ~1% on every evaluated code/prime.

    An order drawn twice (with one lost cell, every order is the same)
    runs once: it would reach the same local optimum again, and keeping
    its first occurrence leaves the first-minimum pick unchanged.
    """
    cells = sorted(candidates)
    orders: list[list[Position]] = []
    for k in range(min(len(cells), GREEDY_RESTARTS // 2) or 1):
        orders.append(cells[k:] + cells[:k])
    if len(cells) > 1:  # else every shuffle is the one order already there
        rng = resolve_rng(1729)
        while len(orders) < GREEDY_RESTARTS:
            shuffled = list(cells)
            rng.shuffle(shuffled)
            orders.append(shuffled)

    best: dict[Position, ParityChain] | None = None
    best_cost: int | None = None
    for order in dict.fromkeys(map(tuple, orders)):
        choices = _greedy_construct(order, candidates, free)
        cost = _local_search(choices, candidates, free)
        if best_cost is None or cost < best_cost:
            best, best_cost = dict(choices), cost
    assert best is not None
    return best


def _greedy_construct(
    order: list[Position],
    candidates: dict[Position, list[ParityChain]],
    free: frozenset[Position],
) -> dict[Position, ParityChain]:
    fetched: set[Position] = set(free)
    choices: dict[Position, ParityChain] = {}
    for cell in order:
        chain = min(
            candidates[cell],
            key=lambda ch: len(_reads_of(cell, ch) - fetched),
        )
        choices[cell] = chain
        fetched |= _reads_of(cell, chain)
    return choices


def _local_search(
    choices: dict[Position, ParityChain],
    candidates: dict[Position, ParityChain],
    free: frozenset[Position],
    max_passes: int = 20,
) -> int:
    """Single-element improvement moves to a local optimum (in place).

    A move's cost change is counted from how many choices read each
    cell, not by re-taking the union: the same decisions as
    :func:`_cost` before and after, at a fraction of the work.
    """
    cells = sorted(choices)
    readers: Counter[Position] = Counter()
    for cell in cells:
        readers.update(_reads_of(cell, choices[cell]))
    cost = sum(1 for c in readers if c not in free)
    for _ in range(max_passes):
        improved = False
        for cell in cells:
            for option in candidates[cell]:
                if option is choices[cell]:
                    continue
                dropped = _reads_of(cell, choices[cell])
                added = _reads_of(cell, option)
                delta = sum(
                    1 for c in added - dropped if not readers[c] and c not in free
                ) - sum(
                    1 for c in dropped - added if readers[c] == 1 and c not in free
                )
                if delta < 0:
                    readers.subtract(dropped)
                    readers.update(added)
                    choices[cell] = option
                    cost += delta
                    improved = True
        if not improved:
            break
    return cost


def _solve_milp(
    candidates: dict[Position, list[ParityChain]],
    free: frozenset[Position],
) -> dict[Position, ParityChain]:
    """Exact solution via a 0/1 integer program.

    Variables: one ``x`` per (lost cell, candidate chain), one ``y``
    per potentially-read chargeable cell.  Constraints: the ``x`` of a
    cell sum to 1; ``y_r >= x_{e,c}`` whenever choosing chain ``c``
    for ``e`` reads ``r``.  Objective: minimize the sum of ``y``.
    """
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    cells = sorted(candidates)
    x_index: dict[tuple[Position, int], int] = {}
    for cell in cells:
        for k in range(len(candidates[cell])):
            x_index[(cell, k)] = len(x_index)
    chargeable = sorted(
        {
            r
            for cell in cells
            for chain in candidates[cell]
            for r in _reads_of(cell, chain)
            if r not in free
        }
    )
    y_index = {r: len(x_index) + i for i, r in enumerate(chargeable)}
    n = len(x_index) + len(y_index)

    objective = np.zeros(n)
    for idx in y_index.values():
        objective[idx] = 1.0

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lower: list[float] = []
    upper: list[float] = []
    row = 0
    for cell in cells:  # sum_k x_{cell,k} == 1
        for k in range(len(candidates[cell])):
            rows.append(row)
            cols.append(x_index[(cell, k)])
            vals.append(1.0)
        lower.append(1.0)
        upper.append(1.0)
        row += 1
    for cell in cells:  # y_r - x_{cell,k} >= 0 for each read r
        for k, chain in enumerate(candidates[cell]):
            for r in _reads_of(cell, chain):
                if r in free:
                    continue
                rows.extend((row, row))
                cols.extend((y_index[r], x_index[(cell, k)]))
                vals.extend((1.0, -1.0))
                lower.append(0.0)
                upper.append(np.inf)
                row += 1

    matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(row, n))
    result = milp(
        c=objective,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not result.success:  # pragma: no cover - scipy should always solve this
        raise DecodeError(f"MILP recovery planner failed: {result.message}")
    solution = np.round(result.x).astype(int)
    choices: dict[Position, ParityChain] = {}
    for cell in cells:
        for k, chain in enumerate(candidates[cell]):
            if solution[x_index[(cell, k)]] == 1:
                choices[cell] = chain
                break
        else:  # pragma: no cover - defensive
            raise DecodeError(f"MILP solution assigns no chain to {cell}")
    return choices
