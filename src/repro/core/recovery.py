"""Algorithm 1 of the paper: HV double-disk reconstruction.

When two disks ``f1 < f2`` fail, HV Code repairs all ``2(p-1)`` lost
elements along **four recovery chains that run in parallel**:

- two chains start from elements recoverable immediately via a
  *horizontal* chain — the rows whose vertical parity lives on a failed
  column, ``(<f1/4>_p, f2)`` and ``(<f2/4>_p, f1)`` in the paper's
  1-based tuples — because those rows' horizontal equations miss the
  other failed column entirely;
- two chains start from elements recoverable immediately via a
  *vertical* chain — the chains anchored at rows ``<f1/8>_p`` and
  ``<f2/8>_p``, whose equations skip column ``<8s>_p``; their lost
  member is ``(<(f2 - f1/2)/2>_p, f2)`` resp. ``(<(f1 - f2/2)/2>_p, f1)``.

After a start element, each chain alternates parity flavors — an
element repaired horizontally exposes an element in the other failed
column through its vertical chain, and vice versa — until it
terminates at a parity element (which participates in no other
equation).  The walk below implements exactly that alternation on the
code's chain structure; the tests check it against both the generic
peeling decoder and Theorem 1's tuple sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..array.stripe import Stripe
from ..codes.base import ParityChain, Position
from ..exceptions import InvalidParameterError, ReproError
from ..utils import mod_div
from .hvcode import HVCode


@dataclass
class HVDoubleFailurePlan:
    """An executable four-chain recovery plan for two failed disks.

    Attributes
    ----------
    f1, f2:
        The failed disks (0-based columns, ``f1 < f2``).
    chains:
        Four recovery chains; each entry is the ordered list of
        ``(position, parity_chain)`` pairs — repair ``position`` by
        XORing the other cells of ``parity_chain``'s equation.
    """

    code: HVCode
    f1: int
    f2: int
    chains: list[list[tuple[Position, ParityChain]]]

    @property
    def recovery_order(self) -> list[list[Position]]:
        """Just the positions, per chain, in repair order."""
        return [[pos for pos, _ in chain] for chain in self.chains]

    @property
    def longest_chain(self) -> int:
        """The paper's ``Lc``: length of the longest recovery chain."""
        return max(len(chain) for chain in self.chains)

    def execute(self, stripe: Stripe) -> None:
        """Repair the stripe in place, chain by chain.

        Chains are interleaved round-robin exactly as parallel execution
        would proceed, so a bug in the claimed independence of the four
        chains would surface as a read of a still-erased element.  Their
        compiled form, one plan group per chain, is
        ``compile_plan(code, "recover-double", (f1, f2))``.
        """
        self.code._check_stripe(stripe)
        depth = self.longest_chain
        for step in range(depth):
            for chain in self.chains:
                if step >= len(chain):
                    continue
                pos, parity_chain = chain[step]
                others = [c for c in parity_chain.equation_cells if c != pos]
                stripe.set(pos, stripe.xor_of(others))


def plan_double_failure_recovery(code: HVCode, f1: int, f2: int) -> HVDoubleFailurePlan:
    """Build the paper's Algorithm-1 plan for failed disks ``f1``/``f2``.

    Disks are 0-based columns.  Raises when the disks coincide or fall
    outside the array.
    """
    if not isinstance(code, HVCode):
        raise InvalidParameterError("Algorithm 1 is specific to HV Code")
    if f1 == f2:
        raise InvalidParameterError("the two failed disks must differ")
    f1, f2 = sorted((f1, f2))
    if not (0 <= f1 < code.cols and 0 <= f2 < code.cols):
        raise InvalidParameterError(
            f"failed disks ({f1}, {f2}) outside 0..{code.cols - 1}"
        )
    p = code.p
    g1, g2 = f1 + 1, f2 + 1  # 1-based column ids, as in the paper
    failed = {(r, f1) for r in range(code.rows)} | {(r, f2) for r in range(code.rows)}

    # Theorem 1 derives four *start equations*, each missing one failed
    # column entirely, so its single lost cell is repairable at once:
    # - the horizontal equation of row <fj/4>_p covers every column
    #   except <4i>_p = fj (the row's vertical-parity column);
    # - the vertical equation anchored at row <fj/8>_p covers every
    #   column except <8s>_p = fj.
    # The paper's start-element tuples ((<f1/4>, f2), (<(f2-f1/2)/2>, f2),
    # ...) are exactly these equations' lost cells, written in Lemma 1's
    # tuple space; extracting "the unique failed cell of the equation"
    # avoids the tuple-to-cell case analysis for vertical parities.
    h_chain_1 = code.horizontal_chains[mod_div(g1, 4, p) - 1]
    h_chain_2 = code.horizontal_chains[mod_div(g2, 4, p) - 1]
    v_chain_1 = code.vertical_chains[mod_div(g1, 8, p) - 1]
    v_chain_2 = code.vertical_chains[mod_div(g2, 8, p) - 1]

    starts = []
    for chain, missed_col in (
        (h_chain_1, f1),
        (h_chain_2, f2),
        (v_chain_1, f1),
        (v_chain_2, f2),
    ):
        lost = [cell for cell in chain.equation_cells if cell in failed]
        if len(lost) != 1 or any(cell[1] == missed_col for cell in lost):
            raise ReproError(
                f"start equation at {chain.parity} should miss column "
                f"{missed_col} and lose exactly one cell, got {lost}"
            )
        starts.append((lost[0], chain))

    recovered: set[Position] = set()
    chains: list[list[tuple[Position, ParityChain]]] = []
    for start_pos, start_chain in starts:
        chain = _walk_chain(code, start_pos, start_chain, failed, recovered)
        chains.append(chain)

    if len(recovered) != len(failed):
        raise ReproError(
            f"Algorithm 1 repaired {len(recovered)} of {len(failed)} lost "
            f"elements for disks ({f1}, {f2}) — construction bug"
        )
    return HVDoubleFailurePlan(code=code, f1=f1, f2=f2, chains=chains)


def _walk_chain(
    code: HVCode,
    start: Position,
    start_chain: ParityChain,
    failed: set[Position],
    recovered: set[Position],
) -> list[tuple[Position, ParityChain]]:
    """Follow one recovery chain from its start element to a parity."""
    steps: list[tuple[Position, ParityChain]] = []
    pos, via = start, start_chain
    while True:
        still_missing = [
            c for c in via.equation_cells if c in failed and c not in recovered
        ]
        if still_missing != [pos]:
            # Either pos was already repaired by an earlier chain (the
            # degenerate overlap cases) or the equation is not yet
            # usable; both end the chain.
            break
        recovered.add(pos)
        steps.append((pos, via))
        nxt = _next_equation(code, pos, via)
        if nxt is None:
            break  # terminated at a parity element
        via = nxt
        candidates = [
            c for c in via.equation_cells if c in failed and c not in recovered
        ]
        if len(candidates) != 1:
            break
        pos = candidates[0]
    return steps


def _next_equation(code: HVCode, pos: Position, used: ParityChain) -> ParityChain | None:
    """The *other* equation covering ``pos`` (None for parity cells)."""
    covering = [
        chain
        for chain in code.chains
        if pos in chain.equation_cells and chain is not used
    ]
    if not covering:
        return None
    if len(covering) > 1:
        raise ReproError(f"cell {pos} covered by {len(covering) + 1} equations")
    return covering[0]
