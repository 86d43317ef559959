"""Generalized HV construction for coefficient ablations.

HV Code anchors row ``i``'s horizontal parity at column ``<2i>_p`` and
its vertical parity at column ``<4i>_p``, with the vertical chain
walking ``<2k + 4i>_p = j``.  Why those multipliers?  This module
generalizes the construction to ``(a, b)``: horizontal parity at
``<a·i>_p``, vertical parity at ``<b·i>_p``, vertical chain rule
``<a·k + b·i>_p = j``, so the ablation
(``paper_scale/test_ablation_hv_coefficients.py``) can measure what
each choice buys:

- **MDS**: only some ``(a, b)`` pairs tolerate every two-disk failure;
- **cross-row sharing**: two cells ``(i, c1)`` and ``(i+1, c2)`` share
  a vertical chain iff ``c2 - c1 ≡ a (mod p)``.  The typical row
  boundary has ``c2 - c1 ≡ 2`` (last data cell at column p-1, first at
  column 1), so ``a = 2`` is the only choice whose sharing rate grows
  toward 1 with ``p``; other multipliers only catch the boundaries
  displaced by parity placement, a fraction that decays like ``1/p``
  (small primes show coincidental spikes — the ablation measures it).

``GeneralizedHVCode(p, 2, 4)`` is exactly :class:`~repro.core.hvcode.HVCode`.
"""

from __future__ import annotations

from functools import cached_property

from ..codes.base import ArrayCode, ElementKind, ParityChain
from ..exceptions import InvalidParameterError
from ..utils import mod_div


class GeneralizedHVCode(ArrayCode):
    """HV-style code with configurable parity-placement multipliers."""

    name = "HV-general"
    min_p = 5

    def __init__(self, p: int, a: int = 2, b: int = 4) -> None:
        super().__init__(p)
        a %= p
        b %= p
        if a == 0 or b == 0 or a == b:
            raise InvalidParameterError(
                f"multipliers must be distinct and non-zero mod p, got ({a}, {b})"
            )
        self.a = a
        self.b = b

    @cached_property
    def rows(self) -> int:
        return self.p - 1

    @cached_property
    def cols(self) -> int:
        return self.p - 1

    def _build_chains(self) -> list[ParityChain]:
        p, a, b = self.p, self.a, self.b
        chains: list[ParityChain] = []
        for i in range(1, p):
            h_col = (a * i) % p
            v_col = (b * i) % p
            # The vertical traversal hits another vertical parity at
            # row k* with <a·k* + b·i>_p = <b·k*>_p, i.e. the column
            # <b²·i/(b-a)>_p must be skipped (for (2,4): <8i>_p).
            k_star = mod_div(b * i, b - a, p)
            skip_col = (b * k_star) % p
            h_members = tuple(
                (i - 1, j - 1) for j in range(1, p) if j not in (h_col, v_col)
            )
            chains.append(
                ParityChain(ElementKind.HORIZONTAL, (i - 1, h_col - 1), h_members)
            )
            v_members = tuple(
                (mod_div(j - b * i, a, p) - 1, j - 1)
                for j in range(1, p)
                if j not in (v_col, skip_col)
            )
            chains.append(
                ParityChain(ElementKind.VERTICAL, (i - 1, v_col - 1), v_members)
            )
        return chains

    def is_mds(self) -> bool:
        """Exhaustive two-column erasure check via the rank oracle."""
        from ..utils import pairs

        system = self.parity_check_system
        return all(
            system.can_recover(
                [(r, d) for d in (f1, f2) for r in range(self.rows)]
            )
            for f1, f2 in pairs(self.cols)
        )

    def cross_row_sharing_rate(self) -> float:
        """Fraction of cross-row consecutive pairs sharing a vertical chain."""
        cells = self.data_positions
        cross = [(x, y) for x, y in zip(cells, cells[1:]) if x[0] != y[0]]
        if not cross:
            return 1.0
        shared = 0
        for left, right in cross:
            left_chains = {
                c.parity
                for c in self.chains_through[left]
                if c.kind is ElementKind.VERTICAL
            }
            right_chains = {
                c.parity
                for c in self.chains_through[right]
                if c.kind is ElementKind.VERTICAL
            }
            if left_chains & right_chains:
                shared += 1
        return shared / len(cross)

    def __repr__(self) -> str:
        return f"GeneralizedHVCode(p={self.p}, a={self.a}, b={self.b})"
