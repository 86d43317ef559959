"""HDP (Horizontal-Diagonal Parity) code over ``p - 1`` disks.

Reconstruction of Wu et al., DSN'11, from the HV paper's description
(see DESIGN.md §5).  A stripe is ``(p-1) x (p-1)`` (1-based coordinates
``1 <= i, j <= p-1``):

- the **horizontal-diagonal parity** of row ``i`` sits on the main
  diagonal at ``E_{i,i}`` and XORs *everything else in the row* —
  including the row's anti-diagonal parity element.  That inclusion is
  the trait the HV paper calls out ("the diagonal parity element joins
  the calculation of horizontal parity element") and is what raises
  HDP's update cost to 3 parity writes per data update;
- the **anti-diagonal parity** of row ``i`` sits on the anti-diagonal
  at ``E_{i,p-i}`` and XORs the ``p-3`` data elements on the wrapped
  diagonal through itself (``j - k ≡ -2i (mod p)``), giving the
  ``p-2`` chain length the HV paper lists in Table III.

The exact member rule is pinned down empirically: within the family of
diagonal assignments ``d(i) = c·i`` the construction is MDS exactly
for ``c ≡ -2`` (the self-through diagonal used here) and ``c ≡ -1``;
the exhaustive all-pairs erasure tests in ``tests/test_codes`` verify
the property for every evaluated prime.
"""

from __future__ import annotations

from functools import cached_property

from .base import ArrayCode, ElementKind, ParityChain


class HDPCode(ArrayCode):
    """HDP: balanced parity with horizontal-diagonal coupling."""

    name = "HDP"
    min_p = 5

    @cached_property
    def rows(self) -> int:
        return self.p - 1

    @cached_property
    def cols(self) -> int:
        return self.p - 1

    def _build_chains(self) -> list[ParityChain]:
        p = self.p
        horizontal_cells = {(i - 1, i - 1) for i in range(1, p)}
        anti_cells = {(i - 1, (p - i) - 1) for i in range(1, p)}
        chains: list[ParityChain] = []
        for i in range(1, p):
            # Horizontal-diagonal parity: the whole row, anti parity included.
            h_members = tuple((i - 1, j - 1) for j in range(1, p) if j != i)
            chains.append(
                ParityChain(ElementKind.HORIZONTAL, (i - 1, i - 1), h_members)
            )
            # Anti-diagonal parity: data cells on the wrapped diagonal
            # j - k ≡ -2i (mod p) through the parity cell (i, p-i).
            d = (-2 * i) % p
            members = []
            for k in range(1, p):
                j = (k + d) % p
                if j == 0:
                    continue
                pos = (k - 1, j - 1)
                if pos in horizontal_cells or pos in anti_cells:
                    continue
                members.append(pos)
            chains.append(
                ParityChain(
                    ElementKind.ANTIDIAGONAL, (i - 1, (p - i) - 1), tuple(members)
                )
            )
        return chains
