"""H-Code over ``p + 1`` disks.

Reconstruction of Wu et al., IPDPS'11, from the HV paper's description
(see DESIGN.md §5).  A stripe is ``(p-1)`` rows by ``(p+1)`` columns
(1-based rows ``1 <= i <= p-1``, 0-based columns ``0 <= j <= p``):

- column ``p`` is a dedicated **horizontal parity** disk: ``E_{i,p}``
  XORs the ``p-1`` data elements of row ``i``;
- the ``p-1`` **anti-diagonal parities** sit on the inner diagonal at
  ``E_{i,i}`` and each XORs the ``p-1`` data elements on the wrapped
  diagonal ``j - k ≡ i (mod p)`` (columns ``0 .. p-1``), giving the
  chain length ``p`` that Table III lists;
- column 0 carries data only.

This layout realizes H-Code's signature property: the last data
element of row ``i`` (column ``p-1``) and the first of row ``i+1``
(column 0) lie on the same wrapped diagonal ``p-1-i``, so a
two-element write crossing a row boundary updates one shared
anti-diagonal parity plus the two horizontal parities — the optimum
the HV paper's Section IV.5 cites.  MDS is verified exhaustively in
``tests/test_codes``.
"""

from __future__ import annotations

from functools import cached_property

from .base import ArrayCode, ElementKind, ParityChain


class HCode(ArrayCode):
    """H-Code: hybrid code optimizing partial stripe writes."""

    name = "H-Code"
    min_p = 5

    @cached_property
    def rows(self) -> int:
        return self.p - 1

    @cached_property
    def cols(self) -> int:
        return self.p + 1

    def _build_chains(self) -> list[ParityChain]:
        p = self.p
        chains: list[ParityChain] = []
        for i in range(1, p):
            # Horizontal parity on the dedicated disk (column p).
            h_members = tuple((i - 1, j) for j in range(p) if j != i)
            chains.append(ParityChain(ElementKind.HORIZONTAL, (i - 1, p), h_members))
            # Anti-diagonal parity at E_{i,i}: wrapped diagonal j - k ≡ i.
            members = tuple((k - 1, (k + i) % p) for k in range(1, p))
            chains.append(
                ParityChain(ElementKind.ANTIDIAGONAL, (i - 1, i), members)
            )
        return chains
