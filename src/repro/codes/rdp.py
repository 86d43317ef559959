"""RDP (Row-Diagonal Parity) code over ``p + 1`` disks.

The classic horizontal baseline (Corbett et al., FAST'04).  A stripe is
``(p-1)`` rows by ``(p+1)`` columns: columns ``0 .. p-2`` hold data,
column ``p-1`` the row parity, column ``p`` the diagonal parity.
Diagonal ``r`` collects the cells ``(a, b)`` with ``a + b ≡ r (mod p)``
over the data *and row-parity* columns (that inclusion is RDP's
signature, and is why a single data write can dirty more than two
parity cells); the diagonal ``p - 1`` is deliberately left unprotected.
"""

from __future__ import annotations

from functools import cached_property

from .base import ArrayCode, ElementKind, ParityChain


class RDPCode(ArrayCode):
    """Row-Diagonal Parity, the paper's primary horizontal baseline."""

    name = "RDP"
    min_p = 3

    @cached_property
    def rows(self) -> int:
        return self.p - 1

    @cached_property
    def cols(self) -> int:
        return self.p + 1

    def _build_chains(self) -> list[ParityChain]:
        p = self.p
        chains: list[ParityChain] = []
        for r in range(p - 1):
            members = tuple((r, j) for j in range(p - 1))
            chains.append(ParityChain(ElementKind.ROW, (r, p - 1), members))
        for r in range(p - 1):
            # Diagonal r: cells (a, b) over columns 0..p-1 (including the
            # row-parity column) with a + b ≡ r (mod p); the cell that
            # would land on the missing row a = p-1 is skipped.
            members = tuple(
                ((r - b) % p, b)
                for b in range(p)
                if (r - b) % p != p - 1
            )
            chains.append(ParityChain(ElementKind.DIAGONAL, (r, p), members))
        return chains
