"""X-Code over ``p`` disks (Xu & Bruck, 1999).

A vertical code: the stripe is a ``p x p`` grid whose first ``p - 2``
rows hold data; row ``p-2`` holds the diagonal parities and row ``p-1``
the anti-diagonal parities.  Every disk carries exactly two parity
elements, which gives X-Code (like HV Code) perfect parity balance and
four parallel recovery chains — but, having no horizontal parity, any
two continuous data elements share no parity, which is what ruins its
partial-stripe-write cost (paper Section II.C).
"""

from __future__ import annotations

from functools import cached_property

from .base import ArrayCode, ElementKind, ParityChain


class XCode(ArrayCode):
    """X-Code: diagonal + anti-diagonal vertical MDS code."""

    name = "X-Code"
    min_p = 5

    @cached_property
    def rows(self) -> int:
        return self.p

    @cached_property
    def cols(self) -> int:
        return self.p

    def _build_chains(self) -> list[ParityChain]:
        p = self.p
        chains: list[ParityChain] = []
        for i in range(p):
            # Diagonal parity in row p-2: slope +1 through the data rows.
            diag = tuple((k, (i + k + 2) % p) for k in range(p - 2))
            chains.append(ParityChain(ElementKind.DIAGONAL, (p - 2, i), diag))
            # Anti-diagonal parity in row p-1: slope -1 through the data rows.
            anti = tuple((k, (i - k - 2) % p) for k in range(p - 2))
            chains.append(ParityChain(ElementKind.ANTIDIAGONAL, (p - 1, i), anti))
        return chains
