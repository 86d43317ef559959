"""P-Code over ``p - 1`` disks (Jin et al., ICS'09).

A pure vertical code.  A stripe has ``(p-1)/2`` rows: row 0 holds one
parity per disk (``P_k`` on disk ``k``, 1-based); the remaining
``(p-3)/2`` rows hold data.  Each data element on disk ``k`` is
labelled by an unordered pair ``{i, j}`` with ``i + j ≡ k (mod p)``
and joins exactly the two parities ``P_i`` and ``P_j`` (the paper's
example: the element labelled ``{2,6}`` on disk 1 joins ``P_2`` and
``P_6`` since ``2 + 6 ≡ 1 (mod 7)``).

The pair-to-row assignment within a disk is the lexicographic order —
the parity chains (and hence the code's properties) do not depend on
it, but a fixed rule keeps layouts deterministic.  The HV paper's
complaint that locating a data element's parities requires a mapping
table corresponds exactly to this pair bookkeeping.
"""

from __future__ import annotations

from functools import cached_property

from .base import ArrayCode, ElementKind, ParityChain, Position


class PCode(ArrayCode):
    """P-Code, included as an extension baseline (paper Section II)."""

    name = "P-Code"
    min_p = 5

    @cached_property
    def rows(self) -> int:
        return (self.p - 1) // 2

    @cached_property
    def cols(self) -> int:
        return self.p - 1

    @cached_property
    def pair_of(self) -> dict[Position, tuple[int, int]]:
        """The ``{i, j}`` label (1-based, i < j) of every data cell."""
        p = self.p
        labels: dict[Position, tuple[int, int]] = {}
        for k in range(1, p):  # 1-based disk id
            pairs = sorted(
                (i, j)
                for i in range(1, p)
                for j in range(i + 1, p)
                if (i + j) % p == k % p
            )
            for row, pair in enumerate(pairs, start=1):
                labels[(row, k - 1)] = pair
        return labels

    def _build_chains(self) -> list[ParityChain]:
        p = self.p
        members_of: dict[int, list[Position]] = {c: [] for c in range(1, p)}
        for pos, (i, j) in self.pair_of.items():
            members_of[i].append(pos)
            members_of[j].append(pos)
        return [
            ParityChain(ElementKind.VERTICAL, (0, c - 1), tuple(sorted(members_of[c])))
            for c in range(1, p)
        ]
