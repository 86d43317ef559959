"""HV Code: horizontal-vertical MDS RAID-6 code over ``p - 1`` disks.

A stripe is a ``(p-1) x (p-1)`` grid (``p`` prime).  Using the paper's
1-based coordinates ``E_{i,j}`` with ``1 <= i, j <= p-1``:

- row ``i`` keeps its **horizontal parity** at column ``<2i>_p``
  (Eq. 1): the XOR of the row's data elements (everything in the row
  except the two parity cells);
- row ``i`` keeps its **vertical parity** at column ``<4i>_p``
  (Eq. 2): the XOR of the data elements ``E_{k,j}`` satisfying
  ``<2k + 4i>_p = j``, for every column ``j`` except ``<4i>_p`` (the
  parity itself) and ``<8i>_p`` (where the traversal would land on
  another vertical parity).

Both chains have length ``p - 2`` — one element shorter than any of
RDP / HDP / X-Code / H-Code — which is the root of HV Code's recovery
I/O advantage (paper Section IV.4).  Internally everything is 0-based;
the ``*_1based`` helpers expose the paper's coordinates for tests that
follow the worked examples.
"""

from __future__ import annotations

from functools import cached_property

from ..codes.base import ArrayCode, ElementKind, ParityChain, Position
from ..exceptions import InvalidParameterError
from ..utils import mod_div


class HVCode(ArrayCode):
    """The paper's Horizontal-Vertical code (Section III)."""

    name = "HV"
    min_p = 5

    @cached_property
    def rows(self) -> int:
        return self.p - 1

    @cached_property
    def cols(self) -> int:
        return self.p - 1

    # -- paper-coordinate helpers (1-based) -----------------------------------------

    def vertical_parity_column_1based(self, i: int) -> int:
        """Column ``<4i>_p`` of row ``i``'s vertical parity (1-based)."""
        self._check_row_1based(i)
        return (4 * i) % self.p

    def _check_row_1based(self, i: int) -> None:
        if not 1 <= i <= self.p - 1:
            raise InvalidParameterError(f"1-based index {i} outside 1..{self.p - 1}")

    # -- chain construction -----------------------------------------------------------

    def _build_chains(self) -> list[ParityChain]:
        p = self.p
        chains: list[ParityChain] = []
        for i in range(1, p):  # 1-based row index, as in the paper
            h_col = (2 * i) % p
            v_col = (4 * i) % p
            skip_v = (8 * i) % p
            # Eq. (1): horizontal parity over the row's data elements.
            h_members = tuple(
                (i - 1, j - 1)
                for j in range(1, p)
                if j not in (h_col, v_col)
            )
            chains.append(
                ParityChain(ElementKind.HORIZONTAL, (i - 1, h_col - 1), h_members)
            )
            # Eq. (2): vertical parity over data cells with <2k + 4i>_p = j.
            v_members = tuple(
                (mod_div(j - 4 * i, 2, p) - 1, j - 1)
                for j in range(1, p)
                if j not in (v_col, skip_v)
            )
            chains.append(
                ParityChain(ElementKind.VERTICAL, (i - 1, v_col - 1), v_members)
            )
        return chains

    # -- structural accessors used by the planners --------------------------------------

    @cached_property
    def horizontal_chains(self) -> tuple[ParityChain, ...]:
        return tuple(c for c in self.chains if c.kind is ElementKind.HORIZONTAL)

    @cached_property
    def vertical_chains(self) -> tuple[ParityChain, ...]:
        return tuple(c for c in self.chains if c.kind is ElementKind.VERTICAL)

    def vertical_chain_of(self, pos: Position) -> ParityChain:
        """The vertical chain containing the data cell ``pos``.

        Per the paper's reconstruction rule: data element ``E_{i,j}``
        belongs to the vertical chain anchored at row ``s`` with
        ``<4s>_p = <j - 2i>_p``.
        """
        self._require_data(pos)
        i, j = pos[0] + 1, pos[1] + 1
        s = mod_div(j - 2 * i, 4, self.p)
        v_col = self.vertical_parity_column_1based(s)
        return self.chain_at[(s - 1, v_col - 1)]

    def _require_data(self, pos: Position) -> None:
        if not self.is_data(pos):
            raise InvalidParameterError(f"{pos} is not a data element")
