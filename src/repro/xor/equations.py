"""Parity-check systems: the linear-algebra view of an array code.

An XOR array code is a set of equations, each saying that the XOR of
some cell set is zero (the parity element together with its chain
members).  :class:`ParityCheckSystem` materializes those equations as a
GF(2) matrix over the stripe's cells, which gives us two tools the
whole package leans on:

- an *erasure-capability oracle*: a set of erased cells is recoverable
  iff the matrix restricted to those cells has full column rank — this
  is how the exhaustive MDS tests verify every code; and
- a *reference decoder* (see :mod:`repro.recovery.gauss`) that works
  for any XOR code, including ones where simple chain peeling gets
  stuck (EVENODD's shared S diagonal).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..exceptions import InvalidParameterError
from .bitmatrix import gf2_rank

Position = tuple[int, int]


class ParityCheckSystem:
    """GF(2) parity-check matrix over a stripe's cells.

    Parameters
    ----------
    positions:
        Every cell of the stripe, in a fixed order (defines column
        indices).
    equations:
        Iterable of cell sets; each set XORs to zero in a valid stripe.
    """

    def __init__(
        self,
        positions: Iterable[Position],
        equations: Iterable[frozenset[Position]],
    ) -> None:
        self.positions = list(positions)
        self.index = {pos: i for i, pos in enumerate(self.positions)}
        if len(self.index) != len(self.positions):
            raise InvalidParameterError("duplicate positions")
        eqs = [frozenset(eq) for eq in equations]
        self.equations = eqs
        matrix = np.zeros((len(eqs), len(self.positions)), dtype=bool)
        for r, eq in enumerate(eqs):
            for pos in eq:
                matrix[r, self.index[pos]] = True
        self.matrix = matrix

    # -- capability oracle -----------------------------------------------------

    def column_submatrix(self, cells: Iterable[Position]) -> np.ndarray:
        """The parity-check matrix restricted to the given cells' columns.

        This is the object every erasure question reduces to: a cell
        set is decodable iff this submatrix has full column rank.  The
        static certifier (:mod:`repro.static.certify`) calls it for all
        ``C(n, 2)`` double-column erasures to prove MDS-ness without
        encoding a single stripe.
        """
        cols = [self.index[pos] for pos in cells]
        return self.matrix[:, cols]

    def erased_rank(self, cells: Iterable[Position]) -> int:
        """GF(2) rank of the submatrix over the given cells."""
        sub = self.column_submatrix(cells)
        if sub.shape[1] == 0:
            return 0
        return gf2_rank(sub)

    def can_recover(self, erased: Iterable[Position]) -> bool:
        """True iff the erased cell set is uniquely decodable.

        Erased cells are recoverable exactly when the parity-check
        matrix restricted to their columns has full column rank (the
        known cells contribute constants; the unknowns then have a
        unique solution).
        """
        cells = list(erased)
        if not cells:
            return True
        return self.erased_rank(cells) == len(cells)

    def solve_erased(self, erased: list[Position], known_xor) -> np.ndarray:
        """Solve for erased cells given per-equation XOR of known cells.

        Parameters
        ----------
        erased:
            The erased cells, defining the unknown ordering.
        known_xor:
            Array of shape ``(n_equations, element_size)`` holding, for
            each equation, the XOR of its *alive* members' buffers
            (this is the equation's right-hand side, since the XOR of
            everything is zero).

        Returns
        -------
        Array of shape ``(len(erased), element_size)`` with the
        recovered buffers, in the order of ``erased``.
        """
        from .bitmatrix import gf2_solve  # local to keep module load light

        cols = [self.index[pos] for pos in erased]
        sub = self.matrix[:, cols]
        return gf2_solve(sub, np.asarray(known_xor))

    def rank(self) -> int:
        """Rank of the full parity-check matrix."""
        return gf2_rank(self.matrix)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ParityCheckSystem(cells={len(self.positions)}, "
            f"equations={len(self.equations)})"
        )
