"""Cauchy Reed-Solomon RAID-6 as a pure-XOR bit-matrix code.

The paper's background (Section II.B): "Cauchy Reed-Solomon Code
introduces the binary bit matrix to convert the complex Galois field
arithmetic operations into single XOR operations."  This module does
exactly that conversion:

- build a 2 x k Cauchy generator over ``GF(2^w)`` and normalize its
  first row to ones (so the P drive is a plain XOR, as in Jerasure);
- expand each remaining coefficient into its ``w x w`` binary
  multiplication matrix;
- emit the result as parity chains over a ``w``-row stripe, one packet
  per row: P packet ``i`` XORs packet ``i`` of every data disk, and
  Q packet ``i`` XORs the data packets the bit matrices select.

Because every square submatrix of a Cauchy matrix is invertible, the
code is MDS for any ``k <= 2^w - 2`` — the first code in this package
whose disk count is not tied to a prime.  Chain peeling generally
cannot decode it (Q chains interleave packets heavily), so it also
exercises the generic Gaussian fallback.
"""

from __future__ import annotations

from functools import cached_property

from ..exceptions import InvalidParameterError
from ..gf.gfw import GF2w
from .base import ArrayCode, ElementKind, ParityChain


def bit_matrix(field: GF2w, element: int) -> list[list[int]]:
    """The w×w binary matrix of multiplication by ``element``.

    Column ``c`` holds the bits of ``element * x^c``: multiplying a
    word by ``element`` equals this matrix acting on its bit vector.
    """
    w = field.w
    cols = [field.mul(element, 1 << c) for c in range(w)]
    return [[(cols[c] >> i) & 1 for c in range(w)] for i in range(w)]


class CauchyRSCode(ArrayCode):
    """Cauchy Reed-Solomon RAID-6 over ``k`` data disks, word size ``w``."""

    name = "Cauchy-RS"
    requires_prime = False

    def __init__(self, k: int, w: int | None = None) -> None:
        if w is None:
            # Smallest word size whose field fits k data + 2 parity ids.
            w = next(
                (cand for cand in range(2, 9) if k <= (1 << cand) - 2), 8
            )
        if not 2 <= w <= 8:
            raise InvalidParameterError(f"word size w must be in 2..8, got {w}")
        if not 2 <= k <= (1 << w) - 2:
            raise InvalidParameterError(
                f"k must be in 2..{(1 << w) - 2} for w={w}, got {k}"
            )
        super().__init__(w)
        self.k = k
        self.w = w
        self.field = GF2w(w)

    @cached_property
    def rows(self) -> int:
        return self.w

    @cached_property
    def cols(self) -> int:
        return self.k + 2

    @property
    def p_disk(self) -> int:
        return self.k

    @property
    def q_disk(self) -> int:
        return self.k + 1

    @cached_property
    def q_coefficients(self) -> tuple[int, ...]:
        """Per-data-disk Q multipliers after P-row normalization."""
        field = self.field
        xs = [self.k, self.k + 1]
        ys = list(range(self.k))
        # Cauchy rows: M[r][j] = 1 / (x_r + y_j); scale each column by
        # M[0][j]^-1 so the P row becomes all ones.
        row0 = [field.inverse(xs[0] ^ y) for y in ys]
        row1 = [field.inverse(xs[1] ^ y) for y in ys]
        return tuple(field.div(b, a) for a, b in zip(row0, row1))

    def _build_chains(self) -> list[ParityChain]:
        chains: list[ParityChain] = []
        for i in range(self.w):
            members = tuple((i, j) for j in range(self.k))
            chains.append(ParityChain(ElementKind.ROW, (i, self.p_disk), members))
        matrices = [bit_matrix(self.field, c) for c in self.q_coefficients]
        for i in range(self.w):
            members = tuple(
                (a, j)
                for j in range(self.k)
                for a in range(self.w)
                if matrices[j][i][a]
            )
            chains.append(ParityChain(ElementKind.Q, (i, self.q_disk), members))
        return chains

    def __repr__(self) -> str:
        return f"CauchyRSCode(k={self.k}, w={self.w})"
