"""Partial-stripe-write analysis for HV Code (paper Section IV.5).

A write to ``L`` continuous data elements induces one write per dirtied
parity element.  HV Code keeps that count low through two kinds of
sharing:

- **row sharing** — all updated data elements of one row share that
  row's single horizontal parity;
- **cross-row vertical sharing** — the last data element of row ``i``
  and the first of row ``i+1`` belong to the same vertical chain
  (because a data element ``E_{i,j}`` joins the vertical parity on
  disk ``<j - 2i>_p``), so a write spanning the row boundary updates
  one shared vertical parity instead of two.

The paper proves at least ``p - 6`` of the ``p - 2`` cross-row pairs
share a vertical parity.  :func:`analyze_partial_write` measures all of
this for a concrete write so tests and examples can check the claims
directly rather than trusting the derivation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codes.base import ElementKind, Position
from ..exceptions import InvalidParameterError
from .hvcode import HVCode


@dataclass
class PartialWriteAnalysis:
    """What one partial-stripe write touches.

    Attributes
    ----------
    data_cells:
        The continuous data elements written, in logical order.
    horizontal_parities / vertical_parities:
        Distinct parity cells dirtied, by flavor.
    shared_vertical_pairs:
        Consecutive cross-row pairs that shared one vertical parity.
    unshared_vertical_pairs:
        Consecutive cross-row pairs that did not.
    """

    code: HVCode
    data_cells: tuple[Position, ...]
    horizontal_parities: frozenset[Position]
    vertical_parities: frozenset[Position]
    shared_vertical_pairs: tuple[tuple[Position, Position], ...]
    unshared_vertical_pairs: tuple[tuple[Position, Position], ...]

    @property
    def parity_writes(self) -> int:
        """Distinct parity elements written."""
        return len(self.horizontal_parities) + len(self.vertical_parities)

    @property
    def total_writes(self) -> int:
        """Total element writes: data plus induced parity."""
        return len(self.data_cells) + self.parity_writes


def analyze_partial_write(code: HVCode, start: int, length: int) -> PartialWriteAnalysis:
    """Analyze a write of ``length`` continuous data elements.

    ``start`` is the 0-based logical index into the stripe's data
    elements (row-major order, parities skipped), matching how the
    paper's traces address "continuous data elements".  The write must
    fit within one stripe; multi-stripe writes are the volume layer's
    job (:mod:`repro.array.raid`).
    """
    total = code.data_elements_per_stripe
    if length <= 0:
        raise InvalidParameterError("write length must be positive")
    if not 0 <= start < total or start + length > total:
        raise InvalidParameterError(
            f"write [{start}, {start + length}) outside 0..{total} data elements"
        )
    cells = code.data_positions[start : start + length]

    horizontal: set[Position] = set()
    vertical: set[Position] = set()
    for cell in cells:
        for parity in code.update_targets(cell):
            if code.kind(parity) is ElementKind.HORIZONTAL:
                horizontal.add(parity)
            else:
                vertical.add(parity)

    shared: list[tuple[Position, Position]] = []
    unshared: list[tuple[Position, Position]] = []
    for left, right in zip(cells, cells[1:]):
        if left[0] == right[0]:
            continue  # same-row pair: horizontal sharing, not vertical
        left_parity = code.vertical_chain_of(left).parity
        right_parity = code.vertical_chain_of(right).parity
        if left_parity == right_parity:
            shared.append((left, right))
        else:
            unshared.append((left, right))

    return PartialWriteAnalysis(
        code=code,
        data_cells=tuple(cells),
        horizontal_parities=frozenset(horizontal),
        vertical_parities=frozenset(vertical),
        shared_vertical_pairs=tuple(shared),
        unshared_vertical_pairs=tuple(unshared),
    )


def cross_row_sharing_rate(code: HVCode) -> float:
    """Fraction of cross-row consecutive data pairs sharing a vertical parity.

    The paper's Section IV.5 footnote: of the ``p - 2`` cross-row
    pairs, at least ``p - 6`` share, so the rate approaches 1 as ``p``
    grows.
    """
    cells = code.data_positions
    cross = [
        (a, b) for a, b in zip(cells, cells[1:]) if a[0] != b[0]
    ]
    if not cross:
        return 1.0
    shared = sum(
        1
        for a, b in cross
        if code.vertical_chain_of(a).parity == code.vertical_chain_of(b).parity
    )
    return shared / len(cross)
