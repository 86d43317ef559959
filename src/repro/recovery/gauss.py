"""The Gaussian reference decoder: the universal XOR decoder.

The ``python`` engine's :meth:`repro.codes.base.ArrayCode._decode_python`
falls back to it for the cells chain peeling cannot reach (compiled
engines run the plan compiler's elimination instead); it works on a bare
:class:`~repro.xor.equations.ParityCheckSystem` plus a stripe, so the
cross-decoder equivalence tests also call it directly to check that
peeling, Algorithm 1, and Gaussian elimination restore identical bytes.
"""

from __future__ import annotations

import numpy as np

from ..array.stripe import Stripe
from ..exceptions import DecodeError, UnrecoverableFailureError
from ..xor.equations import ParityCheckSystem

Position = tuple[int, int]


def gaussian_decode(system: ParityCheckSystem, stripe: Stripe) -> list[Position]:
    """Restore every erased cell of ``stripe`` by solving the XOR system.

    Returns the repaired cells (sorted).  Raises
    :class:`UnrecoverableFailureError` when the erasure pattern exceeds
    the system's capability.
    """
    erased = sorted(stripe.erased_positions())
    if not erased:
        return []
    erased_set = set(erased)
    rhs = np.zeros((len(system.equations), stripe.element_size), dtype=np.uint8)
    for r, eq in enumerate(system.equations):
        known = [pos for pos in eq if pos not in erased_set]
        rhs[r] = stripe.xor_of(known)
    try:
        solved = system.solve_erased(erased, rhs)
    except DecodeError as exc:
        raise UnrecoverableFailureError(str(exc)) from exc
    for pos, buf in zip(erased, solved):
        stripe.set(pos, buf)
    return erased
