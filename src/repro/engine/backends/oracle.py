"""The ``python`` engine: the byte oracle behind the backends' interface.

It answers the same calls as a kernel backend by walking the code's
parity chains — the reference every compiled plan is checked against —
and runs no plan's steps: :meth:`PythonOracle.execute` refuses.  Not
registered; :func:`~repro.engine.backends.resolve_backend` maps
``"python"`` here itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...array.stripe import ERASED, LATENT
from ...exceptions import InvalidParameterError
from .base import KernelBackend, refresh_sums

if TYPE_CHECKING:
    from collections.abc import Mapping, Sequence

    from ...array.iostats import IOStats
    from ...array.stripe import Stripe
    from ...codes.base import ArrayCode, DecodeReport
    from ..plan import XorPlan
    from .base import Target


class PythonOracle(KernelBackend):
    """Chain walks through :meth:`Stripe.xor_of`; charges no ledger."""

    name = "python"

    def execute(self, plan: XorPlan, target: Target, *, stats: IOStats | None = None) -> None:
        raise InvalidParameterError(
            "engine 'python' walks parity chains and runs no compiled plan; "
            "execute plans on 'fused', 'native' or 'auto'"
        )

    def encode(self, code: ArrayCode, stripe: Stripe, *, stats: IOStats | None = None) -> None:
        for chain in code.encode_order:
            stripe.set(chain.parity, stripe.xor_of(chain.members))

    def decode(self, code: ArrayCode, stripe: Stripe) -> DecodeReport:
        return code._decode_python(stripe)

    def gather(
        self, code: ArrayCode, plan: XorPlan, stripe: Stripe, *, stats: IOStats | None = None
    ) -> np.ndarray:
        """Decode a copy of the stripe, latent cells erased, and pick
        ``plan.outputs`` out of it."""
        work = stripe.copy()
        work.state[work.state == LATENT] = ERASED
        code.decode(work)
        return work.flat_view()[list(plan.outputs)]

    def update(
        self,
        code: ArrayCode,
        plan: XorPlan,
        stripes: Sequence[Stripe],
        olds: Sequence[Mapping[int, bytes | np.ndarray]],
        *,
        stats: IOStats | None = None,
        sums: Sequence[np.ndarray] | None = None,
    ) -> None:
        """Fold each stripe's ``live ⊕ old`` deltas into its chains
        (:meth:`ArrayCode.apply_parity_deltas`), then refresh ``sums``
        as every backend does."""
        cells = plan.pattern_positions
        for stripe, old in zip(stripes, olds):
            deltas = {
                pos: stripe.data[pos] ^ np.frombuffer(old[slot], np.uint8)
                for slot, pos in zip(plan.pattern, cells)
            }
            code.apply_parity_deltas(stripe, deltas)
        refresh_sums(plan, stripes, sums)
